"""GF(2) elimination over monomial keys.

A constraint row is a multilinear polynomial over GF(2) in the 0/1
indicator variables "vertex v gets color c". It is stored sparsely as the
tuple of its coefficient-1 monomials, each a monomial key: a sorted,
duplicate-free tuple of (vertex, color) pairs, the empty key being the
constant 1. This keeps the coefficient vector canonical without ever
materializing the dense monomial universe.

Elimination works on int bitmasks: ``MonomialInterner`` gives each key a
bit and ``MaskBasis`` reduces rows by pivot.

A row of one monomial makes that monomial free: a basis keeps its free
monomials as one set F, an int, instead of one stored row each. For any
rows R, t lies in the span of F and R exactly when t & ~F lies in the span
of the rows r & ~F, and the rank of F and R is |F| plus the rank of those
rows. Reducing every row and every query by ``& ~F`` therefore gives the
answers and the rank of inserting each free monomial as a row of its own.
"""

from __future__ import annotations

from typing import Iterable

# name of the elimination implementation, written to the stats JSON
BACKEND = "pure"


class MaskBasis:
    """Row basis over GF(2) with pivot-indexed reduction.

    Rows are arbitrary-precision int bitmasks; bit i is the coefficient of
    the monomial interned at index i, so rows of any width are accepted.
    Stored rows are in row-echelon form: each has a distinct leading
    (highest) bit, used as the pivot during reduction.

    ``free`` is the set F of free monomials (module docstring), added by
    ``insert_units``. Stored rows never meet F, and ``insert`` and
    ``contains`` reduce ``mask & ~F``; the rank counts F bit by bit. With
    no free monomial neither method does any extra work.
    """

    __slots__ = ("_pivots", "free", "_kept")

    def __init__(self):
        self._pivots: dict[int, int] = {}
        self.free = 0
        self._kept = -1   # ~free: every bit but the free ones

    @property
    def rank(self) -> int:
        return len(self._pivots) + self.free.bit_count()

    def _reduce(self, row: int) -> int:
        pivots = self._pivots
        while row:
            other = pivots.get(row.bit_length() - 1)
            if other is None:
                return row
            row ^= other
        return 0

    def insert(self, mask: int) -> bool:
        """Reduce the row against the basis and keep it when independent.

        Returns True iff the row was inserted (it was not already in the
        span). Inserting the zero row returns False.
        """
        if self.free:
            mask &= self._kept
        row = self._reduce(mask)
        if row == 0:
            return False
        self._pivots[row.bit_length() - 1] = row
        return True

    def insert_units(self, mask: int) -> None:
        """Add every bit of the mask as a one-monomial row: its bits become
        free. Stored rows that meet a new free bit are projected off F and
        inserted again, since a row whose leading bit became free takes a
        lower pivot that another row may hold."""
        new = mask & self._kept
        if not new:
            return
        self.free |= new
        kept = self._kept = ~self.free
        pivots = self._pivots
        moved = [row for row in pivots.values() if row & new]
        for row in moved:
            del pivots[row.bit_length() - 1]
        for row in moved:
            row = self._reduce(row & kept)
            if row:
                pivots[row.bit_length() - 1] = row

    def contains(self, mask: int) -> bool:
        """True iff the row is a GF(2) combination of the stored rows and
        the free monomials."""
        if self.free:
            mask &= self._kept
        return self._reduce(mask) == 0


class MonomialInterner(dict):
    """Key -> bit index map that interns a key the first time it is indexed.

    Keys are sorted tuples of (vertex, color) pairs, numbered in first-seen
    order. Any fixed monomial order yields the same spans and ranks;
    first-seen order makes the leading term a plain ``bit_length`` call on
    the row bitmask. Only a miss runs Python code, so ``interner[key]``
    costs one dict lookup for a key seen before. A dict keeps insertion
    order, so iterating the interner lists the keys by index.
    """

    __slots__ = ()

    def __missing__(self, key: tuple) -> int:
        idx = self[key] = len(self)
        return idx


def in_span(target: Iterable[tuple], generators: Iterable[Iterable[tuple]]) -> bool:
    """True iff target is a mod-2 sum of the generators.

    Rows are iterables of monomial keys, each read as the set of its keys.
    Every call interns the rows into a fresh ``MonomialInterner`` and builds
    a fresh ``MaskBasis`` from all generators, so a caller checking many
    targets against the same generators should build the basis once itself.
    """
    ids = MonomialInterner()
    basis = MaskBasis()
    for row in generators:
        mask = 0
        for key in row:
            mask |= 1 << ids[key]
        basis.insert(mask)
    mask = 0
    for key in target:
        idx = ids.get(key)
        if idx is None:
            # an unseen monomial cannot be produced by any combination
            return False
        mask |= 1 << idx
    return basis.contains(mask)
