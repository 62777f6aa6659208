"""GF(2) elimination over monomial keys.

A constraint row is a multilinear polynomial over GF(2) in the 0/1
indicator variables "vertex v gets color c". It is stored sparsely as the
tuple of its coefficient-1 monomials, each a monomial key: a sorted,
duplicate-free tuple of (vertex, color) pairs, the empty key being the
constant 1. This keeps the coefficient vector canonical without ever
materializing the dense monomial universe.

Elimination works on int bitmasks: ``MonomialInterner`` gives each key a
bit and ``MaskBasis`` reduces rows by pivot.
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
    """

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

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
        row = self._reduce(mask)
        if row == 0:
            return False
        self._pivots[row.bit_length() - 1] = row
        return True

    def contains(self, mask: int) -> bool:
        """True iff the row is a GF(2) combination of the stored rows."""
        return self._reduce(mask) == 0

    def rows(self) -> list[int]:
        """Stored rows, highest pivot first."""
        return [self._pivots[p] for p in sorted(self._pivots, reverse=True)]


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
