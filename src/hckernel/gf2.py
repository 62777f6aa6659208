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

from typing import Iterable, Mapping, Sequence

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


class _InternedIds(dict):
    """Key -> id map that interns a key the first time it is indexed.

    Only a miss runs Python code, so ``ids[key]`` costs one dict lookup for
    a key seen before. Each new key's vertex set is recorded once, at the
    index of its id.
    """

    __slots__ = ("vertex_sets",)

    def __init__(self):
        super().__init__()
        self.vertex_sets: list[frozenset[int]] = []

    def __missing__(self, key: tuple) -> int:
        idx = self[key] = len(self)
        self.vertex_sets.append(frozenset([v for v, _c in key]))
        return idx


class MonomialInterner:
    """Assigns stable bit indices to monomial keys in first-seen order.

    Keys are sorted tuples of (vertex, color) pairs. Any fixed monomial
    order yields the same spans and ranks; first-seen order makes the
    leading term a plain ``bit_length`` call on the row bitmask.
    """

    __slots__ = ("_ids",)

    def __init__(self):
        self._ids = _InternedIds()

    @property
    def ids(self) -> Mapping[tuple, int]:
        """Key -> id; indexing it with an unseen key interns that key."""
        return self._ids

    @property
    def vertex_sets(self) -> Sequence[frozenset[int]]:
        """The vertices each id's monomial mentions, indexed by id."""
        return self._ids.vertex_sets

    def keys_by_id(self) -> list[tuple]:
        out: list[tuple] = [()] * len(self._ids)
        for key, idx in self._ids.items():
            out[idx] = key
        return out


def monomial_count_bound(n: int, d: int) -> int:
    """Upper bound n**d + 1 on multilinear monomials of degree <= d.

    Exact arithmetic on Python ints, so no overflow handling is needed.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be non-negative")
    return n ** d + 1


def in_span(target: Iterable[tuple], generators: Iterable[Iterable[tuple]]) -> bool:
    """True iff target is a mod-2 sum of the generators.

    Rows are iterables of monomial keys, each read as the set of its keys.
    Every call interns the rows into a fresh ``MonomialInterner`` and builds
    a fresh ``MaskBasis`` from all generators, so a caller checking many
    targets against the same generators should build the basis once itself.
    """
    ids = MonomialInterner().ids
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
