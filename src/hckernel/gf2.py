"""Multilinear GF(2) polynomials over color-indicator variables.

A variable ``Var(vertex, color)`` is the 0/1 indicator "this vertex gets
this color". A constraint is stored sparsely as the set of its
coefficient-1 monomials, which makes the GF(2) coefficient vector
canonical without ever materializing the dense monomial universe.

Elimination works on int bitmasks: ``MonomialInterner`` gives each
monomial a bit and ``MaskBasis`` reduces rows by pivot. ``GF2Basis`` is
the same basis seen through constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class Var(NamedTuple):
    """Indicator variable: ``vertex`` receives ``color``."""

    vertex: int
    color: int


@dataclass(frozen=True)
class Monomial:
    """Multilinear monomial: a sorted tuple of distinct variables.

    The empty tuple is the constant-1 monomial. Repeated variables collapse
    on construction, since x*x = x for 0/1 values.
    """

    vars: tuple[Var, ...]

    @staticmethod
    def of(items: Iterable[tuple[int, int]]) -> "Monomial":
        return Monomial(tuple(sorted({Var(*it) for it in items})))

    @property
    def degree(self) -> int:
        return len(self.vars)

    def sort_key(self) -> tuple:
        # graded order: degree first, then the sorted variable tuple
        return (len(self.vars), self.vars)


ONE = Monomial(())


@dataclass(frozen=True)
class GF2Constraint:
    """A polynomial over GF(2), as the set of monomials with coefficient 1.

    The set representation is the canonical coefficient vector; two
    constraints are the same polynomial iff their monomial sets are equal.
    """

    monomials: frozenset[Monomial]
    degree_bound: int

    def __post_init__(self):
        for mono in self.monomials:
            if mono.degree > self.degree_bound:
                raise ValueError(
                    f"monomial degree {mono.degree} exceeds bound {self.degree_bound}")

    @staticmethod
    def of(monomials: Iterable[Monomial], degree_bound: int | None = None) -> "GF2Constraint":
        monos = frozenset(monomials)
        if degree_bound is None:
            degree_bound = max((m.degree for m in monos), default=0)
        return GF2Constraint(monos, degree_bound)

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.monomials), default=0)

    def evaluate_bool(self, values: Mapping[Var, int]) -> int:
        """Value mod 2 under a plain 0/1 assignment to the variables."""
        total = 0
        for mono in self.monomials:
            if all(values.get(v, 0) for v in mono.vars):
                total ^= 1
        return total


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


def _constraint_key(mono: Monomial) -> tuple:
    return tuple((v.vertex, v.color) for v in mono.vars)


class GF2Basis:
    """Incremental GF(2) row basis over constraints.

    Monomials are interned on first use; the rows live in a ``MaskBasis``
    over the interned bits.
    """

    def __init__(self, degree_bound: int | None = None):
        self.degree_bound = degree_bound
        self._interner = MonomialInterner()
        self._basis = MaskBasis()

    @property
    def rank(self) -> int:
        return self._basis.rank

    def _mask(self, constraint: GF2Constraint, grow: bool) -> int | None:
        if self.degree_bound is not None and constraint.degree > self.degree_bound:
            raise ValueError(
                f"constraint degree {constraint.degree} exceeds basis bound "
                f"{self.degree_bound}")
        ids = self._interner.ids
        mask = 0
        for mono in constraint.monomials:
            key = _constraint_key(mono)
            if grow:
                idx = ids[key]
            else:
                idx = ids.get(key)
                if idx is None:
                    return None
            mask |= 1 << idx
        return mask

    def add(self, constraint: GF2Constraint) -> bool:
        """Insert a constraint; False iff it already lies in the span."""
        return self._basis.insert(self._mask(constraint, grow=True))

    def contains(self, constraint: GF2Constraint) -> bool:
        """Span membership; never mutates the basis."""
        mask = self._mask(constraint, grow=False)
        if mask is None:
            # an unseen monomial cannot be produced by any combination
            return False
        return self._basis.contains(mask)

    def rows(self) -> list[GF2Constraint]:
        """Reduced rows decoded back to constraints, highest pivot first."""
        keys = self._interner.keys_by_id()
        out = []
        for row in self._basis.rows():
            monos = []
            idx = 0
            while row:
                if row & 1:
                    monos.append(Monomial(tuple(Var(*p) for p in keys[idx])))
                row >>= 1
                idx += 1
            out.append(GF2Constraint.of(monos, self.degree_bound))
        return out


def monomial_count_bound(n: int, d: int) -> int:
    """Upper bound n**d + 1 on multilinear monomials of degree <= d.

    Exact arithmetic on Python ints, so no overflow handling is needed.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be non-negative")
    return n ** d + 1


def in_span(target: GF2Constraint, generators: Sequence[GF2Constraint]) -> bool:
    """True iff target's coefficient vector is a mod-2 sum of the generators'."""
    if target.is_zero:
        return True
    basis = GF2Basis()
    for gen in generators:
        basis.add(gen)
    return basis.contains(target)
