"""Multilinear GF(2) polynomials over color-indicator variables.

A variable ``Var(vertex, color)`` is the 0/1 indicator "this vertex gets
this color". A constraint is stored sparsely as the set of its
coefficient-1 monomials, which makes the GF(2) coefficient vector
canonical without ever materializing the dense monomial universe.

Backend selection: the compiled extension (``_gf2core``) is used when it
imported successfully, otherwise the pure-Python fallback (``_gf2py``).
Set ``HCKERNEL_GF2_BACKEND=pure`` or ``=compiled`` to force a choice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import _gf2py

try:
    from . import _gf2core
except ImportError:  # extension not built; fall back silently
    _gf2core = None

_requested = os.environ.get("HCKERNEL_GF2_BACKEND", "").strip().lower()
if _requested == "pure":
    _impl = _gf2py
elif _requested == "compiled":
    if _gf2core is None:
        raise ImportError(
            "HCKERNEL_GF2_BACKEND=compiled but the extension is not built; "
            "run `pip install -e .` or `python setup.py build_ext --inplace`")
    _impl = _gf2core
elif _requested:
    raise ValueError(f"unknown HCKERNEL_GF2_BACKEND value: {_requested!r}")
else:
    _impl = _gf2core if _gf2core is not None else _gf2py

BACKEND = _impl.BACKEND_NAME


def make_xor_basis(num_columns: int):
    """A raw elimination basis from the selected backend."""
    return _impl.XorBasis(num_columns)


def available_backends() -> dict[str, object]:
    """Importable backend modules keyed by name (for tests and benchmarks)."""
    out = {"pure": _gf2py}
    if _gf2core is not None:
        out["compiled"] = _gf2core
    return out


class MaskBasis:
    """Backend basis over raw int masks with a growing column capacity.

    The compiled backend fixes its column universe at construction, so the
    wrapper rebuilds it (re-inserting the reduced rows) whenever the
    interned-monomial universe outgrows it.
    """

    __slots__ = ("_capacity", "_basis")

    def __init__(self, capacity: int = 64):
        self._capacity = max(capacity, 1)
        self._basis = make_xor_basis(self._capacity)

    def ensure_columns(self, num_columns: int) -> None:
        if num_columns <= self._capacity:
            return
        while self._capacity < num_columns:
            self._capacity *= 2
        fresh = make_xor_basis(self._capacity)
        for row in self._basis.rows():
            fresh.insert(row)
        self._basis = fresh

    def insert(self, mask: int) -> bool:
        return self._basis.insert(mask)

    def contains(self, mask: int) -> bool:
        return self._basis.contains(mask)

    @property
    def rank(self) -> int:
        return self._basis.rank


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
    def size(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> Mapping[tuple, int]:
        """Key -> id; indexing it with an unseen key interns that key."""
        return self._ids

    @property
    def vertex_sets(self) -> Sequence[frozenset[int]]:
        """The vertices each id's monomial mentions, indexed by id."""
        return self._ids.vertex_sets

    def id_of(self, key: tuple) -> int:
        return self._ids[key]

    def lookup(self, key: tuple) -> int | None:
        return self._ids.get(key)

    def keys_by_id(self) -> list[tuple]:
        out: list[tuple] = [()] * len(self._ids)
        for key, idx in self._ids.items():
            out[idx] = key
        return out

    def mask_of(self, keys: Iterable[tuple]) -> int:
        mask = 0
        for key in keys:
            mask |= 1 << self.id_of(key)
        return mask


def _constraint_key(mono: Monomial) -> tuple:
    return tuple((v.vertex, v.color) for v in mono.vars)


class GF2Basis:
    """Incremental GF(2) row basis over constraints.

    Monomials are interned on first use; the backend basis is rebuilt with
    doubled capacity when the universe outgrows it (amortized constant).
    """

    def __init__(self, degree_bound: int | None = None):
        self.degree_bound = degree_bound
        self._interner = MonomialInterner()
        self._capacity = 64
        self._basis = make_xor_basis(self._capacity)

    @property
    def rank(self) -> int:
        return self._basis.rank

    @property
    def num_monomials(self) -> int:
        return self._interner.size

    def _mask(self, constraint: GF2Constraint, grow: bool) -> int | None:
        if self.degree_bound is not None and constraint.degree > self.degree_bound:
            raise ValueError(
                f"constraint degree {constraint.degree} exceeds basis bound "
                f"{self.degree_bound}")
        mask = 0
        for mono in constraint.monomials:
            key = _constraint_key(mono)
            if grow:
                idx = self._interner.id_of(key)
            else:
                found = self._interner.lookup(key)
                if found is None:
                    return None
                idx = found
            mask |= 1 << idx
        return mask

    def _ensure_capacity(self) -> None:
        if self._interner.size <= self._capacity:
            return
        while self._capacity < self._interner.size:
            self._capacity *= 2
        fresh = make_xor_basis(self._capacity)
        for row in self._basis.rows():
            fresh.insert(row)
        self._basis = fresh

    def add(self, constraint: GF2Constraint) -> bool:
        """Insert a constraint; False iff it already lies in the span."""
        mask = self._mask(constraint, grow=True)
        self._ensure_capacity()
        return self._basis.insert(mask)

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


def add_to_basis(basis: GF2Basis, constraint: GF2Constraint) -> tuple[GF2Basis, bool]:
    """Functional-style wrapper around ``GF2Basis.add``."""
    return basis, basis.add(constraint)


def in_span(target: GF2Constraint, generators: Sequence[GF2Constraint]) -> bool:
    """True iff target's coefficient vector is a mod-2 sum of the generators'."""
    if target.is_zero:
        return True
    basis = GF2Basis()
    for gen in generators:
        basis.add(gen)
    return basis.contains(target)
