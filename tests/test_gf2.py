"""GF(2) constraints, bases, span membership and mask elimination."""

import itertools
import random
from functools import reduce
from operator import xor

import pytest

import hckernel
from hckernel.gf2 import (
    GF2Basis,
    GF2Constraint,
    MaskBasis,
    Monomial,
    Var,
    in_span,
    monomial_count_bound,
)


def mono(*pairs):
    return Monomial.of(pairs)


def constraint(*monomials, bound=None):
    return GF2Constraint.of(monomials, degree_bound=bound)


X1 = mono((1, 1))
X2 = mono((2, 1))
X12 = mono((1, 1), (2, 1))


class TestMonomial:
    def test_sorted_and_deduped(self):
        m = Monomial.of([(2, 1), (1, 3), (2, 1)])
        assert m.vars == (Var(1, 3), Var(2, 1))
        assert m.degree == 2

    def test_square_collapses(self):
        # x*x = x over 0/1 values, so repeated pairs merge
        assert mono((1, 1), (1, 1)) == mono((1, 1))

    def test_constant(self):
        assert Monomial(()).degree == 0


class TestConstraint:
    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            GF2Constraint(frozenset({X12}), 1)

    def test_canonical_equality(self):
        assert constraint(X1, X2) == constraint(X2, X1)

    def test_evaluate_bool(self):
        c = constraint(X12, X1)
        assert c.evaluate_bool({Var(1, 1): 1, Var(2, 1): 1}) == 0  # 1 + 1
        assert c.evaluate_bool({Var(1, 1): 1}) == 1


class TestMonomialCountBound:
    def test_examples(self):
        # true counts: sum of binomials, always within n**d + 1
        assert monomial_count_bound(3, 2) == 10
        assert sum(1 for d in range(3) for _ in itertools.combinations(range(3), d)) == 7
        assert monomial_count_bound(1, 1) == 2
        assert monomial_count_bound(5, 0) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            monomial_count_bound(-1, 2)

    def test_no_overflow(self):
        assert monomial_count_bound(10 ** 6, 5) == 10 ** 30 + 1


class TestBasis:
    def test_accepts_independent(self):
        basis = GF2Basis()
        assert basis.add(constraint(X1)) is True
        assert basis.rank == 1

    def test_rejects_sum_of_rows(self):
        basis = GF2Basis()
        basis.add(constraint(X1))
        basis.add(constraint(X2))
        # monomial-set symmetric difference of the two rows
        assert basis.add(constraint(X1, X2)) is False
        assert basis.rank == 2

    def test_product_monomial_independent(self):
        # derived by enumerating all 4 GF(2) combinations of {x1} and {x2}:
        # none equals the single monomial x1*x2
        combos = set()
        for a, b in itertools.product((0, 1), repeat=2):
            monos = set()
            if a:
                monos ^= {X1}
            if b:
                monos ^= {X2}
            combos.add(frozenset(monos))
        assert frozenset({X12}) not in combos
        basis = GF2Basis()
        basis.add(constraint(X1))
        basis.add(constraint(X2))
        assert basis.add(constraint(X12)) is True

    def test_reinsert_rejected(self):
        rng = random.Random(3)
        basis = GF2Basis()
        accepted = []
        universe = [mono((v, c)) for v in range(3) for c in range(2)]
        for _ in range(20):
            c = constraint(*rng.sample(universe, rng.randint(1, 4)))
            if basis.add(c):
                accepted.append(c)
        for c in accepted:
            assert basis.add(c) is False

    def test_rank_bounded_by_distinct_monomials(self):
        rng = random.Random(4)
        universe = [mono((v, c)) for v in range(4) for c in range(2)]
        basis = GF2Basis()
        seen = set()
        for _ in range(60):
            monos = rng.sample(universe, rng.randint(1, 5))
            seen.update(monos)
            basis.add(constraint(*monos))
            assert basis.rank <= len(seen)
            assert basis.rank <= monomial_count_bound(8, 1)

    def test_rows_are_echelon(self):
        rng = random.Random(5)
        universe = [mono((v, c)) for v in range(4) for c in range(3)]
        basis = GF2Basis()
        for _ in range(40):
            basis.add(constraint(*rng.sample(universe, rng.randint(1, 6))))
        rows = basis.rows()
        assert len(rows) == basis.rank
        # distinct leading monomials under the interning order is what
        # MaskBasis guarantees; verify rows are pairwise independent
        for i, row in enumerate(rows):
            others = rows[:i] + rows[i + 1:]
            assert not in_span(row, others)


class TestInSpan:
    def test_generator_itself(self):
        assert in_span(constraint(X1), [constraint(X1), constraint(X2)])

    def test_zero_constraint(self):
        assert in_span(constraint(), [])
        assert in_span(constraint(), [constraint(X1)])

    def test_product_not_in_span(self):
        assert not in_span(constraint(X12), [constraint(X1), constraint(X2)])

    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(6)
        universe = [mono((v, c)) for v in range(2) for c in range(3)]
        for _ in range(150):
            gens = [constraint(*rng.sample(universe, rng.randint(1, 4)))
                    for _ in range(rng.randint(0, 8))]
            target = constraint(*rng.sample(universe, rng.randint(0, 4)))
            brute = False
            for picks in itertools.product((0, 1), repeat=len(gens)):
                acc = frozenset()
                for take, gen in zip(picks, gens):
                    if take:
                        acc ^= gen.monomials
                if acc == target.monomials:
                    brute = True
                    break
            assert in_span(target, gens) == brute

    def test_span_soundness(self):
        # whenever the target is in the span and every generator vanishes
        # mod 2 under an assignment, the target vanishes too
        rng = random.Random(7)
        universe = [mono((v, 0)) for v in range(5)]
        variables = [Var(v, 0) for v in range(5)]
        for _ in range(200):
            gens = [constraint(*rng.sample(universe, rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 6))]
            target = constraint(*rng.sample(universe, rng.randint(0, 3)))
            if not in_span(target, gens):
                continue
            for _ in range(10):
                values = {v: rng.randint(0, 1) for v in variables}
                if all(gen.evaluate_bool(values) == 0 for gen in gens):
                    assert target.evaluate_bool(values) == 0


def span_of(rows):
    """Every XOR of a subset of rows, the empty subset included."""
    span = {0}
    for row in rows:
        span |= {x ^ row for x in span}
    return span


class TestMaskBasis:
    def test_backend_name(self):
        # stats JSON and benchmark metadata record this name
        assert hckernel.GF2_BACKEND == "pure"

    def test_insert_contains_rank(self):
        basis = MaskBasis()
        assert basis.insert(0b1010)
        assert basis.insert(0b0110)
        assert not basis.insert(0b1100)  # xor of the first two
        assert basis.contains(0b1100)
        assert not basis.contains(0b0001)
        assert not basis.insert(0)
        assert basis.contains(0)
        assert basis.rank == 2

    def test_multiword_rows(self):
        basis = MaskBasis()
        r1 = (1 << 199) | (1 << 64) | 1
        r2 = (1 << 199) | (1 << 63)
        assert basis.insert(r1)
        assert basis.insert(r2)
        assert basis.contains(r1 ^ r2)
        assert not basis.contains(1 << 128)
        # r2 reduces against r1 (shared leading bit), leaving r1 ^ r2;
        # rows come highest pivot first
        assert basis.rows() == [r1, r1 ^ r2]

    def test_accepts_rows_of_any_width(self):
        basis = MaskBasis()
        assert basis.insert(1 << 700)
        assert basis.contains(1 << 700)
        assert not basis.contains(1 << 699)

    def test_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(200):
            ncols = rng.choice([7, 64, 65, 130])
            rows = []
            for _ in range(rng.randint(0, 10)):
                # a third of the rows are dependent by construction, so wide
                # rows also exercise the reduction to zero
                if rows and rng.random() < 1 / 3:
                    rows.append(reduce(xor, rng.sample(rows, rng.randint(1, len(rows)))))
                else:
                    rows.append(rng.getrandbits(ncols))
            basis = MaskBasis()
            for i, row in enumerate(rows):
                assert basis.insert(row) == (row not in span_of(rows[:i]))
            span = span_of(rows)
            assert len(span) == 2 ** basis.rank
            # random probes, which mostly miss at 64+ columns, and subset
            # XORs, which always hit
            probes = [rng.getrandbits(ncols) for _ in range(6)]
            probes += [reduce(xor, rng.sample(rows, rng.randint(0, len(rows))), 0)
                       for _ in range(3)]
            for probe in probes:
                assert basis.contains(probe) == (probe in span)
            stored = basis.rows()
            pivots = [row.bit_length() for row in stored]
            assert len(stored) == basis.rank
            assert pivots == sorted(set(pivots), reverse=True)
            assert span_of(stored) == span
