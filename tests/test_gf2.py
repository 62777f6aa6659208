"""GF(2) span membership and mask elimination over monomial-key rows."""

import itertools
import random
from functools import reduce
from operator import or_, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hckernel
from hckernel.constraints import evaluate
from hckernel.gf2 import MaskBasis, MonomialInterner, in_span

from helpers import basis_rows, monomial_count_bound


def mono(*pairs):
    """A monomial key: the sorted, duplicate-free (vertex, color) pairs."""
    return tuple(sorted(set(pairs)))


def constraint(*monomials):
    """A row: the tuple of its monomial keys."""
    return monomials


X1 = mono((1, 1))
X2 = mono((2, 1))
X12 = mono((1, 1), (2, 1))


def mask(ids, row):
    """Bitmask of a row; indexing ``ids`` interns an unseen key."""
    return reduce(or_, (1 << ids[key] for key in row), 0)


def decode(keys, row_mask):
    """The monomial keys of a bitmask row, given the keys by index."""
    return tuple(keys[i] for i in range(row_mask.bit_length()) if row_mask >> i & 1)


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
    """Key rows interned into one ``MonomialInterner`` and reduced by one
    ``MaskBasis``: the pair a caller holds to test many rows against the
    same generators."""

    def test_accepts_independent(self):
        ids, basis = MonomialInterner(), MaskBasis()
        assert basis.insert(mask(ids, constraint(X1))) is True
        assert basis.rank == 1

    def test_rejects_sum_of_rows(self):
        ids, basis = MonomialInterner(), MaskBasis()
        basis.insert(mask(ids, constraint(X1)))
        basis.insert(mask(ids, constraint(X2)))
        # monomial-set symmetric difference of the two rows
        assert basis.insert(mask(ids, constraint(X1, X2))) is False
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
        ids, basis = MonomialInterner(), MaskBasis()
        basis.insert(mask(ids, constraint(X1)))
        basis.insert(mask(ids, constraint(X2)))
        assert basis.insert(mask(ids, constraint(X12))) is True

    def test_reinsert_rejected(self):
        rng = random.Random(3)
        ids, basis = MonomialInterner(), MaskBasis()
        accepted = []
        universe = [mono((v, c)) for v in range(3) for c in range(2)]
        for _ in range(20):
            c = constraint(*rng.sample(universe, rng.randint(1, 4)))
            if basis.insert(mask(ids, c)):
                accepted.append(c)
        for c in accepted:
            assert basis.insert(mask(ids, c)) is False

    def test_rank_bounded_by_key_count(self):
        rng = random.Random(4)
        universe = [mono((v, c)) for v in range(4) for c in range(2)]
        interner, basis = MonomialInterner(), MaskBasis()
        seen = set()
        for _ in range(60):
            monos = rng.sample(universe, rng.randint(1, 5))
            seen.update(monos)
            basis.insert(mask(interner, constraint(*monos)))
            assert len(interner) == len(seen)
            assert basis.rank <= len(seen)
            assert basis.rank <= monomial_count_bound(8, 1)

    def test_rows_are_echelon(self):
        rng = random.Random(5)
        universe = [mono((v, c)) for v in range(4) for c in range(3)]
        interner, basis = MonomialInterner(), MaskBasis()
        for _ in range(40):
            basis.insert(mask(interner, constraint(*rng.sample(universe, rng.randint(1, 6)))))
        keys = list(interner)   # the keys by index
        rows = [decode(keys, row) for row in basis_rows(basis)]
        assert len(rows) == basis.rank
        # distinct leading monomials under the interning order is what
        # MaskBasis guarantees; verify the decoded rows are pairwise
        # independent
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
                        acc ^= frozenset(gen)
                if acc == frozenset(target):
                    brute = True
                    break
            assert in_span(target, gens) == brute

    def test_span_soundness(self):
        # whenever the target is in the span and every generator vanishes
        # mod 2 under an assignment, the target vanishes too
        rng = random.Random(7)
        universe = [mono((v, 0)) for v in range(5)]
        variables = range(5)
        for _ in range(200):
            gens = [constraint(*rng.sample(universe, rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 6))]
            target = constraint(*rng.sample(universe, rng.randint(0, 3)))
            if not in_span(target, gens):
                continue
            for _ in range(10):
                values = {v: rng.randint(0, 1) for v in variables}
                # every variable has color 0: indicator 1 iff v is chosen
                chosen = {v: 0 for v, bit in values.items() if bit}
                if all(evaluate(gen, chosen) == 0 for gen in gens):
                    assert evaluate(target, chosen) == 0


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
        assert basis_rows(basis) == [r1, r1 ^ r2]

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
            stored = basis_rows(basis)
            pivots = [row.bit_length() for row in stored]
            assert len(stored) == basis.rank
            assert pivots == sorted(set(pivots), reverse=True)
            assert span_of(stored) == span


def spread(small, stride):
    """Bit i of ``small`` moved to bit i * stride, so a stride over 64
    puts every bit in a word of its own."""
    return sum(1 << (i * stride) for i in range(small.bit_length()) if small >> i & 1)


def free_steps(width):
    """Up to ``width`` rows inserted first, so that later steps meet a full
    basis, then steps that insert a row, add a unit mask, free the leading
    bit of a stored row (the number picks the row) or probe."""
    rows = st.lists(st.integers(1, (1 << width) - 1), max_size=width)
    steps = st.lists(st.tuples(st.sampled_from(["insert", "units", "lead", "contains"]),
                               st.integers(0, (1 << width) - 1)), max_size=16)
    return st.tuples(rows, steps).map(lambda p: [("insert", r) for r in p[0]] + p[1])


# (width, stride, steps)
FREE_CASES = st.tuples(st.integers(1, 6), st.sampled_from([1, 40])).flatmap(
    lambda ws: st.tuples(st.just(ws[0]), st.just(ws[1]), free_steps(ws[0])))


class TestFreeMonomials:
    """``insert_units`` makes a mask's bits free monomials. A plain basis
    that gets each unit bit as a one-bit row must give the same rank and
    every answer after every step."""

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(FREE_CASES)
    def test_matches_one_row_per_unit(self, case):
        width, stride, steps = case
        free, plain = MaskBasis(), MaskBasis()
        for op, small in steps:
            mask = spread(small, stride)
            if op == "lead":
                stored = basis_rows(free)
                if not stored:
                    continue
                op, mask = "units", 1 << stored[small % len(stored)].bit_length() - 1
            if op == "insert":
                assert free.insert(mask) == plain.insert(mask)
            elif op == "units":
                free.insert_units(mask)
                for i in range(width):
                    plain.insert(mask & 1 << i * stride)
            else:
                assert free.contains(mask) == plain.contains(mask)
            assert free.rank == plain.rank
            assert all(free.contains(spread(x, stride)) == plain.contains(spread(x, stride))
                       for x in range(1 << width))
            # stored rows stay off the free set, on distinct pivots
            stored = basis_rows(free)
            assert not any(row & free.free for row in stored)
            assert len({row.bit_length() for row in stored}) == len(stored)

    def test_leading_bit_freed(self):
        # the stored row 0b1100 has its leading bit freed; projected to
        # 0b0100 it lands on the pivot of 0b0110 and reduces to 0b0010
        basis = MaskBasis()
        basis.insert(0b1100)
        basis.insert(0b1010)
        basis.insert_units(0b1000)
        assert basis.rank == 3 and basis.free == 0b1000
        assert basis.contains(0b0010) and basis.contains(0b1110)
        assert not basis.contains(0b0001)
        assert basis_rows(basis) == [0b0110, 0b0010]

    def test_units_already_in_span_do_not_raise_rank(self):
        basis = MaskBasis()
        basis.insert(0b0100)
        basis.insert_units(0b0110)
        assert basis.rank == 2 and basis_rows(basis) == []
        basis.insert_units(0b0110)
        assert basis.rank == 2
