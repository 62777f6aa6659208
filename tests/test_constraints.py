"""Coloring polynomial semantics and the per-class constraint families."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hckernel.constraints import (
    build_coloring_polynomial,
    class_row_count,
    closed_form_basis,
    constraint_count_bound,
    evaluate,
    iter_class_constraint_keys,
    monomial_size,
)
from hckernel.formats import NAMED_PATTERNS, resolve_pattern
from hckernel.gf2 import MaskBasis
from hckernel.graphs import Graph, PatternGraph, twin_decomposition
from hckernel.kernelization import KernelStats, _SpanEngine, kernelize

from helpers import (
    enumerate_h_colorings,
    random_graph,
    reference_class_constraint_keys,
    reference_template,
    row_count,
    template_rows,
)


def clique(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


K3 = PatternGraph(clique(3))
K4 = PatternGraph(clique(4))
C5 = PatternGraph(cycle(5))


def mono(*pairs):
    return tuple(sorted(pairs))


def class_rows(g, h, cls):
    """The rows of one twin class of g, as tuples of monomial keys. A
    kind-Q row is one monomial, a kind-P row (Delta+1)! of them."""
    nbhd = tuple(sorted(g.neighborhood_of_set(cls)))
    return list(iter_class_constraint_keys(h, len(cls), nbhd))


def all_partial_choice_assignments(rows, colors):
    """Every map that gives each row at most one color."""
    options = [(None, *colors)] * len(rows)
    for combo in itertools.product(*options):
        yield {r: c for r, c in zip(rows, combo) if c is not None}


class TestColoringPolynomial:
    def test_q3_monomials_match_expected_display(self):
        p = build_coloring_polynomial(3)
        expected = {
            mono((1, 1), (2, 2)),
            mono((1, 1), (3, 2)),
            mono((2, 1), (1, 2)),
            mono((2, 1), (3, 2)),
            mono((3, 1), (1, 2)),
            mono((3, 1), (2, 2)),
        }
        assert p == tuple(sorted(expected))
        assert max(map(len, p)) == 2

    def test_q1_constant(self):
        p = build_coloring_polynomial(1)
        assert p == ((),)
        assert evaluate(p, {}) == 1

    def test_q2_two_linear_monomials(self):
        # ordered selections of 1 distinct row out of 2, paired with column 1
        p = build_coloring_polynomial(2)
        assert p == (mono((1, 1)), mono((2, 1)))
        assert max(map(len, p)) == 1

    def test_monomial_count_is_q_factorial(self):
        for q in range(1, 6):
            assert len(build_coloring_polynomial(q)) == math.factorial(q)

    def test_last_column_never_occurs(self):
        # kind-P rows are indexed by Delta colors because of this
        for q in range(1, 6):
            p = build_coloring_polynomial(q)
            assert {k for key in p for _i, k in key} == set(range(1, q)), q

    def test_rejects_q0(self):
        with pytest.raises(ValueError):
            build_coloring_polynomial(0)

    def test_three_reference_evaluations(self):
        p = build_coloring_polynomial(3)
        assert evaluate(p, {1: 1, 2: 2, 3: 3}) == 1
        assert evaluate(p, {1: 1, 2: 2, 3: 2}) == 0
        assert evaluate(p, {1: 1, 2: 2}) == 1

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_iff_characterization_exhaustive(self, q):
        p = build_coloring_polynomial(q)
        rows = list(range(1, q + 1))
        colors = list(range(1, q + 1))
        for chosen in all_partial_choice_assignments(rows, colors):
            no_repeat = all(
                sum(1 for r in rows if chosen.get(r) == k) <= 1 for k in colors)
            covers = all(
                any(chosen.get(r) == k for r in rows) for k in range(1, q))
            want = 1 if (no_repeat and covers) else 0
            assert evaluate(p, chosen) == want


class TestClassConstraints:
    def test_isolated_class_has_no_constraints(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert class_rows(g, K3, {0, 1}) == []

    def test_single_neighbor_no_type_q_for_singleton(self):
        # common neighborhood of any single color in a triangle is an edge,
        # whose clique number 2 is not below a class size of 1
        g = Graph.from_edges(2, [(0, 1)])
        rows = class_rows(g, K3, {0})
        assert [row for row in rows if len(row) == 1] == []

    def test_type_q_added_for_large_class(self):
        # a size-3 class forces every single-colored neighbour constraint:
        # no color's neighborhood contains a triangle
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        q_rows = [row for row in class_rows(g, K3, {1, 2, 3})
                  if len(row) == 1 and len(row[0]) == 1]
        assert q_rows == [(mono((0, c)),) for c in K3.color_ids]

    def test_star_center_single_type_p(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        pi = twin_decomposition(g)
        by_owner = {cls: class_rows(g, K3, cls) for cls in pi}
        center = by_owner[frozenset({0})]
        assert len(center) == 1
        assert len(center[0]) == math.factorial(K3.max_degree + 1)
        for leaf in ({1}, {2}, {3}):
            assert len(by_owner[frozenset(leaf)]) == 0

    def test_edgeless_graph_empty(self):
        g = Graph.from_edges(4, [])
        assert all(len(class_rows(g, K3, cls)) == 0
                   for cls in twin_decomposition(g))

    def test_single_edge_twins_no_constraints(self):
        g = Graph.from_edges(2, [(0, 1)])
        classes = twin_decomposition(g)
        assert len(classes) == 1 and len(class_rows(g, K3, classes[0])) == 0

    def test_degree_bound(self):
        rng = random.Random(21)
        for h in (K3, K4, C5):
            for _ in range(15):
                g = random_graph(rng.randint(2, 7), 0.5, rng)
                for cls in twin_decomposition(g):
                    for keys in class_rows(g, h, cls):
                        assert all(len(key) <= h.max_degree for key in keys)

    def test_constraints_only_mention_open_neighborhood(self):
        rng = random.Random(22)
        for _ in range(15):
            g = random_graph(rng.randint(3, 7), 0.5, rng)
            pi = twin_decomposition(g)
            for cls in pi:
                nbhd = g.neighborhood_of_set(cls)
                for keys in class_rows(g, K3, cls):
                    for key in keys:
                        assert {v for v, _c in key} <= nbhd

    def test_count_bound(self):
        rng = random.Random(23)
        for h in (K3, K4):
            for _ in range(10):
                g = random_graph(rng.randint(2, 7), 0.6, rng)
                total = sum(len(class_rows(g, h, cls))
                            for cls in twin_decomposition(g))
                assert total <= constraint_count_bound(g.n, h)


def indicator_of(coloring):
    return dict(coloring)


class TestColoringsSatisfyConstraints:
    @pytest.mark.parametrize("h", [K3, K4, C5], ids=["K3", "K4", "C5"])
    def test_proper_colorings_satisfy_everything(self, h):
        rng = random.Random(31)
        graphs = [random_graph(rng.randint(2, 6), rng.choice([0.3, 0.6]), rng)
                  for _ in range(6)]
        graphs.append(Graph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)]))
        for g in graphs:
            rows = [keys for cls in twin_decomposition(g)
                    for keys in class_rows(g, h, cls)]
            for coloring in itertools.islice(enumerate_h_colorings(g, h.graph), 200):
                assign = indicator_of(coloring)
                for keys in rows:
                    assert evaluate(keys, assign) == 0

    def test_satisfying_partial_colorings_extend(self):
        # any proper coloring of the rest that satisfies one class's rows
        # extends to the whole graph
        def extends(g, h, cls, coloring):
            cls = sorted(cls)
            for combo in itertools.product(h.graph.vertices, repeat=len(cls)):
                full = dict(coloring)
                full.update(zip(cls, combo))
                if all(full[v] in h.graph.adj[full[u]] for u in cls for v in g.adj[u]):
                    return True
            return False

        rng = random.Random(32)
        for h in (K3, C5):
            for _ in range(8):
                g = random_graph(rng.randint(2, 6), rng.choice([0.4, 0.7]), rng)
                pi = twin_decomposition(g)
                for cls in pi:
                    rows = class_rows(g, h, cls)
                    rest = g.without_vertices(cls)
                    for coloring in itertools.islice(
                            enumerate_h_colorings(rest, h.graph), 120):
                        assign = indicator_of(coloring)
                        if any(evaluate(keys, assign) != 0 for keys in rows):
                            continue
                        assert extends(g, h, cls, coloring), \
                            (list(g.edges()), sorted(cls), coloring)


ROW_PATTERNS = ("K3", "K4", "K5", "C5", "C7", "petersen")
ROW_TARGETS = {name: resolve_pattern(name) for name in ROW_PATTERNS}


def row_cases(h):
    """Class sizes 1..omega+2 and neighborhood sizes 0..Delta+3."""
    for size in range(1, h.clique_number + 3):
        for m in range(h.max_degree + 4):
            yield size, m


def reference_rows(h, size, nbhd):
    """The reference's rows in order, each at its first occurrence."""
    return list(dict.fromkeys(keys for *_, keys in reference_class_constraint_keys(h, size, nbhd)))


class TestRowPieces:
    """The relabelled per-pattern pieces yield exactly the distinct rows
    that deriving every row afresh yields, in the same order."""

    @pytest.mark.parametrize("name", ROW_PATTERNS)
    def test_generator_matches_reference(self, name):
        h = resolve_pattern(name)
        rng = random.Random(41)
        for size, m in row_cases(h):
            nbhd = tuple(sorted(rng.sample(range(60), m)))
            assert list(iter_class_constraint_keys(h, size, nbhd)) == \
                reference_rows(h, size, nbhd), (size, nbhd)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(ROW_PATTERNS).flatmap(lambda name: st.tuples(
        st.just(name),
        st.integers(1, ROW_TARGETS[name].clique_number + 2),
        st.lists(st.integers(0, 40), unique=True,
                 max_size=ROW_TARGETS[name].max_degree + 3))))
    def test_generator_matches_reference_property(self, case):
        # the targets are shared across examples, so the memos fill up in
        # arbitrary order
        name, size, ids = case
        h = ROW_TARGETS[name]
        nbhd = tuple(sorted(ids))
        assert list(iter_class_constraint_keys(h, size, nbhd)) == \
            reference_rows(h, size, nbhd)

    @pytest.mark.parametrize("name", ROW_PATTERNS)
    def test_estimate_is_exact_row_count(self, name):
        # the pair ranking orders classes by this estimate; the reference
        # counts its distinct rows without the generator it sizes
        h = resolve_pattern(name)
        engine = _SpanEngine(h, KernelStats())
        for size, m in row_cases(h):
            distinct = {keys for *_, keys in reference_class_constraint_keys(h, size, tuple(range(m)))}
            assert engine.estimate_rows(size, m) == class_row_count(h, size, m) == \
                row_count(h, size, frozenset(range(m))) == len(distinct), (size, m)

    @pytest.mark.parametrize("name", ROW_PATTERNS)
    def test_largest_monomial_vertex_sets(self, name):
        # the span test's neighborhood certificate tries only the subsets
        # of this size; every smaller vertex set lies in one of them
        h = resolve_pattern(name)
        for size, m in row_cases(h):
            nbhd = tuple(range(m))
            sets = {frozenset(v for v, _c in key)
                    for keys in iter_class_constraint_keys(h, size, nbhd)
                    for key in keys}
            k = monomial_size(h, size, m)
            assert k == max(map(len, sets), default=0), (size, m)
            if sets:
                assert {t for t in sets if len(t) == k} == \
                    set(map(frozenset, itertools.combinations(nbhd, k))), (size, m)


def basis_of(rows):
    basis = MaskBasis()
    for mask in rows:
        basis.insert(mask)
    return basis


class TestTemplates:
    """A span test reads only a family's template rows. Spanning less than
    the family would make the target side accept tests it should refuse,
    and spanning more is impossible for rows of the family."""

    @pytest.mark.parametrize("name", ROW_PATTERNS)
    def test_template_spans_family(self, name):
        h = ROW_TARGETS[name]
        rng = random.Random(47)
        for size, m in row_cases(h):
            nbhd = frozenset(rng.sample(range(60), m))
            engine = _SpanEngine(h, KernelStats())
            template = engine.class_rows(size, nbhd)
            ids = engine.interner
            family = [sum(1 << ids[mk] for mk in keys)
                      for keys in iter_class_constraint_keys(h, size, tuple(sorted(nbhd)))]
            assert set(template) <= set(family), (size, m)
            basis = basis_of(template)
            assert all(basis.contains(mask) for mask in family), (size, m)
            assert len(template) == basis.rank == basis_of(family).rank, (size, m)
            if template:
                # the check has teeth: a template one row short misses a
                # row of the family
                assert not basis_of(template[:-1]).contains(template[-1]), (size, m)

    @pytest.mark.parametrize("name", ["K3", "K4", "K5"])
    def test_clique_template_has_paper_dimension(self, name):
        # a singleton class's family for K_q has rank C(s-1, q-1): the
        # degree-(q-1) dimension behind the O(k**(q-1)) kernel bound
        h = ROW_TARGETS[name]
        q = h.num_colors
        engine = _SpanEngine(h, KernelStats())
        for s in range(1, 11):
            assert len(engine.class_rows(1, frozenset(range(s)))) == math.comb(s - 1, q - 1), s


class TestClosedFormTemplates:
    """K_q singletons and unit-row families get their template without
    elimination; it must be the basis greedy elimination would keep, or
    one that spans the family with independent rows."""

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_boundary_identity(self, q):
        # over {0..q} the rows of the q-subsets sum to 0: every monomial
        # lies in exactly two of them
        h = resolve_pattern(f"K{q}")
        rows = list(iter_class_constraint_keys(h, 1, tuple(range(q + 1))))
        assert len(rows) == q + 1
        counts = Counter(key for keys in rows for key in keys)
        assert counts and set(counts.values()) == {2}

    @pytest.mark.parametrize("name", ["K3", "K4", "K5", "K6"])
    def test_cone_is_the_greedy_template(self, name):
        h = resolve_pattern(name)
        for s in range(13):
            cone = template_rows(h, 1, s)
            assert cone == reference_template(h, 1, s), s
            assert len(cone) == math.comb(max(s - 1, 0), h.max_degree), s
            assert all(0 in {v for key in keys for v, _c in key} for keys in cone), s

    @pytest.mark.parametrize("name", sorted(NAMED_PATTERNS))
    def test_unit_row_condition(self, name):
        h = resolve_pattern(name)
        d = h.max_degree
        nbhd = tuple(range(d + 1))
        # the kind-P rows come first, one per selector template
        kind_p = list(itertools.islice(iter_class_constraint_keys(h, 1, nbhd),
                                       math.comb(h.num_colors - 1, d)))
        palettes = {frozenset(c for _v, c in key) for keys in kind_p for key in keys}
        complete = h.clique_number == h.num_colors
        for size in range(1, h.clique_number + 3):
            basis = closed_form_basis(h, size, nbhd)
            # singletons of a complete target get the cone, tested above;
            # every other named family with a closed form is unit-row
            assert (basis is None) == (size == 1 and not complete), size
            if size == 1:
                continue
            # no kind-P monomial's palette leaves room for the class clique,
            # so each is a kind-Q row
            assert all(h.omega_of(h.common_neighborhood(p)) < size for p in palettes), size
            if h.num_colors ** d <= 1000:
                # small enough to check against the whole family
                rows = list(iter_class_constraint_keys(h, size, nbhd))
                unit = [keys for keys in rows if len(keys) == 1]
                assert list(basis) == unit, size
                assert {key for keys in rows for key in keys} == {keys[0] for keys in unit}, size

    @pytest.mark.parametrize("name", ["C5", "C7", "petersen"])
    def test_singletons_without_closed_form_need_elimination(self, name):
        # some kind-P monomial of a singleton is no kind-Q row, so the
        # kind-Q rows do not span the family
        h = ROW_TARGETS[name]
        nbhd = tuple(range(h.max_degree + 1))
        rows = list(iter_class_constraint_keys(h, 1, nbhd))
        unit = {keys[0] for keys in rows if len(keys) == 1}
        assert closed_form_basis(h, 1, nbhd) is None
        assert not {key for keys in rows for key in keys} <= unit


class TestRowPieceMemo:
    """The pieces live on the pattern, are built only when a neighborhood
    needs them and stay bounded."""

    @pytest.mark.parametrize("name", ["K3", "C5", "K9", "petersen"])
    def test_nothing_built_up_front(self, name):
        h = resolve_pattern(name)
        assert h._selector_memo is None and h._sequence_memo == {}
        assert h._template_memo == {}
        kernelize(Graph.from_edges(4, []), h)
        assert h._selector_memo is None and h._sequence_memo == {}
        assert h._template_memo == {}

    def test_k9_class_with_eight_neighbors_builds_no_selector_template(self):
        # a kind-P row needs Delta+1 = 9 neighbors; kind-P rows come first,
        # so the first row is kind Q once no template was needed
        h = resolve_pattern("K9")
        rows = iter_class_constraint_keys(h, 9, tuple(range(8)))
        assert next(rows) == (((0, 0),),)
        assert h._selector_memo is None
        assert list(h._sequence_memo) == [9]
        assert len(h._sequence_memo[9]) == 1

    def test_memo_bounded_after_many_hosts(self):
        rng = random.Random(43)
        for name in ("K3", "K4", "C5"):
            h = resolve_pattern(name)
            for _ in range(40):
                kernelize(random_graph(rng.randint(6, 10), 0.5, rng), h)
            assert 1 <= len(h._sequence_memo) <= h.clique_number + 1
            assert all(len(lists) <= h.max_degree for lists in h._sequence_memo.values())
            assert len(h._selector_memo) == math.comb(h.num_colors - 1, h.max_degree)
            # one template per capped class size and neighborhood size
            assert all(size <= h.clique_number + 1 and s <= 9 for size, s in h._template_memo)
