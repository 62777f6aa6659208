"""Reduction rules, the fixpoint driver, and the kernel size bound."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hckernel.constraints import iter_class_constraint_keys
from hckernel.formats import parse_graph
from hckernel.gf2 import MaskBasis, MonomialInterner, in_span
from hckernel.graphs import (
    Graph,
    PatternError,
    PatternGraph,
    is_twin_cover,
    min_twin_cover,
    twin_decomposition,
)
from hckernel.kernelization import (
    KernelStats,
    _SpanEngine,
    _TwinClasses,
    kernel_size_bound,
    kernelize,
)

from helpers import (
    brute_h_colorable,
    brute_min_twin_cover_size,
    edges_between,
    is_subgraph,
    petersen_edges,
    random_graph,
    reference_kernelize,
    replay,
    run_summary,
)


def clique(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint(*graphs):
    offset = 0
    edges = []
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph.from_edges(offset, edges)


K3 = PatternGraph(clique(3))
K4 = PatternGraph(clique(4))
C5 = PatternGraph(cycle(5))
PATTERNS = {"K3": K3, "K4": K4, "C5": C5}


class TestRule1:
    def test_k4_vs_k3(self):
        res = kernelize(clique(4), K3)
        assert res.trivial_no and res.graph is None
        assert res.history == (("rule1", frozenset(range(4)), frozenset()),)

    def test_k3_vs_k3(self):
        res = kernelize(clique(3), K3)
        assert not res.trivial_no and res.stats.rule1 == 0

    def test_c5_vs_c5(self):
        g = cycle(5)
        assert all(len(cls) == 1 for cls in twin_decomposition(g))
        res = kernelize(g, C5)
        assert not res.trivial_no and res.stats.rule1 == 0


def span_engine_test(g, h, p1, p2):
    """Run one span test on a fresh engine; (answer, engine)."""
    pi = twin_decomposition(g)
    engine = _SpanEngine(h, KernelStats())
    tc = _TwinClasses(g, pi, h)
    return engine.span_test(tc, min(p1), min(p2)), engine


def joined_pairs(g):
    """Ordered pairs of distinct twin classes of g joined by an edge."""
    pi = twin_decomposition(g)
    return [(p1, p2) for p1 in pi for p2 in pi
            if p1 != p2 and edges_between(g, p1, p2)]


class TestRule2:
    def test_requires_distinct_classes(self):
        # the driver tests each ordered pair of distinct joined classes
        rng = random.Random(40)
        for _ in range(30):
            g = random_graph(rng.randint(2, 9), rng.choice([0.3, 0.6, 0.9]), rng)
            tc = _TwinClasses(g, twin_decomposition(g), K3)
            got = list(tc.pairs())
            assert len(got) == len(set(got))
            assert set(got) == {(min(p1), min(p2)) for p1, p2 in joined_pairs(g)}

    def test_no_edges_between_pair_is_inadmissible(self):
        g = disjoint(clique(2), clique(2))
        tc = _TwinClasses(g, twin_decomposition(g), K3)
        assert list(tc.pairs()) == []
        res = kernelize(g, K3)
        assert res.stats.span_tests == 0 and res.stats.rule3 == 2

    def test_single_edge_has_no_candidate_pair(self):
        # both endpoints are twins, so the decomposition has one class and
        # no ordered pair exists for the rule to consider
        g = clique(2)
        pi = twin_decomposition(g)
        assert len(pi) == 1
        res = kernelize(g, K3)
        assert res.stats.span_tests == 0 and res.graph.n == 0

    def test_result_preserves_colorability_when_applied(self):
        # whether the rule fires is decided by the span test, and deleting
        # the edges of any pair it passes must preserve colorability
        # (checked by brute force)
        rng = random.Random(41)
        fired = 0
        for _ in range(60):
            g = random_graph(rng.randint(3, 7), rng.choice([0.4, 0.6, 0.8]), rng)
            for h in (K3, C5):
                for p1, p2 in joined_pairs(g):
                    if not span_engine_test(g, h, p1, p2)[0]:
                        continue
                    fired += 1
                    got = g.without_edges(edges_between(g, p1, p2))
                    assert brute_h_colorable(g, h.graph) == \
                        brute_h_colorable(got, h.graph)
        assert fired > 0


@st.composite
def small_graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    return random_graph(n, density, draw(st.randoms(use_true_random=False)))


def class_key_rows(g, h, cls):
    nbhd = tuple(sorted(g.neighborhood_of_set(cls)))
    return list(iter_class_constraint_keys(h, len(cls), nbhd))


def oracle_rows(g, h, pi, p1, p2, rows=None):
    """Rule 2's (targets, generators) as monomial-key rows: the rows of p1,
    and the rows of all of pi's classes in the graph without E(p1, p2).
    ``rows`` may hold each class's rows in g; only p1 and p2 have other
    rows once the edges are gone."""
    if rows is None:
        rows = {cls: class_key_rows(g, h, cls) for cls in pi}
    reduced = g.without_edges(edges_between(g, p1, p2))
    gens = [keys for cls in pi
            for keys in (class_key_rows(reduced, h, cls) if cls in (p1, p2) else rows[cls])]
    return rows[p1], gens


def oracle_rule2(g, h, pi, p1, p2, rows=None) -> bool:
    """Every target in the span of the generators. This is ``in_span`` per
    target with the interner and basis built once per pair: a basis per
    target is too slow for the property test."""
    targets, gens = oracle_rows(g, h, pi, p1, p2, rows)
    ids = MonomialInterner()
    basis = MaskBasis()
    for keys in gens:
        basis.insert(sum(1 << ids[key] for key in keys))
    # a target key no generator has makes its mask miss the basis
    return all(basis.contains(sum(1 << ids[key] for key in keys)) for keys in targets)


class TestSpanOracle:
    """The mask engine's rule 2 answer against rows taken straight from the
    generator and eliminated on their own interner and basis, which share
    neither the engine's masks nor its interner."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(small_graphs(max_n=9), st.sampled_from(sorted(PATTERNS)))
    def test_every_adjacent_pair(self, g, name):
        h = PATTERNS[name]
        pi = twin_decomposition(g)
        rows = {cls: class_key_rows(g, h, cls) for cls in pi}
        for p1, p2 in joined_pairs(g):
            assert span_engine_test(g, h, p1, p2)[0] == \
                oracle_rule2(g, h, pi, p1, p2, rows), (sorted(p1), sorted(p2))

    def test_refuted_from_neighborhoods(self):
        # star: the row of the centre has the monomial on leaves {0, 1},
        # and no class but the centre's is adjacent to leaf 0
        g = Graph.from_edges(4, [(3, 0), (3, 1), (3, 2)])
        pi = twin_decomposition(g)
        p1, p2 = frozenset({3}), frozenset({0})
        got, engine = span_engine_test(g, K3, p1, p2)
        assert not got
        assert (engine.stats.span_tests, engine.stats.span_refuted) == (1, 1)
        # refuted from the neighborhoods alone: no row family was built
        assert engine._rows == {}
        assert engine.stats.max_basis_rank == 0
        assert engine.stats.rows_considered == 0   # every source has an empty family
        targets, gens = oracle_rows(g, K3, pi, p1, p2)
        assert not all(in_span(t, gens) for t in targets)

    def test_fails_only_through_elimination(self):
        # K4 on 0..3 plus vertex 4 on 0: class {1, 2, 3} has the rows
        # x[0] = c, which class {4} covers by neighborhood but not by rows
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)])
        pi = twin_decomposition(g)
        p1, p2 = frozenset({1, 2, 3}), frozenset({0})
        got, engine = span_engine_test(g, K3, p1, p2)
        assert not got
        assert (engine.stats.span_tests, engine.stats.span_refuted) == (1, 0)
        # the sources were built, since the test was not refuted
        assert len(engine._rows) == 4
        targets, gens = oracle_rows(g, K3, pi, p1, p2)
        assert not all(in_span(t, gens) for t in targets)

    def test_refutation_counts_like_full_test(self):
        # a refuted test adds the rows a full failing test would consider
        g = Graph.from_edges(10, petersen_edges())
        res = kernelize(g, K3)
        want = reference_kernelize(g, K3)
        assert res.stats.span_refuted == res.stats.span_tests == 30
        assert res.stats.max_basis_rank == 0
        assert run_summary(res) == run_summary(want)


class TestRule3:
    def test_removes_isolated_triangle(self):
        res = kernelize(disjoint(clique(3), cycle(5)), K3)
        assert res.history[0] == ("rule3", frozenset({0, 1, 2}), frozenset())

    def test_oversized_isolated_clique_left_for_rule1(self):
        res = kernelize(disjoint(clique(4), cycle(5)), K3)
        assert res.trivial_no and res.stats.rule3 == 0
        assert [rule for rule, _p1, _p2 in res.history] == ["rule1"]

    def test_removes_isolated_vertex(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)])
        res = kernelize(g, K3)
        assert res.history[0] == ("rule3", frozenset({5}), frozenset())
        assert 5 not in res.graph.vertices


class TestKernelize:
    def test_five_triangles_reduce_to_nothing(self):
        g = disjoint(*[clique(3)] * 5)
        res = kernelize(g, K3)
        assert not res.trivial_no
        assert res.graph.n == 0
        assert res.stats.rule3 == 5

    def test_k4_plus_c5_is_trivial_no(self):
        res = kernelize(disjoint(clique(4), cycle(5)), K3)
        assert res.trivial_no
        assert res.graph is None
        assert res.stats.rule1 == 1

    def test_empty_graph(self):
        res = kernelize(Graph.from_edges(0, []), K3)
        assert not res.trivial_no and res.graph.n == 0
        assert res.stats.passes == 1

    def test_random_graphs_keep_colorability(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_graph(10, rng.choice([0.3, 0.5, 0.7]), rng)
            for h in PATTERNS.values():
                res = kernelize(g, h)
                want = brute_h_colorable(g, h.graph)
                if res.trivial_no:
                    got = False
                else:
                    got = brute_h_colorable(res.graph, h.graph)
                    assert is_subgraph(res.graph, g)
                assert got == want

    def test_history_replays_to_kernel(self):
        # every call logs its applications; replaying them gives the kernel
        rng = random.Random(43)
        for _ in range(25):
            g = random_graph(10, rng.choice([0.3, 0.5, 0.7]), rng)
            g = Graph(g.vertices, g.adj, {v: f"x{v}" for v in g.vertices if v % 3})
            for h in PATTERNS.values():
                res = kernelize(g, h)
                assert res.history
                if not res.trivial_no:
                    last = replay(g, res.history)[-1]
                    assert (last, last.labels) == (res.graph, res.graph.labels)

    def test_idempotent(self):
        rng = random.Random(44)
        for _ in range(15):
            g = random_graph(rng.randint(3, 9), rng.choice([0.3, 0.6]), rng)
            for h in (K3, C5):
                res = kernelize(g, h)
                if res.trivial_no:
                    continue
                again = kernelize(res.graph, h)
                assert not again.trivial_no
                assert again.graph == res.graph

    def test_history_and_stats(self):
        g = disjoint(*[clique(3)] * 3)
        res = kernelize(g, K3)
        assert res.history == tuple(("rule3", frozenset(range(i, i + 3)), frozenset())
                                    for i in (0, 3, 6))
        assert [(step.n, step.m) for step in replay(g, res.history)] == [(6, 6), (3, 3), (0, 0)]
        d = res.stats.to_dict()
        assert d["input"] == {"n": 9, "m": 9}
        assert d["kernel"] == {"n": 0, "m": 0}
        assert d["rules"]["rule3"] == 3

    def test_twin_cover_never_grows_along_history(self):
        rng = random.Random(45)
        for _ in range(12):
            g = random_graph(rng.randint(4, 9), rng.choice([0.4, 0.6]), rng)
            for h in (K3, K4):
                res = kernelize(g, h)
                sizes = [len(min_twin_cover(g))]
                for (rule, _p1, _p2), after in zip(res.history, replay(g, res.history)):
                    if rule == "rule1":
                        continue
                    sizes.append(len(min_twin_cover(after)))
                assert all(b <= a for a, b in zip(sizes, sizes[1:])), sizes

    def test_size_bound_on_random_inputs(self):
        rng = random.Random(46)
        for _ in range(15):
            g = random_graph(rng.randint(3, 9), rng.choice([0.3, 0.6]), rng)
            for h in PATTERNS.values():
                res = kernelize(g, h)
                if res.trivial_no:
                    continue
                k = brute_min_twin_cover_size(g)
                assert res.graph.n <= kernel_size_bound(k, h)

    def test_bipartite_pattern_rejected(self):
        # a target type that kernelize accepts cannot be bipartite
        with pytest.raises(PatternError):
            PatternGraph(cycle(4))

    def test_wheel_w160_c5(self):
        # hub 0 joined to the 160-cycle 1..160, on a fresh target. Finding
        # the hub's singleton template (|N| = 159) by greedy elimination made
        # this run take 148.7 s on 2 vCPUs; the counters are that run's. It
        # peaks at about 470 MB RSS (495 MB for pytest running it alone),
        # 2.5 GB while its 125,610 kind-Q rows were one mask each
        g = Graph.from_edges(161, [(0, i) for i in range(1, 161)]
                             + [(i, i % 160 + 1) for i in range(1, 161)])
        res = kernelize(g, PatternGraph(cycle(5)))
        assert res.trivial_no
        s = res.stats
        assert (s.passes, s.rule2, s.rule3, s.span_tests, s.span_refuted) == (474, 316, 157, 316, 0)
        assert (s.rows_considered, s.max_basis_rank) == (8_163_803, 164_916)


class TestKernelSizeBound:
    def test_reference_values(self):
        assert kernel_size_bound(0, K3) == 9
        assert kernel_size_bound(2, K3) == 335
        assert kernel_size_bound(1, K4) == 1041

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kernel_size_bound(-1, K3)

    def test_monotone_in_k(self):
        values = [kernel_size_bound(k, K3) for k in range(8)]
        assert values == sorted(values)


class TestPlateauFamily:
    def c5_family(self, extra, seed):
        rng = random.Random(seed)
        edges = [(i, (i + 1) % 5) for i in range(5)]
        for t in range(extra):
            v = 5 + t
            for c in rng.sample(range(5), rng.randint(0, 3)):
                edges.append((c, v))
        return Graph.from_edges(5 + extra, edges)

    def test_kernel_plateaus_with_more_attachments(self):
        g50 = self.c5_family(50, 7)
        g90 = self.c5_family(90, 7)
        r50 = kernelize(g50, K3)
        r90 = kernelize(g90, K3)
        assert not r50.trivial_no and not r90.trivial_no
        assert r50.graph.n == r90.graph.n
        k = len(min_twin_cover(g50, guard=None))
        assert is_twin_cover(g50, min_twin_cover(g50, guard=None))
        assert r50.graph.n <= kernel_size_bound(k, K3)


class TestReferenceDriver:
    """The driver against the restart-everything driver in helpers: same
    answer, kernel, counters and graph after every application."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_graphs(), st.sampled_from(sorted(PATTERNS)))
    def test_random_graphs(self, g, name):
        h = PATTERNS[name]
        assert run_summary(kernelize(g, h)) == run_summary(reference_kernelize(g, h))

    @pytest.mark.parametrize("extra", [50, 90])
    def test_plateau_families(self, extra):
        g = TestPlateauFamily().c5_family(extra, 7)
        assert run_summary(kernelize(g, K3)) == run_summary(reference_kernelize(g, K3))

    def test_labels_survive(self):
        text = "p edge 7 8\n" + "".join(
            f"e {u} {v}\n" for u, v in [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6),
                                        (6, 7), (7, 4), (1, 4)])
        g = parse_graph(text)
        for h in PATTERNS.values():
            assert run_summary(kernelize(g, h)) == run_summary(reference_kernelize(g, h))
