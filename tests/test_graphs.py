"""Graph primitives, twin decomposition, twin covers, pattern analysis."""

import gc
import itertools
import random

import pytest

from hckernel.graphs import (
    CapacityError,
    Graph,
    PatternError,
    PatternGraph,
    _max_clique_size,
    is_twin_cover,
    min_twin_cover,
    twin_decomposition,
)

from helpers import (
    all_labeled_graphs,
    brute_min_twin_cover_size,
    brute_minimal_twin_covers,
    brute_twin_classes,
    edges_between,
    is_subgraph,
    petersen_edges,
    random_graph,
)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    @pytest.mark.parametrize("edge", [(0, 3), (0, -1)])
    def test_rejects_out_of_range_endpoint(self, edge):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\).*0\.\.2"):
            Graph.from_edges(3, [(0, 1), edge])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph((0, 1), {0: frozenset({1}), 1: frozenset()})

    def test_edge_iteration_sorted(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
        assert list(g.edges()) == [(0, 1), (0, 2), (1, 3)]

    def test_without_edges_and_vertices_are_subgraphs(self):
        g = clique(4)
        h = g.without_edges([(0, 1)])
        assert h.m == 5 and is_subgraph(h, g)
        f = g.without_vertices([3])
        assert f.n == 3 and is_subgraph(f, g)

    def test_edges_between(self):
        g = clique(4)
        assert edges_between(g, {0, 1}, {2}) == {(0, 2), (1, 2)}


class TestTwinDecomposition:
    def test_complete_graph_single_class(self):
        assert twin_decomposition(triangle()) == (frozenset({0, 1, 2}),)

    def test_path_all_singletons(self):
        got = twin_decomposition(path3())
        assert got == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_k4_minus_edge(self):
        # derived via the pairwise closed-neighborhood oracle: the two
        # degree-3 vertices form the only non-trivial class
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert brute_twin_classes(g) == {frozenset({0, 1}), frozenset({2}), frozenset({3})}
        assert set(twin_decomposition(g)) == brute_twin_classes(g)

    def test_empty_graph(self):
        assert twin_decomposition(Graph.from_edges(0, [])) == ()

    def test_matches_brute_force_small_exhaustive(self):
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                assert set(twin_decomposition(g)) == brute_twin_classes(g)

    def test_matches_brute_force_random_up_to_12(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_graph(rng.randint(5, 12), rng.choice([0.2, 0.5, 0.8]), rng)
            assert set(twin_decomposition(g)) == brute_twin_classes(g)

    def test_classes_induce_cliques(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng.randint(2, 10), 0.5, rng)
            for cls in twin_decomposition(g):
                for u, v in itertools.combinations(sorted(cls), 2):
                    assert v in g.adj[u]


class TestTwinCover:
    def test_triangle_empty_cover(self):
        assert is_twin_cover(triangle(), set())

    def test_path_center(self):
        assert is_twin_cover(path3(), {1})
        assert not is_twin_cover(path3(), set())

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            is_twin_cover(path3(), {5})

    def test_min_cover_complete_graph(self):
        assert min_twin_cover(clique(5)) == frozenset()

    def test_min_cover_star(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert min_twin_cover(g) == frozenset({0})

    def test_min_cover_c5(self):
        # C5 is twin-free, so twin covers are vertex covers; by exhaustive
        # subset check no 2-subset covers all 5 edges and some 3-subset does
        assert brute_min_twin_cover_size(cycle(5)) == 3
        assert len(min_twin_cover(cycle(5))) == 3

    def test_guard(self):
        g = Graph.from_edges(31, [])
        with pytest.raises(CapacityError):
            min_twin_cover(g, guard=30)
        assert min_twin_cover(g, guard=None) == frozenset()

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(80):
            g = random_graph(rng.randint(2, 9), rng.choice([0.3, 0.6]), rng)
            got = min_twin_cover(g)
            assert is_twin_cover(g, got)
            assert len(got) == brute_min_twin_cover_size(g)

    def test_minimal_cover_respects_classes(self):
        # every inclusion-minimal cover contains each twin class fully or
        # not at all
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng.randint(2, 10), rng.choice([0.3, 0.5, 0.7]), rng)
            classes = twin_decomposition(g)
            found = brute_minimal_twin_covers(g)
            assert found
            for cover in found:
                for cls in classes:
                    assert cls <= cover or not (cls & cover)


class TestPatternAnalyze:
    def test_k3(self):
        p = PatternGraph(triangle())
        assert (p.max_degree, p.clique_number) == (2, 3)

    def test_c5(self):
        p = PatternGraph(cycle(5))
        assert (p.max_degree, p.clique_number) == (2, 2)

    def test_petersen(self):
        p = PatternGraph(Graph.from_edges(10, petersen_edges()))
        assert (p.max_degree, p.clique_number) == (3, 2)

    def test_bipartite_rejected(self):
        with pytest.raises(PatternError, match="polynomial-time"):
            PatternGraph(cycle(4))

    def test_empty_rejected(self):
        with pytest.raises(PatternError, match="empty"):
            PatternGraph(Graph.from_edges(0, []))

    def test_clique_search_leaves_no_cycles(self):
        # freed by reference counting alone, with the cyclic collector off
        g = cycle(5)
        gc.collect()
        gc.disable()
        try:
            sizes = [_max_clique_size(g) for _ in range(10)]
            sizes += [_max_clique_size(g, frozenset({0, 1, 2})) for _ in range(10)]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert sizes == [2] * 20

    def test_twin_cover_leaves_no_cycles(self):
        # the branch and bound is freed by reference counting alone
        g = cycle(5)
        gc.collect()
        gc.disable()
        try:
            covers = [min_twin_cover(g) for _ in range(20)]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert covers == [frozenset({0, 2, 3})] * 20

    def test_omega_of_induced_subsets(self):
        p = PatternGraph(triangle())
        assert p.omega_of(frozenset({0, 1})) == 2
        assert p.omega_of(frozenset({0})) == 1
        assert p.omega_of(frozenset()) == 0
