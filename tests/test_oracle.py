"""The exact solvers against independent enumeration."""

import itertools
import random
import sys

import pytest

from hckernel.composer import (
    ListColoringInstance,
    TriangleSplitInstance,
    build_blocking_gadget,
    compose,
    list_to_plain,
)
from hckernel.graphs import CapacityError, Graph, pattern_analyze
from hckernel.oracle import (
    _pin_cliques,
    _search,
    find_2_3_coloring,
    find_3_coloring,
    find_h_coloring,
    find_list_3_coloring,
    verify_h_coloring,
)

from helpers import (
    brute_h_colorable,
    brute_list_h_colorings,
    petersen_edges,
    random_graph,
    reference_solve_lists,
)


def clique(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


K3 = pattern_analyze(clique(3))
K4 = pattern_analyze(clique(4))
C5 = pattern_analyze(cycle(5))
PETERSEN = pattern_analyze(Graph.from_edges(10, petersen_edges()))

COLORABLE_INPUT = TriangleSplitInstance(1, 1, frozenset())
UNCOLORABLE_INPUT = TriangleSplitInstance(1, 1, frozenset({(0, 0), (0, 1), (0, 2)}))


class TestFindHColoring:
    def test_triangle_into_triangle(self):
        got = find_h_coloring(clique(3), K3)
        assert got is not None
        assert sorted(got.values()) == [0, 1, 2]

    def test_triangle_into_c5_impossible(self):
        assert find_h_coloring(clique(3), C5) is None

    def test_c5_into_triangle(self):
        got = find_h_coloring(cycle(5), K3)
        assert got is not None
        assert verify_h_coloring(cycle(5), K3, got)

    def test_deterministic_witness(self):
        a = find_h_coloring(cycle(5), K3)
        b = find_h_coloring(cycle(5), K3)
        assert a == b

    def test_guard(self):
        g = Graph.from_edges(21, [])
        with pytest.raises(CapacityError, match="h-coloring guard exceeded: 21 > 20"):
            find_h_coloring(g, K3)
        assert find_h_coloring(g, K3, guard=None) is not None

    def test_guard_env_override(self, monkeypatch):
        g = Graph.from_edges(21, [])
        monkeypatch.setenv("HCKERNEL_SOLVE_GUARD", "25")
        assert find_h_coloring(g, K3) is not None
        monkeypatch.setenv("HCKERNEL_SOLVE_GUARD", "5")
        with pytest.raises(CapacityError):
            find_h_coloring(g, K3)

    def test_agrees_with_brute_force(self):
        rng = random.Random(51)
        for _ in range(80):
            g = random_graph(rng.randint(1, 7), rng.choice([0.3, 0.6, 0.9]), rng)
            for h in (K3, K4, C5):
                got = find_h_coloring(g, h)
                assert (got is not None) == brute_h_colorable(g, h.graph)
                if got is not None:
                    assert verify_h_coloring(g, h, got)

    def test_witness_respects_clique_and_degree_observations(self):
        rng = random.Random(52)
        for _ in range(60):
            g = random_graph(rng.randint(2, 8), 0.5, rng)
            for h in (K3, K4, C5):
                got = find_h_coloring(g, h)
                if got is None:
                    continue
                # greedy max clique by enumeration
                for size in (4, 3, 2):
                    for combo in itertools.combinations(g.vertices, size):
                        if all(g.has_edge(u, v)
                               for u, v in itertools.combinations(combo, 2)):
                            colors = {got[v] for v in combo}
                            assert len(colors) == size
                            assert all(h.graph.has_edge(a, b)
                                       for a, b in itertools.combinations(sorted(colors), 2))
                for v in g.vertices:
                    used = {got[u] for u in g.adj[v]}
                    assert len(used) <= h.max_degree


class TestVerify:
    def test_identity_on_cycle(self):
        ident = {v: v for v in range(5)}
        assert verify_h_coloring(cycle(5), C5, ident)

    def test_constant_map_rejected_on_edge(self):
        assert not verify_h_coloring(clique(2), K3, {0: 1, 1: 1})

    def test_proper_path_coloring(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert verify_h_coloring(path, K3, {0: 0, 1: 1, 2: 0})

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError, match="not total"):
            verify_h_coloring(clique(3), K3, {0: 0})


class TestListColoring:
    def test_single_vertex_forced_color(self):
        inst = ListColoringInstance(Graph.from_edges(1, []), {0: frozenset({2})})
        assert find_list_3_coloring(inst) == {0: 2}

    def test_conflicting_singletons(self):
        inst = ListColoringInstance(
            Graph.from_edges(2, [(0, 1)]),
            {0: frozenset({1}), 1: frozenset({1})})
        assert find_list_3_coloring(inst) is None

    def test_rainbow_triangle(self):
        inst = ListColoringInstance(
            clique(3), {v: frozenset({1, 2, 3}) for v in range(3)})
        got = find_list_3_coloring(inst)
        assert got is not None and sorted(got.values()) == [1, 2, 3]

    def test_empty_list_rejected_at_construction(self):
        with pytest.raises(ValueError, match="empty"):
            ListColoringInstance(Graph.from_edges(1, []), {0: frozenset()})

    def test_guard(self):
        g = Graph.from_edges(25, [])
        inst = ListColoringInstance(g, {v: frozenset({1}) for v in g.vertices})
        with pytest.raises(CapacityError, match="list-coloring guard exceeded: 25 > 24"):
            find_list_3_coloring(inst)
        assert find_list_3_coloring(inst, guard=None) is not None

    def test_agrees_with_enumeration(self):
        rng = random.Random(53)
        for _ in range(120):
            n = rng.randint(1, 6)
            g = random_graph(n, 0.5, rng)
            lists = {v: frozenset(rng.sample([1, 2, 3], rng.randint(1, 3)))
                     for v in g.vertices}
            inst = ListColoringInstance(g, lists)
            brute = False
            for combo in itertools.product([1, 2, 3], repeat=n):
                if all(combo[v] in lists[v] for v in g.vertices) and \
                        all(combo[u] != combo[v] for u, v in g.edges()):
                    brute = True
                    break
            got = find_list_3_coloring(inst)
            assert (got is not None) == brute
            if got is not None:
                assert all(got[v] in lists[v] for v in g.vertices)
                assert all(got[u] != got[v] for u, v in g.edges())


class TestTwoThreeColoring:
    def test_disjoint_parts_colorable(self):
        inst = TriangleSplitInstance(1, 1, frozenset())
        assert find_2_3_coloring(inst) is not None

    def test_rainbow_neighborhood_impossible(self):
        inst = TriangleSplitInstance(1, 1, frozenset({(0, 0), (0, 1), (0, 2)}))
        assert find_2_3_coloring(inst) is None

    def test_agrees_with_list_encoding(self):
        rng = random.Random(54)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 2)
            edges = frozenset((u, v) for u in range(m) for v in range(3 * n)
                              if rng.random() < 0.4)
            inst = TriangleSplitInstance(m, n, edges)
            g = inst.to_graph()
            lists = {v: frozenset({1, 2} if v < m else {1, 2, 3})
                     for v in g.vertices}
            via_lists = find_list_3_coloring(ListColoringInstance(g, lists))
            direct = find_2_3_coloring(inst)
            assert (direct is None) == (via_lists is None)
            if direct is not None:
                assert all(direct[u] in (1, 2) for u in range(m))
                assert all(direct[u] != direct[v] for u, v in g.edges())


class TestPlainThreeColoring:
    def test_petersen_is_3_colorable(self):
        g = Graph.from_edges(10, petersen_edges())
        got = find_3_coloring(g)
        assert got is not None
        assert all(got[u] != got[v] for u, v in g.edges())

    def test_k4_is_not(self):
        assert find_3_coloring(clique(4)) is None


class TestCliquePinning:
    """find_3_coloring pins one clique per component to colors 1, 2, 3."""

    @staticmethod
    def _assert_proper(g, got):
        assert got is not None
        assert set(got) == set(g.vertices)
        assert all(got[v] in (1, 2, 3) for v in g.vertices)
        assert all(got[u] != got[v] for u, v in g.edges())

    def test_two_triangle_components(self):
        # two triangles, each with a pendant path, in one host
        g = Graph.from_edges(10, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                                  (5, 6), (5, 7), (6, 7), (7, 8), (8, 9), (9, 5)])
        domains = {v: {1, 2, 3} for v in g.vertices}
        _pin_cliques(g.adj, g.vertices, domains)
        pinned = {v: d for v, d in domains.items() if len(d) == 1}
        # highest degree first, smallest id on ties: 2 then 0 then 1, and
        # 5 (tied with 7) then 7 then 6
        assert pinned == {2: {1}, 0: {2}, 1: {3}, 5: {1}, 7: {2}, 6: {3}}
        got = find_3_coloring(g)
        self._assert_proper(g, got)
        assert all(got[v] == next(iter(d)) for v, d in pinned.items())

    def test_k4_beside_a_triangle(self):
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = Graph.from_edges(7, k4 + [(4, 5), (4, 6), (5, 6)])
        assert find_3_coloring(g) is None

    def test_triangle_free_components(self):
        # path 0-1-2, a C5 on 3..7 and the isolated vertex 8
        edges = [(0, 1), (1, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
        g = Graph.from_edges(9, edges)
        domains = {v: {1, 2, 3} for v in g.vertices}
        _pin_cliques(g.adj, g.vertices, domains)
        pinned = {v: d for v, d in domains.items() if len(d) == 1}
        # an edge per path and cycle, the vertex alone otherwise
        assert pinned == {1: {1}, 0: {2}, 3: {1}, 4: {2}, 8: {1}}
        self._assert_proper(g, find_3_coloring(g))

    def test_agrees_with_brute_force(self):
        rng = random.Random(57)
        for _ in range(300):
            g = random_graph(rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]), rng)
            got = find_3_coloring(g)
            assert (got is not None) == brute_h_colorable(g, K3.graph)
            if got is not None:
                self._assert_proper(g, got)


class TestListHColoring:
    """The one search with lists inside V(H) for targets beyond K3."""

    def test_agrees_with_brute_force(self):
        rng = random.Random(55)
        for h in (K4, C5, PETERSEN):
            colors = h.color_ids
            hadj = h.graph.adj
            bad = {c: tuple(x for x in colors if x not in hadj[c]) for c in colors}
            for _ in range(60):
                g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.7]), rng)
                lists = {v: frozenset(rng.sample(colors, rng.randint(1, 3)))
                         for v in g.vertices}
                brute = next(brute_list_h_colorings(g, h.graph, lists), None)
                got = _search(g.adj, g.vertices,
                              {v: set(lists[v]) for v in g.vertices}, bad)
                assert (got is not None) == (brute is not None)
                if got is not None:
                    assert all(got[v] in lists[v] for v in g.vertices)
                    assert verify_h_coloring(g, h, got)


class TestDeepHosts:
    """The search is iterative: deep hosts need no recursion-limit raise."""

    def test_long_path_without_recursion_limit_raise(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"recursion limit raised to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        path = Graph.from_edges(1200, [(i, i + 1) for i in range(1199)])
        plain = find_3_coloring(path, guard=None)
        assert plain is not None
        assert all(plain[u] != plain[v] for u, v in path.edges())
        hom = find_h_coloring(path, C5, guard=None)
        assert hom is not None and verify_h_coloring(path, C5, hom)


def _pinned_gadget(gadget, ports):
    lists = dict(gadget.instance.lists)
    for p, col in zip(gadget.ports, ports):
        lists[p] = frozenset({col})
    return ListColoringInstance(gadget.instance.graph, lists)


class TestMatchesReferenceSearch:
    """Identical witness dicts, not just answers, against the recursive
    search the iterative one replaced."""

    @staticmethod
    def _assert_same_list(inst):
        g = inst.graph
        want = reference_solve_lists(g, {v: set(inst.lists[v]) for v in g.vertices})
        assert find_list_3_coloring(inst, guard=None) == want
        return want

    @staticmethod
    def _assert_same_plain(g):
        want = reference_solve_lists(g, {v: {1, 2, 3} for v in g.vertices})
        assert find_3_coloring(g, guard=None) == want
        return want

    def test_gadget_port_colorings(self):
        checked = 0
        for m in (1, 2, 3):
            for target in itertools.product((1, 2, 3), repeat=m):
                gadget = build_blocking_gadget(target)
                for ports in itertools.product((1, 2, 3), repeat=m):
                    self._assert_same_list(_pinned_gadget(gadget, ports))
                    checked += 1
        assert checked == 819

    def test_random_list_instances(self):
        rng = random.Random(56)
        for _ in range(200):
            g = random_graph(rng.randint(1, 14), rng.choice([0.15, 0.3, 0.5]), rng)
            lists = {v: frozenset(rng.sample([1, 2, 3], rng.randint(1, 3)))
                     for v in g.vertices}
            self._assert_same_list(ListColoringInstance(g, lists))
            self._assert_same_plain(g)

    @pytest.mark.parametrize("bundle, colorable", [
        ([UNCOLORABLE_INPUT, COLORABLE_INPUT, UNCOLORABLE_INPUT, COLORABLE_INPUT], True),
        ([COLORABLE_INPUT] * 4, True),
        ([UNCOLORABLE_INPUT], False),
    ], ids=["two", "all", "none t=1"])
    def test_composed_bundles(self, bundle, colorable):
        inst, _layout = compose(bundle)
        assert (self._assert_same_list(inst) is not None) == colorable
        assert (self._assert_same_plain(list_to_plain(inst)) is not None) == colorable
