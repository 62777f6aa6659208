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
from hckernel.graphs import CapacityError, Graph, PatternGraph
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


K3 = PatternGraph(clique(3))
K4 = PatternGraph(clique(4))
C5 = PatternGraph(cycle(5))
PETERSEN = PatternGraph(Graph.from_edges(10, petersen_edges()))

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

    def test_guard_ignores_environment(self, monkeypatch):
        # the library's guard is its argument; only the CLI reads the
        # environment variable
        monkeypatch.setenv("HCKERNEL_SOLVE_GUARD", "25")
        with pytest.raises(CapacityError, match="h-coloring guard exceeded: 21 > 20"):
            find_h_coloring(Graph.from_edges(21, []), K3)

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
                        if all(v in g.adj[u]
                               for u, v in itertools.combinations(combo, 2)):
                            colors = {got[v] for v in combo}
                            assert len(colors) == size
                            assert all(b in h.graph.adj[a]
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

    def test_value_outside_target_rejected(self):
        assert not verify_h_coloring(Graph.from_edges(2, []), K3, {0: 99, 1: "x"})
        assert not verify_h_coloring(clique(2), K3, {0: 99, 1: 1})


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

    def test_color_outside_palette_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"colors outside \{1,2,3\}: \[1, 4\]"):
            ListColoringInstance(Graph.from_edges(1, []), {0: frozenset({1, 4})})

    @pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1), (1, 2)]])
    def test_search_fails_on_an_empty_list(self, edges):
        # the constructor never lets one through; the search still fails,
        # as the vertex with the empty list, isolated or not, has the
        # smallest list and no color to try
        g = Graph.from_edges(3, edges)
        domains = {v: {1, 2, 3} for v in g.vertices}
        domains[2] = set()
        assert _search(g.adj, g.vertices, domains, {c: (c,) for c in (1, 2, 3)}) is None

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


class TestComponentCache:
    """Hosts whose residual components come round again in the same state,
    so that the search's component cache answers for them: witnesses must
    still equal those of the uncached reference search.

    A composed instance is a grid of blocking gadgets joined through the
    selector vertices; each of these gives the cache tens to hundreds of
    hits of both kinds. The plain forms are solved only where the
    uncached reference takes well under a second; on the others it takes
    minutes.
    """

    @pytest.mark.parametrize("crosses, plain_too", [
        ([()], True),
        ([((0, 0),)], False),
        ([((0, 1),)], True),
        ([((0, 2),)], True),
        ([((0, 0), (0, 1))], False),
        ([((0, 0), (0, 2))], False),
        ([((0, 1), (0, 2))], True),
        ([((0, 0), (0, 1), (0, 2))], True),
        ([(), ((0, 1),)], True),
        ([((0, 1),), ((0, 2),)], True),
        ([((0, 2),), ((0, 0), (0, 1))], True),
        ([((0, 1), (0, 2)), ((0, 0),)], True),
        ([((0, 1), (0, 2)), ((0, 0), (0, 2))], True),
        ([((0, 1),), ((0, 0), (0, 1), (0, 2))], True),
        ([((0, 0),), ((0, 1),)], False),
        ([((0, 0), (0, 1)), ((0, 2),)], False),
    ])
    def test_composed_grids_match_reference(self, crosses, plain_too):
        inst, _layout = compose([TriangleSplitInstance(1, 1, frozenset(c))
                                 for c in crosses])
        TestMatchesReferenceSearch._assert_same_list(inst)
        if plain_too:
            TestMatchesReferenceSearch._assert_same_plain(list_to_plain(inst))

    @staticmethod
    def _hub_with_trap(paths: int) -> ListColoringInstance:
        """A hub with list {1, 2}, pendant paths, and a trap that only
        hub color 2 lets through, after a smaller copy that fails once so
        the cache is on before the hub's first choice.

        Color 1 solves every path and then fails in the trap, so color 2
        meets the same paths again with other lists, and the trap too.
        """
        edges, lists = [], {}

        def hub(x, pendants):
            t, a, b = x + 1, x + 2, x + 3
            lists.update({x: {1, 2}, t: {1, 2, 3}, a: {2, 3}, b: {2, 3}})
            edges.extend([(x, t), (t, a), (t, b), (a, b)])
            for i in range(pendants):
                p, q = x + 4 + 2 * i, x + 5 + 2 * i
                lists.update({p: {1, 2, 3}, q: {1, 2, 3}})
                edges.extend([(x, p), (p, q)])
            return x + 4 + 2 * pendants

        n = hub(hub(0, 2), paths)
        return ListColoringInstance(Graph.from_edges(n, edges),
                                    {v: frozenset(c) for v, c in lists.items()})

    @pytest.mark.parametrize("paths", [3, 4, 6])
    def test_same_vertices_with_other_lists(self, paths):
        inst = self._hub_with_trap(paths)
        got = TestMatchesReferenceSearch._assert_same_list(inst)
        assert got is not None and got[0] == got[8] == 2
        TestMatchesReferenceSearch._assert_same_plain(list_to_plain(inst))

    def test_random_list_instances(self):
        rng = random.Random(59)
        for _ in range(300):
            g = random_graph(rng.randint(6, 14), rng.choice([0.15, 0.25, 0.35, 0.5]), rng)
            lists = {v: frozenset(rng.sample([1, 2, 3], rng.choice([2, 2, 3])))
                     for v in g.vertices}
            TestMatchesReferenceSearch._assert_same_list(ListColoringInstance(g, lists))
            TestMatchesReferenceSearch._assert_same_plain(g)

    @pytest.mark.parametrize("h", [K4, C5, PETERSEN], ids=["K4", "C5", "petersen"])
    def test_list_h_answers_match_brute_force(self, h):
        rng = random.Random(60)
        colors = h.color_ids
        hadj = h.graph.adj
        bad = {c: tuple(x for x in colors if x not in hadj[c]) for c in colors}
        for _ in range(150):
            g = random_graph(rng.randint(5, 10), rng.choice([0.2, 0.3, 0.45]), rng)
            lists = {v: frozenset(rng.sample(colors, rng.choice([2, 2, 3])))
                     for v in g.vertices}
            brute = next(brute_list_h_colorings(g, h.graph, lists), None)
            got = _search(g.adj, g.vertices, {v: set(lists[v]) for v in g.vertices}, bad)
            assert (got is not None) == (brute is not None)
            if got is not None:
                assert all(got[v] in lists[v] for v in g.vertices)
                assert verify_h_coloring(g, h, got)


def _refuse_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"recursion limit raised to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)


def _deep_unwinding_chain(levels: int) -> ListColoringInstance:
    """A chain d_0 - d_1 - ... - d_levels whose first descent fails at its
    far end and unwinds through every level before d_0 takes its second
    color.

    d_0 has list {1, 2} and three leaves, so it is chosen first; every
    other d_k has list {1, 2, 3} and a gadget that refutes color 3 only
    once d_k takes it (lists {1,3}, {2,3} on two neighbours of d_k and
    {1,2} on their common neighbour). So each d_k is decided, splitting
    off the rest of the chain as one piece, and its colors alternate with
    d_0's. A second gadget refutes, at the far end, the color that d_0 = 1
    gives it.
    """
    lists: dict[int, frozenset] = {}
    edges = []

    def vertex(colors) -> int:
        lists[len(lists)] = frozenset(colors)
        return len(lists) - 1

    def refute(d: int, c: int) -> None:
        x, y = sorted({1, 2, 3} - {c})
        a, b, e = vertex({x, c}), vertex({y, c}), vertex({x, y})
        edges.extend([(d, a), (d, b), (a, e), (b, e)])

    prev = vertex({1, 2})
    edges.extend((prev, vertex({1, 2, 3})) for _ in range(3))
    for _ in range(levels):
        d = vertex({1, 2, 3})
        edges.append((prev, d))
        refute(d, 3)
        prev = d
    refute(prev, 1 if levels % 2 == 0 else 2)
    return ListColoringInstance(Graph.from_edges(len(lists), edges), lists)


class TestDeepHosts:
    """One generator per component, driven from a plain list: deep hosts
    need no recursion-limit raise, whether the search succeeds on its
    first descent or unwinds a failure through every level."""

    def test_long_path_without_recursion_limit_raise(self, monkeypatch):
        _refuse_recursion_limit(monkeypatch)
        path = Graph.from_edges(1200, [(i, i + 1) for i in range(1199)])
        plain = find_3_coloring(path, guard=None)
        assert plain is not None
        assert all(plain[u] != plain[v] for u, v in path.edges())
        hom = find_h_coloring(path, C5, guard=None)
        assert hom is not None and verify_h_coloring(path, C5, hom)

    def test_failure_unwinds_past_recursion_limit(self, monkeypatch):
        levels = sys.getrecursionlimit() + 10
        inst = _deep_unwinding_chain(levels)
        g = inst.graph
        want = reference_solve_lists(g, {v: set(inst.lists[v]) for v in g.vertices})
        # the far end refutes d_0 = 1, so the witness took d_0 = 2
        assert want is not None and want[0] == 2
        _refuse_recursion_limit(monkeypatch)
        assert find_list_3_coloring(inst, guard=None) == want


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
