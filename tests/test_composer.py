"""Blocking gadgets, the grid composition, and the plain-coloring conversion."""

import itertools
import json
import random

import pytest

from hckernel.composer import (
    ListColoringInstance,
    TriangleSplitInstance,
    build_blocking_gadget,
    compose,
    gadget_extends,
    generate_tsd_instance,
    list_to_plain,
    selector_claim_rows,
    selector_claim_triples,
)
from hckernel.graphs import Graph
from hckernel.oracle import (
    find_2_3_coloring,
    find_3_coloring,
    find_list_3_coloring,
)

from helpers import random_graph, reference_list_to_plain

COLORABLE = TriangleSplitInstance(1, 1, frozenset())
UNCOLORABLE = TriangleSplitInstance(1, 1, frozenset({(0, 0), (0, 1), (0, 2)}))


class TestTriangleSplitInstance:
    def test_to_graph_shape(self):
        inst = TriangleSplitInstance(2, 2, frozenset({(0, 0), (1, 5)}))
        g = inst.to_graph()
        assert g.n == 8 and g.m == 2 + 6
        assert not g.has_edge(0, 1)          # independent side stays edgeless
        assert g.has_edge(2, 3) and g.has_edge(5, 7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TriangleSplitInstance(1, 1, frozenset({(0, 3)}))


class TestGenerator:
    def test_zero_density(self):
        inst = generate_tsd_instance(1, 1, 0.0, 5)
        assert inst.cross_edges == frozenset()
        assert find_2_3_coloring(inst) is not None

    def test_full_density(self):
        inst = generate_tsd_instance(1, 1, 1.0, 5)
        assert len(inst.cross_edges) == 3
        assert find_2_3_coloring(inst) is None

    def test_deterministic(self):
        a = generate_tsd_instance(3, 2, 0.5, 7)
        b = generate_tsd_instance(3, 2, 0.5, 7)
        assert a == b

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            generate_tsd_instance(0, 1, 0.5, 1)


class TestBlockingGadget:
    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            build_blocking_gadget(())

    def test_rejects_bad_colors(self):
        with pytest.raises(ValueError):
            build_blocking_gadget((4,))

    def test_rejects_bad_port_colors(self):
        gadget = build_blocking_gadget((2, 1))
        for ports in ((0, 1), (1, 4)):
            with pytest.raises(ValueError):
                gadget_extends(gadget, ports)
        with pytest.raises(ValueError, match="one color per port"):
            gadget_extends(gadget, (2,))

    def test_single_port_target_two(self):
        gadget = build_blocking_gadget((2,))
        assert gadget_extends(gadget, (2,))
        assert not gadget_extends(gadget, (1,))
        assert not gadget_extends(gadget, (3,))

    def test_two_ports(self):
        gadget = build_blocking_gadget((1, 2))
        assert gadget_extends(gadget, (1, 3))
        assert not gadget_extends(gadget, (3, 3))

    def test_size_bound(self):
        for m in (1, 2, 3, 4):
            for target in itertools.product((1, 2, 3), repeat=m):
                assert build_blocking_gadget(target).size <= 6 * m + 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_contract_exhaustive(self, m):
        for target in itertools.product((1, 2, 3), repeat=m):
            gadget = build_blocking_gadget(target)
            for ports in itertools.product((1, 2, 3), repeat=m):
                want = any(ports[i] == target[i] for i in range(m))
                assert gadget_extends(gadget, ports) == want, (target, ports)


class TestListToPlain:
    def test_full_list_vertex(self):
        inst = ListColoringInstance(
            Graph.from_edges(1, []), {0: frozenset({1, 2, 3})})
        plain = list_to_plain(inst)
        assert plain.n == 4 and plain.degree(0) == 0
        assert find_3_coloring(plain) is not None

    def test_restricted_vertex_wired_to_palette(self):
        inst = ListColoringInstance(Graph.from_edges(1, []), {0: frozenset({2})})
        plain = list_to_plain(inst)
        # palette ids are the three highest, in color order
        assert plain.has_edge(0, 1) and plain.has_edge(0, 3)
        assert not plain.has_edge(0, 2)
        assert find_3_coloring(plain) is not None

    def test_infeasible_lists_propagate(self):
        inst = ListColoringInstance(
            Graph.from_edges(2, [(0, 1)]),
            {0: frozenset({1}), 1: frozenset({1})})
        assert find_3_coloring(list_to_plain(inst)) is None

    def test_matches_edge_list_construction(self):
        # gapped ids (kernels keep theirs) become isolated plain vertices
        rng = random.Random(62)
        for _ in range(200):
            g = random_graph(rng.randint(0, 12), rng.choice([0.2, 0.4, 0.7]), rng)
            g = g.without_vertices(v for v in g.vertices if rng.random() < 0.25)
            lists = {v: frozenset(rng.sample([1, 2, 3], rng.randint(1, 3)))
                     for v in g.vertices}
            inst = ListColoringInstance(g, lists)
            got, want = list_to_plain(inst), reference_list_to_plain(inst)
            assert got == want
            assert got.labels == want.labels

    def test_equivalence_on_random_instances(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_graph(rng.randint(1, 7), 0.4, rng)
            lists = {v: frozenset(rng.sample([1, 2, 3], rng.randint(1, 3)))
                     for v in g.vertices}
            inst = ListColoringInstance(g, lists)
            want = find_list_3_coloring(inst) is not None
            got = find_3_coloring(list_to_plain(inst), guard=None) is not None
            assert got == want


class TestCompose:
    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            compose([COLORABLE, TriangleSplitInstance(2, 1, frozenset())])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compose([])

    def test_pads_to_square(self):
        _, layout = compose([COLORABLE, UNCOLORABLE])
        assert layout.t_given == 2 and layout.t_padded == 4 and layout.q == 2

    def test_single_input_layout(self):
        inst, layout = compose([COLORABLE])
        assert layout.q == 1
        manifest = layout.manifest()
        assert manifest["list_vertices"] == inst.graph.n
        assert sum(manifest["vertex_terms"].values()) == inst.graph.n
        assert manifest["gadget_counts"] == {
            "step5": 1, "step6": 1,
            "step7": 1 * 1 * 2 * 2,   # q * m * (3n-1) * ordered pairs
            "step8": 1 * 1 * 21,
        }

    def test_single_colorable_input(self):
        inst, _ = compose([COLORABLE])
        assert find_list_3_coloring(inst, guard=None) is not None

    def test_single_uncolorable_input(self):
        inst, _ = compose([UNCOLORABLE])
        assert find_list_3_coloring(inst, guard=None) is None

    def test_or_semantics_and_claims_small(self):
        bundle = [UNCOLORABLE, COLORABLE, UNCOLORABLE, UNCOLORABLE]
        inst, layout = compose(bundle)
        sol = find_list_3_coloring(inst, guard=None)
        assert sol is not None
        assert selector_claim_rows(layout, sol)
        assert selector_claim_triples(layout, sol)

    def test_cross_edges_follow_grid_cells(self):
        # one asymmetric input in cell (1,2) of a 2x2 grid
        probe = TriangleSplitInstance(1, 1, frozenset({(0, 1)}))
        inst, layout = compose([COLORABLE, probe, COLORABLE, COLORABLE])
        s = layout.s_ids[(1, 2, 1)]
        t = layout.t_ids[(2, 2)]
        assert inst.graph.has_edge(s, t)
        assert not inst.graph.has_edge(layout.s_ids[(1, 2, 1)], layout.t_ids[(1, 2)])

    def test_sqrt_t_scaling(self):
        base = [COLORABLE, UNCOLORABLE, UNCOLORABLE, UNCOLORABLE]
        _, lay4 = compose(base)
        _, lay16 = compose(base * 4)
        t4, t16 = lay4.manifest(), lay16.manifest()
        s4 = sum(t4["vertex_terms"][k] for k in t4["sqrt_t_proportional_terms"])
        s16 = sum(t16["vertex_terms"][k] for k in t16["sqrt_t_proportional_terms"])
        assert 1.9 <= s16 / s4 <= 2.1

    @pytest.mark.parametrize("t", [4, 9])
    def test_each_placed_gadget_is_the_standalone_gadget(self, t):
        # every vertex labelled "<gadget>:<name>" belongs to one placement;
        # matched by name, each placement has the standalone gadget's lists
        # and edges, and only its ports reach outside, each to its attach
        # vertex
        inst, layout = compose([generate_tsd_instance(2, 2, 0.4, seed) for seed in range(t)])
        g, q = inst.graph, layout.q
        by_label = {g.label_of(v): v for v in g.vertices}
        groups: dict[str, dict[str, int]] = {}
        for v in g.vertices:
            prefix, sep, name = g.label_of(v).partition(":")
            if sep:
                groups.setdefault(prefix, {})[name] = v
        assert len(groups) == sum(layout.gadget_counts.values())
        for prefix, ids in groups.items():
            step, key = int(prefix[6]), json.loads(prefix[7:])
            if step in (5, 6):
                target = (2,) * q
                row = "a" if step == 5 else "b"
                attach = [by_label[f"{row}[{i}]"] for i in range(1, q + 1)]
            elif step == 7:
                i, l, k, c1, c2 = key
                target = (c1, c2, 1)
                attach = [layout.s_ids[(i, k, l)], layout.s_ids[(i, k + 1, l)],
                          by_label[f"a[{i}]"]]
            else:
                j, k, *trip = key
                target = (*trip, 1)
                attach = [layout.t_ids[(j, 3 * k - 2)], layout.t_ids[(j, 3 * k - 1)],
                          layout.t_ids[(j, 3 * k)], by_label[f"b[{j}]"]]
            gadget = build_blocking_gadget(target)
            gg = gadget.instance.graph
            local = {ids[gg.label_of(u)]: u for u in gg.vertices}
            assert len(local) == len(ids)
            assert {local[v]: inst.lists[v] for v in local} == gadget.instance.lists
            assert {tuple(sorted((local[v], local[w])))
                    for v in local for w in g.adj[v] if w in local} == set(gg.edges())
            outside = {local[v]: g.adj[v] - local.keys() for v in local}
            assert outside == {u: ({attach[gadget.ports.index(u)]} if u in gadget.ports
                                   else set()) for u in gg.vertices}
