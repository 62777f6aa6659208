"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s``); the
criteria cover polynomial semantics, kernelization equivalence and size
bounds on an exhaustive-plus-random corpus, span soundness, the blocking
gadget contract, and the hard-instance composition.

The corpus fixture computes everything once per session: graphs on up to
6 vertices are enumerated exhaustively up to isomorphism (colorability
and rule safety are label-invariant; two extra seeded relabelings per
graph exercise order dependence anyway), and 500 seeded random graphs
cover 7..10 vertices.
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

import networkx

from hckernel.composer import (
    TriangleSplitInstance,
    build_blocking_gadget,
    compose,
    gadget_extends,
    list_to_plain,
)
from hckernel.constraints import build_coloring_polynomial, evaluate
from hckernel.gf2 import in_span
from hckernel.graphs import (
    Graph,
    PatternGraph,
    min_twin_cover,
    twin_decomposition,
)
from hckernel.kernelization import KernelStats, _SpanEngine, kernel_size_bound, kernelize
from hckernel.oracle import (
    find_2_3_coloring,
    find_3_coloring,
    find_h_coloring,
    find_list_3_coloring,
)

from helpers import (
    constraint_count_bound,
    is_subgraph,
    monomial_count_bound,
    random_graph,
    reference_kernelize,
    replay,
    row_count,
    run_summary,
    selector_claim_rows,
    selector_claim_triples,
)


def clique(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


PATTERNS = {
    "K3": PatternGraph(clique(3)),
    "K4": PatternGraph(clique(4)),
    "C5": PatternGraph(cycle(5)),
}

COLORABLE_INPUT = TriangleSplitInstance(1, 1, frozenset())
UNCOLORABLE_INPUT = TriangleSplitInstance(1, 1, frozenset({(0, 0), (0, 1), (0, 2)}))

# m=2 variants for the composition criterion: a vertex adjacent to a full
# triangle can never avoid all three triangle colors
COLORABLE_2A = TriangleSplitInstance(2, 1, frozenset({(0, 0), (1, 1)}))
COLORABLE_2B = TriangleSplitInstance(2, 1, frozenset({(0, 2)}))
UNCOLORABLE_2 = TriangleSplitInstance(2, 1, frozenset(
    (u, v) for u in range(2) for v in range(3)))


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(g.vertices)
    rng.shuffle(perm)
    to_new = {v: perm[i] for i, v in enumerate(g.vertices)}
    return Graph.from_edges(g.n, [(to_new[u], to_new[v]) for u, v in g.edges()])


def corpus_graphs() -> list[Graph]:
    graphs: list[Graph] = []
    rng = random.Random(20260808)
    for nxg in networkx.graph_atlas_g():
        if nxg.number_of_nodes() > 6:
            break
        relabeled = networkx.convert_node_labels_to_integers(nxg)
        g = Graph.from_edges(relabeled.number_of_nodes(), list(relabeled.edges()))
        graphs.append(g)
        graphs.append(_relabel(g, rng))
        graphs.append(_relabel(g, rng))
    for idx in range(500):
        n = 7 + idx % 4
        p = (0.15, 0.3, 0.45, 0.6, 0.75)[(idx // 4) % 5]
        graphs.append(random_graph(n, p, rng))
    return graphs


@dataclass
class Record:
    graph: Graph
    pattern: str
    trivial_no: bool
    kernel: Graph | None
    history: tuple
    summary: tuple
    input_colorable: bool
    kernel_colorable: bool
    input_cover: int = -1
    step_covers: list = field(default_factory=list)


@pytest.fixture(scope="session")
def corpus_records():
    graphs = corpus_graphs()
    records: list[Record] = []
    start = time.perf_counter()
    for g in graphs:
        for name, h in PATTERNS.items():
            res = kernelize(g, h)
            input_colorable = find_h_coloring(g, h) is not None
            if res.trivial_no:
                kernel_colorable = False
            else:
                kernel_colorable = find_h_coloring(res.graph, h) is not None
            records.append(Record(
                graph=g, pattern=name, trivial_no=res.trivial_no,
                kernel=res.graph, history=res.history, summary=run_summary(res),
                input_colorable=input_colorable,
                kernel_colorable=kernel_colorable,
            ))
    elapsed = time.perf_counter() - start
    # exact twin covers for the input and after every rule application
    for rec in records:
        rec.input_cover = len(min_twin_cover(rec.graph))
        covers = []
        for (rule, _p1, _p2), after in zip(rec.history, replay(rec.graph, rec.history)):
            if rule == "rule1":
                continue
            covers.append(len(min_twin_cover(after)))
        rec.step_covers = covers
    return records, elapsed


def test_criterion_1_polynomial_semantics():
    start = time.perf_counter()
    p3 = build_coloring_polynomial(3)
    assert evaluate(p3, {1: 1, 2: 2, 3: 3}) == 1
    assert evaluate(p3, {1: 1, 2: 2, 3: 2}) == 0
    assert evaluate(p3, {1: 1, 2: 2}) == 1
    checked = 0
    for q in (2, 3, 4):
        p = build_coloring_polynomial(q)
        assert max(map(len, p)) == q - 1
        rows = range(1, q + 1)
        options = [(None, *range(1, q + 1))] * q
        for combo in itertools.product(*options):
            chosen = {r: c for r, c in zip(rows, combo) if c is not None}
            injective = len(set(chosen.values())) == len(chosen)
            covers = all(any(chosen.get(r) == k for r in rows)
                         for k in range(1, q))
            want = 1 if (injective and covers) else 0
            got = evaluate(p, chosen)
            assert got == want, (q, chosen)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1: PASS - {checked} assignments across q in 2..4, "
          f"{elapsed:.2f}s")


def test_criterion_2_kernel_equivalence(corpus_records):
    records, elapsed = corpus_records
    mismatches = [r for r in records if r.kernel_colorable != r.input_colorable]
    assert mismatches == []
    assert elapsed < 600.0
    print(f"criterion 2: PASS - {len(records)} instance/pattern runs, "
          f"0 mismatches, {elapsed:.1f}s")


def test_criterion_3_subgraph_and_monotonicity(corpus_records):
    records, _ = corpus_records
    steps = 0
    for rec in records:
        if not rec.trivial_no:
            assert is_subgraph(rec.kernel, rec.graph)
        previous = rec.input_cover
        for size in rec.step_covers:
            assert size <= previous, (rec.pattern, list(rec.graph.edges()))
            previous = size
            steps += 1
    print(f"criterion 3: PASS - subgraph + twin-cover monotonicity over "
          f"{steps} rule applications")


def _attachment_family(core: Graph, extra: int, seed: int, max_nbrs: int = 3) -> Graph:
    rng = random.Random(seed)
    k = core.n
    edges = list(core.edges())
    for t in range(extra):
        v = k + t
        for c in rng.sample(range(k), rng.randint(0, min(max_nbrs, k))):
            edges.append((c, v))
    return Graph.from_edges(k + extra, edges)


def test_criterion_4_size_bound_and_plateau(corpus_records):
    records, _ = corpus_records
    for rec in records:
        kernel_n = 0 if rec.trivial_no else rec.kernel.n
        bound = kernel_size_bound(rec.input_cover, PATTERNS[rec.pattern])
        assert kernel_n <= bound

    k3 = PATTERNS["K3"]
    plateau_report = []
    for core_k in (2, 3, 4):
        core = clique(core_k)
        sizes = {}
        for extra in (200, 400):
            g = _attachment_family(core, extra, 42)
            res = kernelize(g, k3)
            kernel_n = 0 if res.trivial_no else res.graph.n
            cover = len(min_twin_cover(g, guard=None))
            assert kernel_n <= kernel_size_bound(cover, k3)
            sizes[extra] = kernel_n
        assert sizes[200] == sizes[400], sizes
        plateau_report.append(f"K{core_k}-core:{sizes[200]}")

    # same plateau shape on a core whose instances stay colorable, so the
    # kernel is a real graph rather than a trivial no-instance
    sizes = {}
    for extra in (200, 400):
        g = _attachment_family(cycle(5), extra, 42)
        res = kernelize(g, k3)
        assert not res.trivial_no
        cover = len(min_twin_cover(g, guard=None))
        assert res.graph.n <= kernel_size_bound(cover, k3)
        sizes[extra] = res.graph.n
    assert sizes[200] == sizes[400]
    assert 0 < sizes[200] <= 205
    plateau_report.append(f"C5-core:{sizes[200]}")
    print(f"criterion 4: PASS - bound on all corpus instances; plateaus "
          f"{', '.join(plateau_report)}")


def test_driver_matches_reference(corpus_records):
    # the order-preserving driver against the restart-everything driver it
    # replaced: same answers, kernels, counters and per-step graphs on the
    # whole corpus and on the criterion-4 K4-core families
    records, _ = corpus_records
    for rec in records:
        want = reference_kernelize(rec.graph, PATTERNS[rec.pattern])
        assert rec.summary == run_summary(want), (rec.pattern, list(rec.graph.edges()))
    k3 = PATTERNS["K3"]
    for extra in (200, 400):
        g = _attachment_family(clique(4), extra, 42)
        assert run_summary(kernelize(g, k3)) == run_summary(reference_kernelize(g, k3))
    print(f"driver differential: PASS - {len(records)} corpus runs and 2 "
          f"K4-core families identical to the reference driver")


def test_criterion_5_span_soundness():
    rng = random.Random(97)
    variables = range(8)
    pairs = [(v, 0) for v in range(8)]
    # combinations of sorted pairs are sorted, duplicate-free monomial keys
    universe = [combo
                for d in (1, 2, 3)
                for combo in itertools.combinations(pairs, d)]
    universe = universe[:60]
    trials = in_span_hits = 0
    for _ in range(1000):
        gens = [tuple(rng.sample(universe, rng.randint(1, 4)))
                for _ in range(rng.randint(1, 12))]
        target = tuple(rng.sample(universe, rng.randint(0, 4)))
        got = in_span(target, gens)
        brute = False
        for picks in itertools.product((0, 1), repeat=len(gens)):
            acc = frozenset()
            for take, gen in zip(picks, gens):
                if take:
                    acc ^= frozenset(gen)
            if acc == frozenset(target):
                brute = True
                break
        assert got == brute
        if got:
            in_span_hits += 1
            for _ in range(10):
                values = {v: rng.randint(0, 1) for v in variables}
                # every variable has color 0: indicator 1 iff v is chosen
                chosen = {v: 0 for v, bit in values.items() if bit}
                if all(evaluate(g, chosen) == 0 for g in gens):
                    assert evaluate(target, chosen) == 0
        trials += 1
    assert trials == 1000
    print(f"criterion 5: PASS - 1000 trials, {in_span_hits} span hits, "
          f"exhaustive agreement on all")


def test_criterion_6_blocking_gadget():
    start = time.perf_counter()
    checked = 0
    for m in (1, 2, 3):
        for target in itertools.product((1, 2, 3), repeat=m):
            gadget = build_blocking_gadget(target)
            assert gadget.size <= 6 * m + 1
            for ports in itertools.product((1, 2, 3), repeat=m):
                want = any(ports[i] == target[i] for i in range(m))
                assert gadget_extends(gadget, ports) == want
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 6: PASS - {checked} port colorings over m in 1..3, "
          f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_7_composition_or_equivalence():
    # all four truth patterns at t=4, n=1, with one-vertex and with
    # two-vertex independent sides. t=16 coverage still does not fit the
    # budget: the list solve of a t=16 "one" bundle takes about 180 s even
    # with the component cache, because a satisfiable search can wander
    # through wrong selector sectors whose refutations are slow
    start = time.perf_counter()
    bundles = {
        "none": [UNCOLORABLE_INPUT] * 4,
        "one": [COLORABLE_INPUT] + [UNCOLORABLE_INPUT] * 3,
        "two": [UNCOLORABLE_INPUT, COLORABLE_INPUT,
                UNCOLORABLE_INPUT, COLORABLE_INPUT],
        "all": [COLORABLE_INPUT] * 4,
        "m2 none": [UNCOLORABLE_2] * 4,
        "m2 one": [COLORABLE_2A] + [UNCOLORABLE_2] * 3,
        "m2 two": [UNCOLORABLE_2, COLORABLE_2A, UNCOLORABLE_2, COLORABLE_2B],
        "m2 all": [COLORABLE_2A, COLORABLE_2B] * 2,
    }
    outcomes = []
    for name, bundle in bundles.items():
        or_truth = any(find_2_3_coloring(inst) is not None for inst in bundle)
        assert or_truth == ("none" not in name)
        list_inst, layout = compose(bundle)
        list_solution = find_list_3_coloring(list_inst, guard=None)
        plain = list_to_plain(list_inst)
        plain_colorable = find_3_coloring(plain, guard=None) is not None
        assert (list_solution is not None) == or_truth, name
        assert plain_colorable == or_truth, name
        if list_solution is not None:
            assert selector_claim_rows(layout, list_solution), name
            assert selector_claim_triples(layout, list_solution), name
        outcomes.append(f"{name}={or_truth}")
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(f"criterion 7: PASS - truth patterns {', '.join(outcomes)}, "
          f"{elapsed:.1f}s")


def test_criterion_8_composition_size_accounting():
    base = [COLORABLE_INPUT, UNCOLORABLE_INPUT,
            UNCOLORABLE_INPUT, UNCOLORABLE_INPUT]
    inst4, lay4 = compose(base)
    inst16, lay16 = compose(base * 4)
    for inst, lay in ((inst4, lay4), (inst16, lay16)):
        manifest = lay.manifest()
        assert sum(manifest["vertex_terms"].values()) == inst.graph.n
        assert manifest["list_vertices"] == inst.graph.n
        assert manifest["plain_vertices"] == list_to_plain(inst).n
    m4, m16 = lay4.manifest(), lay16.manifest()
    s4 = sum(m4["vertex_terms"][k] for k in m4["sqrt_t_proportional_terms"])
    s16 = sum(m16["vertex_terms"][k] for k in m16["sqrt_t_proportional_terms"])
    ratio = s16 / s4
    assert 1.9 <= ratio <= 2.1
    print(f"criterion 8: PASS - exact term sums, sqrt(t) ratio {ratio:.3f}")


def test_criterion_9_bookkeeping_bounds(corpus_records):
    records, _ = corpus_records
    seen_pairs = set()
    checked = 0
    for rec in records:
        key = (id(rec.graph), rec.pattern)
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        h = PATTERNS[rec.pattern]
        g = rec.graph
        # a fresh engine per build, so its interner holds exactly the
        # distinct monomials of this graph's rows
        engine = _SpanEngine(h, KernelStats())
        total = 0
        for cls in twin_decomposition(g):
            nbhd = g.neighborhood_of_set(cls)
            engine.class_rows(len(cls), nbhd)
            total += row_count(h, len(cls), nbhd)
        assert total <= constraint_count_bound(g.n, h)
        monos = len(engine.interner)
        assert monos <= monomial_count_bound(g.n * h.num_colors, h.max_degree)
        checked += 1
    print(f"criterion 9: PASS - constraint and monomial bounds on "
          f"{checked} instance/pattern builds")
