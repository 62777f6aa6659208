"""Seeded inputs and timed operations for the four workloads.

Every operation calls the package through module attributes looked up at
call time (``hk.kernelization.kernelize``), so the traced run sees the
wrapped names. Inputs are built here from the seed; the package only
ever receives the generated graphs, texts and instances.

The host graphs of attach, dense and sparse are a fixed random corpus
(drawn from ``CORPUS_SEED``) whose vertices the run seed relabels. A
relabelling changes the order in which rules fire, and with it each run's
work and kernel sizes, but not which graphs are posed: fresh graphs per
seed moved dense output counts by about 20% from seed to seed, which
would hide any real change. The compose build inputs are drawn fresh.

An ``Op`` has a timed ``run`` and a ``judge`` that turns its raw result
into an ``Outcome`` outside the timed region: what it emitted (vertex and
edge counts, for ``output_vertices``/``output_edges``), an exact summary
that two passes over the same inputs must reproduce, the ``KernelStats``
of kernelize operations, and a ``check`` closure that compares the result
with the benchmark's own reference and returns an error message or None.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

WORKLOADS = ("attach", "dense", "sparse", "compose")

# Targets each workload resolves during set-up.
PATTERNS = {"attach": ("K3",), "dense": ("K3", "K4", "C5"),
            "sparse": ("K3", "C5"), "compose": ()}


@dataclass
class Outcome:
    vertices: int
    edges: int
    summary: tuple
    check: Callable[[], str | None] | None
    kernel_stats: object = None
    error: str | None = None          # what check() returned


@dataclass
class Op:
    run: Callable[[], object]
    judge: Callable[[object], Outcome]


def _target_adj(h) -> dict[int, set[int]]:
    return {c: set(h.graph.adj[c]) for c in h.graph.vertices}


def _kernel_outcome(result, adj, answer, hadj, emitted=None) -> Outcome:
    """Outcome of one kernelize call on a host with known adjacency/answer."""
    stats = result.stats
    kernel = result.graph
    if result.trivial_no:
        n = m = 0
        edges = ()
    else:
        n, m = kernel.n, kernel.m
        edges = tuple(kernel.edges())
    summary = (result.trivial_no, n, m, hash(edges), hash(emitted),
               stats.passes, stats.span_tests, stats.rows_considered)

    def check() -> str | None:
        if result.trivial_no:
            if answer:
                return "TRIVIAL-NO on a colourable input"
            return None
        kadj = ref.adjacency(kernel.vertices, edges)
        if not ref.is_subgraph(kadj, adj):
            return "kernel is not a subgraph of the input"
        if ref.h_colourable(kadj, hadj) != answer:
            return "kernel answer differs from the input answer"
        if emitted is not None and ref.emitted_counts(emitted) != (n, m, m):
            return "emitted kernel text disagrees with the kernel"
        return None

    return Outcome(n, m, summary, check, stats)


CORPUS_SEED = 2718   # the corpus seed of benchmarks/bench_gf2.py


def _relabelled(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# -- attach -------------------------------------------------------------

ATTACH_CORES = {
    "C5": (5, tuple((i, (i + 1) % 5) for i in range(5))),
    "K4": (4, tuple(itertools.combinations(range(4), 2))),
}
ATTACH_EXTRAS = (200, 260)


def attach_inputs(seed: int):
    """(n, relabelled edges, (core size, core edges, core neighbours of
    each attached vertex)) per family."""
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(seed)
    out = []
    for k, core_edges in ATTACH_CORES.values():
        for extra in ATTACH_EXTRAS:
            attached = [tuple(corpus.sample(range(k), corpus.randint(0, 3)))
                        for _ in range(extra)]
            edges = list(core_edges) + [(c, k + t) for t, nbrs in enumerate(attached)
                                        for c in nbrs]
            out.append((k + extra, _relabelled(rng, k + extra, edges),
                        (k, core_edges, attached)))
    return out


def _attach(hk, seed: int) -> list[Op]:
    h = hk.formats.resolve_pattern("K3")
    hadj = _target_adj(h)
    ops = []
    for n, edges, (k, core_edges, attached) in attach_inputs(seed):
        text = "\n".join([f"p edge {n} {len(edges)}"]
                         + [f"e {u + 1} {v + 1}" for u, v in edges]) + "\n"
        ops.append(_attach_op(hk, h, hadj, text, ref.adjacency(range(n), edges),
                              ref.attach_colourable(core_edges, k, attached, hadj)))
    return ops


def _attach_op(hk, h, hadj, text, adj, answer) -> Op:
    def run():
        g = hk.formats.parse_graph(text)
        result = hk.kernelization.kernelize(g, h)
        emitted = None if result.trivial_no else hk.formats.emit_graph(result.graph)
        return result, emitted
    return Op(run,
              lambda raw: _kernel_outcome(raw[0], adj, answer, hadj, raw[1]))


# -- dense and sparse ---------------------------------------------------

def _random_graph(rng: random.Random, n: int, p: float):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _kernel_ops(hk, hosts) -> list[Op]:
    """One kernelize op per (host, pattern name) pair."""
    patterns, ops = {}, []
    for n, edges, name in hosts:
        if name not in patterns:
            patterns[name] = hk.formats.resolve_pattern(name)
        h = patterns[name]
        g = hk.graphs.Graph.from_edges(n, edges)
        adj = ref.adjacency(range(n), edges)
        hadj = _target_adj(h)
        answer = ref.h_colourable(adj, hadj)
        ops.append(Op(_kernelize_call(hk, g, h), _kernel_judge(adj, answer, hadj)))
    return ops


def _kernelize_call(hk, g, h):
    return lambda: hk.kernelization.kernelize(g, h)


def _kernel_judge(adj, answer, hadj):
    return lambda result: _kernel_outcome(result, adj, answer, hadj)


DENSE_GRAPHS = 768


def dense_inputs(seed: int):
    """The corpus generator of benchmarks/bench_gf2.py, with more draws;
    every graph is kernelized for each of K3, K4 and C5."""
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(seed)
    hosts = []
    for i in range(DENSE_GRAPHS):
        n, edges = _random_graph(corpus, 7 + i % 4, (0.2, 0.4, 0.6)[i % 3])
        edges = _relabelled(rng, n, edges)
        hosts += [(n, edges, name) for name in PATTERNS["dense"]]
    return hosts


# (n, p) cells per target. K3 gets the larger hosts, so that both targets
# cost 10-100 ms per op and no single cell dominates a pass. Graphs have
# exactly round(p * n(n-1)/2) edges (G(n, M)), which narrows the spread of
# work within a cell.
SPARSE_CELLS = {
    "K3": ((28, 0.12), (28, 0.15), (30, 0.12), (30, 0.15), (32, 0.10), (32, 0.12)),
    "C5": ((20, 0.10), (20, 0.12), (22, 0.10), (22, 0.12), (24, 0.10), (24, 0.12)),
}
SPARSE_ROUNDS = 8


def sparse_inputs(seed: int):
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(seed)
    hosts = []
    for _ in range(SPARSE_ROUNDS):
        for name, cells in SPARSE_CELLS.items():
            for n, p in cells:
                pairs = list(itertools.combinations(range(n), 2))
                edges = corpus.sample(pairs, round(p * len(pairs)))
                hosts.append((n, _relabelled(rng, n, edges), name))
    return hosts


# -- compose ------------------------------------------------------------

GADGET_PORTS = (1, 2, 3, 4)
BUILD_T = (16, 64, 256)
BUILD_SHAPE = (2, 2)          # (independent vertices, triangles) per input
BUILD_DENSITY = 0.4


def gadget_targets():
    for m in GADGET_PORTS:
        yield from itertools.product((1, 2, 3), repeat=m)


def compose_inputs(seed: int) -> list[list[frozenset]]:
    """Cross edges of the t random inputs of each build op."""
    rng = random.Random(seed)
    m, n = BUILD_SHAPE
    return [[frozenset((u, v) for u in range(m) for v in range(3 * n)
                       if rng.random() < BUILD_DENSITY) for _ in range(t)]
            for t in BUILD_T]


def _compose(hk, seed: int) -> list[Op]:
    c = hk.composer
    ops: list[Op] = []

    # (a) every target and port colouring on up to four ports
    for target in gadget_targets():
        gadget = c.build_blocking_gadget(target)
        for ports in itertools.product((1, 2, 3), repeat=len(target)):
            truth = any(p == t for p, t in zip(ports, target))
            ops.append(_gadget_op(hk, gadget, ports, truth))

    # (b) criterion-7 bundles (name, inputs, satisfiable, solve the plain
    # form too). The unsatisfiable bundle is used at t=1: at t=4 its list
    # refutation alone takes 10-16 s and its plain one minutes. The plain
    # form of "one" takes about 4 s, which would leave room for only two
    # passes per run, so only its list form is solved.
    colourable = c.TriangleSplitInstance(1, 1, frozenset())
    blocked = c.TriangleSplitInstance(1, 1, frozenset({(0, 0), (0, 1), (0, 2)}))
    bundles = (
        ("one", [colourable] + [blocked] * 3, True, False),
        ("two", [blocked, colourable, blocked, colourable], True, True),
        ("all", [colourable] * 4, True, True),
        ("none", [blocked], False, True),
    )
    for _name, bundle, truth, plain_too in bundles:
        ops.append(_list_op(hk, bundle, truth))
        if plain_too:
            ops.append(_plain_op(hk, c.compose(bundle)[0], truth))

    # (c) build ops on seeded random triangle-split inputs
    m, n = BUILD_SHAPE
    for cross in compose_inputs(seed):
        inputs = [c.TriangleSplitInstance(m, n, edges) for edges in cross]
        ops.append(_build_op(hk, inputs, ref.composed_list_size(len(inputs), m, n)))

    # spread the tiny gadget calls over the whole pass, so that their
    # percentiles sample the host's speed over the run, not over one
    # half-second stretch of it
    random.Random(0).shuffle(ops)
    return ops


def _gadget_op(hk, gadget, ports, truth) -> Op:
    def judge(got) -> Outcome:
        return Outcome(0, 0, (got,), lambda: None if got == truth
                       else f"gadget {gadget.target} ports {ports}: got {got}")
    return Op(lambda: hk.composer.gadget_extends(gadget, ports), judge)


def _list_op(hk, bundle, truth) -> Op:
    def run():
        inst, _layout = hk.composer.compose(bundle)
        return inst, hk.oracle.find_list_3_coloring(inst, guard=None)

    def judge(raw) -> Outcome:
        inst, sol = raw
        return Outcome(0, 0, _solution_summary(sol), lambda: _check_solution(
            sol, truth, list(inst.graph.edges()), inst.lists))
    return Op(run, judge)


def _plain_op(hk, inst, truth) -> Op:
    def run():
        plain = hk.composer.list_to_plain(inst)
        return plain, hk.oracle.find_3_coloring(plain, guard=None)

    def judge(raw) -> Outcome:
        plain, sol = raw
        lists = {v: frozenset((1, 2, 3)) for v in plain.vertices}
        return Outcome(0, 0, _solution_summary(sol), lambda: _check_solution(
            sol, truth, list(plain.edges()), lists))
    return Op(run, judge)


def _solution_summary(sol) -> tuple:
    return (None,) if sol is None else (hash(tuple(sorted(sol.items()))),)


def _check_solution(sol, truth, edges, lists) -> str | None:
    if (sol is not None) != truth:
        return f"solver answered {sol is not None}, construction says {truth}"
    if sol is not None and not ref.proper_within_lists(edges, lists, sol):
        return "returned colouring is improper or leaves a list"
    return None


def _build_op(hk, inputs, list_size) -> Op:
    def run():
        inst, _layout = hk.composer.compose(inputs)
        plain = hk.composer.list_to_plain(inst)
        return inst, plain, hk.formats.emit_graph(plain)

    def judge(raw) -> Outcome:
        inst, plain, text = raw

        def check() -> str | None:
            lg = inst.graph
            if lg.n != list_size:
                return f"composed {lg.n} vertices, construction gives {list_size}"
            palette = sum(3 - len(inst.lists[v]) for v in lg.vertices)
            if (plain.n, plain.m) != (lg.n + 3, lg.m + 3 + palette):
                return "plain instance size does not follow from the list instance"
            if ref.emitted_counts(text) != (plain.n, plain.m, plain.m):
                return "emitted text disagrees with the plain instance"
            return None

        return Outcome(plain.n, plain.m, (plain.n, plain.m, hash(text)), check)
    return Op(run, judge)


INPUTS = {"attach": attach_inputs, "dense": dense_inputs,
          "sparse": sparse_inputs, "compose": compose_inputs}


def input_digest(name: str, seed: int) -> str:
    """Fingerprint of a workload's generated inputs (no package calls)."""
    return hashlib.sha256(repr(INPUTS[name](seed)).encode()).hexdigest()


def build(name: str, hk, seed: int) -> list[Op]:
    """The workload's operations, with references computed up front."""
    if name in ("dense", "sparse"):
        return _kernel_ops(hk, INPUTS[name](seed))
    return {"attach": _attach, "compose": _compose}[name](hk, seed)
