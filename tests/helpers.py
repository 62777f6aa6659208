"""Independent brute-force oracles and graph generators shared by the tests.

Everything here recomputes properties straight from definitions (pairwise
neighborhood comparison, subset enumeration, exhaustive coloring search)
so that library results are checked against a second, dumber route. The
reference kernelization driver at the end is the same kind of route for
``kernelize``: it recomputes everything after every rule application.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

from hckernel.gf2 import MaskBasis
from hckernel.graphs import Graph, twin_decomposition
from hckernel.kernelization import AppliedRule, KernelResult, KernelStats, _SpanEngine


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them; keep n tiny)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for b, e in enumerate(pairs) if mask >> b & 1])


def brute_twin_classes(g: Graph) -> set[frozenset[int]]:
    """Group vertices by closed neighborhoods, comparing all pairs directly."""
    closed = {v: g.adj[v] | {v} for v in g.vertices}
    classes: list[set[int]] = []
    for v in g.vertices:
        for cls in classes:
            u = next(iter(cls))
            if closed[u] == closed[v]:
                cls.add(v)
                break
        else:
            classes.append({v})
    return {frozenset(cls) for cls in classes}


def brute_is_twin_cover(g: Graph, s: set[int]) -> bool:
    closed = {v: g.adj[v] | {v} for v in g.vertices}
    return all(u in s or v in s or closed[u] == closed[v] for u, v in g.edges())


def brute_min_twin_cover_size(g: Graph) -> int:
    verts = list(g.vertices)
    for size in range(len(verts) + 1):
        for cand in itertools.combinations(verts, size):
            if brute_is_twin_cover(g, set(cand)):
                return size
    raise AssertionError("vertex set itself always covers")


def brute_minimal_twin_covers(g: Graph) -> list[frozenset[int]]:
    """All inclusion-minimal twin covers, by filtering every subset.

    A cover is inclusion-minimal iff removing any single vertex breaks it.
    """
    verts = list(g.vertices)
    covers = [frozenset(cand)
              for size in range(len(verts) + 1)
              for cand in itertools.combinations(verts, size)
              if brute_is_twin_cover(g, set(cand))]
    return [c for c in covers
            if all(not brute_is_twin_cover(g, set(c - {v})) for v in c)]


def brute_h_colorable(g: Graph, h: Graph) -> bool:
    """Exhaustive homomorphism existence test (full product for tiny n,
    else simple backtracking without any ordering heuristics)."""
    verts = list(g.vertices)
    colors = list(h.vertices)

    def extend(idx: int, assign: dict[int, int]) -> bool:
        if idx == len(verts):
            return True
        v = verts[idx]
        for c in colors:
            ok = True
            for u in g.adj[v]:
                if u in assign and c not in h.adj[assign[u]]:
                    ok = False
                    break
            if ok:
                assign[v] = c
                if extend(idx + 1, assign):
                    return True
                del assign[v]
        return False

    return extend(0, {})


def enumerate_h_colorings(g: Graph, h: Graph):
    """Yield every proper coloring map (backtracking, all solutions)."""
    verts = list(g.vertices)
    colors = list(h.vertices)

    def extend(idx: int, assign: dict[int, int]):
        if idx == len(verts):
            yield dict(assign)
            return
        v = verts[idx]
        for c in colors:
            ok = True
            for u in g.adj[v]:
                if u in assign and c not in h.adj[assign[u]]:
                    ok = False
                    break
            if ok:
                assign[v] = c
                yield from extend(idx + 1, assign)
                del assign[v]

    yield from extend(0, {})


def petersen_edges() -> list[tuple[int, int]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return edges


# -- reference row generator -----------------------------------------------
#
# The generator that the per-pattern row pieces replaced, kept as the
# differential oracle for ``iter_class_constraint_keys``: it derives every
# selector polynomial and every admissible color sequence afresh for each
# neighborhood subset.

def _reference_selector_keys(rows, cols):
    q = len(rows)
    for sel in itertools.permutations(range(q), q - 1):
        yield tuple(sorted((rows[i], cols[k]) for k, i in enumerate(sel)))


def reference_class_constraint_keys(h, class_size: int, neighborhood: tuple[int, ...]):
    """Yield (kind, s, x, monomial_keys) rows for one twin class."""
    d = h.max_degree
    colors = h.color_ids
    if len(neighborhood) >= d + 1:
        for s in itertools.combinations(neighborhood, d + 1):
            for x in itertools.combinations(colors, d + 1):
                keys = tuple(sorted(set(_reference_selector_keys(s, x))))
                yield ("P", s, x, keys)
    for k in range(1, d + 1):
        for s in itertools.combinations(neighborhood, k):
            for x in itertools.product(colors, repeat=k):
                common = h.common_neighborhood(x)
                if h.omega_of(common) < class_size:
                    yield ("Q", s, x, (tuple(sorted(zip(s, x))),))


# -- reference kernelization driver ----------------------------------------
#
# The restart-everything driver that ``kernelize`` replaced, kept as the
# differential oracle: after every rule application it recomputes the twin
# decomposition, re-ranks all class pairs and rebuilds an immutable graph.
# It shares ``_SpanEngine`` with the library: the rows (``class_rows``),
# the row estimate and the monomial interner. So it checks the driver and
# cannot catch a row-generation bug; ``reference_class_constraint_keys``
# is the oracle for that.

def _reference_rule2(engine: _SpanEngine, g: Graph, pi, p1, p2) -> Graph | None:
    removed = g.edges_between(p1, p2)
    if not removed:
        return None
    engine.span_tests += 1
    targets = engine.class_rows(len(p1), tuple(sorted(g.neighborhood_of_set(p1))))[0]
    if not targets:
        return g.without_edges(removed)

    sources = []
    for cls in pi.classes:
        nbhd = g.neighborhood_of_set(cls)
        if cls == p1:
            nbhd -= p2
        elif cls == p2:
            nbhd -= p1
        nbhd_t = tuple(sorted(nbhd))
        sources.append((engine.estimate_rows(len(cls), len(nbhd_t)),
                        min(cls), len(cls), nbhd_t))
    sources.sort(key=lambda s: (s[0], s[1]))

    basis = MaskBasis(engine.interner.size)
    pending = list(targets)
    for _est, _anchor, size, nbhd_t in sources:
        rows = engine.class_rows(size, nbhd_t)[0]
        if not rows:
            continue
        basis.ensure_columns(engine.interner.size)
        grew = False
        for mask in sorted(set(rows)):
            grew |= basis.insert(mask)
        engine.rows_considered += len(rows)
        engine.max_basis_rank = max(engine.max_basis_rank, basis.rank)
        if grew:
            pending = [t for t in pending if not basis.contains(t)]
            if not pending:
                return g.without_edges(removed)
    return None


def _reference_pairs(g: Graph, pi, engine: _SpanEngine):
    classes = sorted(pi.classes, key=min)
    ranked = []
    for p1 in classes:
        nbhd = g.neighborhood_of_set(p1)
        cost = engine.estimate_rows(len(p1), len(nbhd))
        for p2 in classes:
            if p1 is not p2 and nbhd & p2:
                ranked.append((cost, min(p1), min(p2), p1, p2))
    ranked.sort(key=lambda r: r[:3])
    for _cost, _a, _b, p1, p2 in ranked:
        yield p1, p2


def reference_kernelize(g: Graph, h, *, record_history: bool = False) -> KernelResult:
    """Rule 1, then rule 3, then rule 2 over the ranked pairs; restart the
    pass from scratch after any successful application."""
    if h.is_bipartite:
        raise ValueError("target graph must be non-bipartite")
    start = time.perf_counter()
    stats = KernelStats(input_n=g.n, input_m=g.m,
                        twin_classes=len(twin_decomposition(g).classes))
    engine = _SpanEngine(h)
    history: list[AppliedRule] = []
    work = g

    def record(rule: str, detail: str) -> None:
        if record_history:
            history.append(AppliedRule(rule, detail, work))

    trivial = False
    while True:
        stats.passes += 1
        pi = twin_decomposition(work)
        if any(len(cls) > h.clique_number for cls in pi.classes):
            stats.rule1 += 1
            trivial = True
            record("rule1", "twin class larger than target clique number")
            break
        isolated = next((cls for cls in pi.classes if len(cls) <= h.clique_number
                         and not work.neighborhood_of_set(cls)), None)
        if isolated is not None:
            reduced = work.without_vertices(isolated)
            stats.rule3 += 1
            stats.removed_vertices += work.n - reduced.n
            stats.removed_edges += work.m - reduced.m
            work = reduced
            record("rule3", "removed isolated twin class")
            continue
        for p1, p2 in _reference_pairs(work, pi, engine):
            reduced = _reference_rule2(engine, work, pi, p1, p2)
            if reduced is not None:
                stats.rule2 += 1
                stats.removed_edges += work.m - reduced.m
                work = reduced
                record("rule2", f"removed edges between classes "
                                f"{sorted(p1)} and {sorted(p2)}")
                break
        else:
            break

    stats.span_tests = engine.span_tests
    stats.rows_considered = engine.rows_considered
    stats.max_basis_rank = engine.max_basis_rank
    stats.kernel_n = 0 if trivial else work.n
    stats.kernel_m = 0 if trivial else work.m
    stats.time_seconds = time.perf_counter() - start
    return KernelResult(graph=None if trivial else work, trivial_no=trivial,
                        stats=stats, history=tuple(history))


def run_summary(res: KernelResult) -> tuple:
    """Everything two kernelization drivers must agree on: the answer, the
    kernel with its labels, every counter except the time, and the graph
    after every rule application."""
    stats = {k: v for k, v in dataclasses.asdict(res.stats).items() if k != "time_seconds"}
    graph = None if res.graph is None else (res.graph, res.graph.labels)
    steps = tuple((s.rule, s.detail, s.graph, s.graph.labels) for s in res.history)
    return res.trivial_no, graph, stats, steps
