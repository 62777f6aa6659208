"""Independent brute-force oracles and graph generators shared by the tests.

Everything here recomputes properties straight from definitions (pairwise
neighborhood comparison, subset enumeration, exhaustive coloring search)
so that library results are checked against a second, dumber route. The
reference kernelization driver at the end is the same kind of route for
``kernelize``: it recomputes everything after every rule application. The
reference list-coloring search is the recursive search the oracle's
iterative one replaced, kept to compare witnesses.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import sys
import time

from hckernel.constraints import iter_class_constraint_keys
from hckernel.gf2 import MaskBasis, MonomialInterner
from hckernel.graphs import Graph, twin_decomposition
from hckernel.kernelization import KernelResult, KernelStats, _SpanEngine, _template


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them; keep n tiny)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for b, e in enumerate(pairs) if mask >> b & 1])


def edges_between(g: Graph, a, b) -> frozenset[tuple[int, int]]:
    """Edges of g with one endpoint in a and the other in b, as sorted pairs."""
    a, b = frozenset(a), frozenset(b)
    out = set()
    for u in a:
        for v in g.adj[u] & b:
            out.add((min(u, v), max(u, v)))
    return frozenset(out)


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


def brute_list_h_colorings(g: Graph, h: Graph, lists: dict[int, frozenset[int]]):
    """Yield every map sending each vertex into its list and each edge to
    an edge of h (full product over the lists; keep n tiny)."""
    verts = list(g.vertices)
    for combo in itertools.product(*(sorted(lists[v]) for v in verts)):
        f = dict(zip(verts, combo))
        if all(f[v] in h.adj[f[u]] for u, v in g.edges()):
            yield f


def is_subgraph(a: Graph, b: Graph) -> bool:
    """True iff every vertex and edge of a is one of b."""
    return (set(a.vertices) <= set(b.vertices)
            and all(a.adj[v] <= b.adj[v] for v in a.vertices))


def petersen_edges() -> list[tuple[int, int]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return edges


def reference_emit_graph(g: Graph) -> str:
    """The sort-then-join emitter ``hckernel.formats.emit_graph`` replaced:
    one string per line and a sorted list of renumbered edge tuples. The
    library's emitter must return the same text. Every vertex whose name
    differs from its new id gets a label comment, whether or not the graph
    carries any labels: an unlabelled gapped subgraph keeps its ids as
    names."""
    index = {v: i + 1 for i, v in enumerate(g.vertices)}
    lines = [f"p edge {g.n} {g.m}"]
    for v in g.vertices:
        if g.label_of(v) != str(index[v]):
            lines.append(f"c label {index[v]} {g.label_of(v)}")
    for u, v in sorted((index[u], index[v]) for u, v in g.edges()):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def reference_list_to_plain(inst) -> Graph:
    """``hckernel.composer.list_to_plain`` built from one edge list: the
    list graph's edges, the palette triangle on the three ids after the
    largest, and an edge from each vertex to every palette color missing
    from its list."""
    g = inst.graph
    base = (max(g.vertices) + 1) if g.n else 0
    palette = {1: base, 2: base + 1, 3: base + 2}
    edges = list(g.edges())
    edges += [(palette[1], palette[2]), (palette[1], palette[3]), (palette[2], palette[3])]
    for v in g.vertices:
        for color in (1, 2, 3):
            if color not in inst.lists[v]:
                edges.append((v, palette[color]))
    labels = {v: g.label_of(v) for v in g.vertices}
    for color, pid in palette.items():
        labels[pid] = f"C{color}"
    return Graph.from_edges(base + 3, edges, labels)


# -- bounds and composition claims that only the tests assert -------------

def constraint_count_bound(n: int, h) -> int:
    """Coarse cap on the number of generated rows for an n-vertex host."""
    d = h.max_degree
    return 2 * n * n ** (d + 1) * h.num_colors ** (d + 1)


def monomial_count_bound(n: int, d: int) -> int:
    """Upper bound n**d + 1 on multilinear monomials of degree <= d.

    Exact arithmetic on Python ints, so no overflow handling is needed.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be non-negative")
    return n ** d + 1


def selector_claim_rows(layout, coloring) -> bool:
    """Some S block has every copy column constant under the coloring."""
    for i in range(1, layout.q + 1):
        if all(
            len({coloring[layout.s_ids[(i, k, l)]] for k in range(1, 3 * layout.n + 1)}) == 1
            for l in range(1, layout.m + 1)
        ):
            return True
    return False


def selector_claim_triples(layout, coloring) -> bool:
    """Some T block has every triangle triple colored with 3 distinct colors."""
    for j in range(1, layout.q + 1):
        if all(
            len({coloring[layout.t_ids[(j, 3 * k - 2)]],
                 coloring[layout.t_ids[(j, 3 * k - 1)]],
                 coloring[layout.t_ids[(j, 3 * k)]]}) == 3
            for k in range(1, layout.n + 1)
        ):
            return True
    return False


# -- reference list-coloring search ---------------------------------------
#
# The recursive list-coloring search that ``hckernel.oracle._search``
# replaced, kept as the differential oracle: the iterative search must
# return the same witness dict on every list K3-coloring instance. It
# raises the recursion limit because its depth grows with the host.

def reference_solve_lists(g: Graph, domains: dict[int, set[int]]) -> dict[int, int] | None:
    """Complete backtracking search with forward checking.

    Singleton lists are propagated before any branching; variables are
    chosen by minimum remaining values (degree tie-break). Whenever the
    residual graph on unassigned vertices falls apart, the connected
    components are solved independently: a component with no solution
    refutes the current branch outright, and alternatives in one component
    are never re-enumerated because a sibling failed. That keeps search
    local on instances stitched together from many small widgets.
    """
    if any(not d for d in domains.values()):
        return None
    adj = g.adj
    assigned: dict[int, int] = {}
    trail: list[tuple[str, int, int]] = []

    def propagate(seeds: list[tuple[int, int]]) -> bool:
        queue = list(seeds)
        while queue:
            v, c = queue.pop()
            if v in assigned:
                if assigned[v] != c:
                    return False
                continue
            if c not in domains[v]:
                return False
            assigned[v] = c
            trail.append(("as", v, 0))
            for u in adj[v]:
                if u in assigned:
                    if assigned[u] == c:
                        return False
                    continue
                du = domains[u]
                if c in du:
                    du.remove(c)
                    trail.append(("rm", u, c))
                    if not du:
                        return False
                    if len(du) == 1:
                        queue.append((u, next(iter(du))))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            op, v, c = trail.pop()
            if op == "as":
                del assigned[v]
            else:
                domains[v].add(c)

    def split(vs: set[int]) -> list[set[int]]:
        left = set(vs)
        out = []
        while left:
            seed = left.pop()
            comp = {seed}
            stack = [seed]
            while stack:
                w = stack.pop()
                for u in adj[w]:
                    if u in left:
                        left.remove(u)
                        comp.add(u)
                        stack.append(u)
            out.append(comp)
        out.sort(key=min)
        return out

    def solve_component(comp: set[int]) -> bool:
        live = {v for v in comp if v not in assigned}
        if not live:
            return True
        v = min(live, key=lambda u: (len(domains[u]), -len(adj[u]), u))
        mark = len(trail)
        for c in sorted(domains[v]):
            if propagate([(v, c)]):
                rest = {u for u in live if u not in assigned}
                if all(solve_component(sub) for sub in split(rest)):
                    return True
            undo(mark)
        return False

    limit = sys.getrecursionlimit()
    want = 4 * g.n + 1000
    if want > limit:
        sys.setrecursionlimit(want)
    try:
        forced = [(v, next(iter(domains[v])))
                  for v in sorted(g.vertices) if len(domains[v]) == 1]
        if not propagate(forced):
            return None
        rest = {v for v in g.vertices if v not in assigned}
        if all(solve_component(comp) for comp in split(rest)):
            return dict(assigned)
        return None
    finally:
        sys.setrecursionlimit(limit)


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


# -- reference template -----------------------------------------------------
#
# How ``hckernel.kernelization._template`` picked every family's basis
# before the closed forms: insert the rows in generator order and keep
# those that raise the rank. Kept as the oracle for the closed forms.

def reference_template(h, class_size: int, s: int) -> list[tuple[tuple, ...]]:
    """The rows over positions 0..s-1 that greedy elimination keeps."""
    ids = MonomialInterner()
    basis = MaskBasis()
    kept = []
    for keys in iter_class_constraint_keys(h, class_size, tuple(range(s))):
        mask = 0
        for mk in keys:
            mask |= 1 << ids[mk]
        if basis.insert(mask):
            kept.append(keys)
    return kept


def template_rows(h, class_size: int, s: int) -> list[tuple[tuple, ...]]:
    """The library's template over positions 0..s-1 as rows of monomial
    keys, group after group."""
    table = [(i, c) for i in range(s) for c in h.color_ids]
    rows = []
    for width, pick, counts in _template(h, class_size, s):
        keys = iter(zip(*[iter(pick(table))] * width))
        rows += [tuple(itertools.islice(keys, m)) for m in counts]
    return rows


# -- reference kernelization driver ----------------------------------------
#
# The restart-everything driver that ``kernelize`` replaced, kept as the
# differential oracle: after every rule application it recomputes the twin
# decomposition, re-ranks all class pairs and rebuilds an immutable graph.
# It shares ``_SpanEngine`` with the library for the row estimate that
# ranks the pairs and the monomial interner, but feeds every test all of a
# family's rows (``FullRowEngine``), not the library's template of
# independent rows; so the differential checks that templates change no
# answer and no basis rank. It cannot catch a row-generation bug;
# ``reference_class_constraint_keys`` is the oracle for that. It counts
# ``rows_considered`` from the generator itself, so the differential also
# checks the library's estimate-based count. It decides the neighborhood
# refutation of a span test with its own code and still eliminates every
# test in full, so refuting a test that the elimination passes trips an
# assertion here.

@functools.cache
def row_count(h, class_size: int, neighborhood: frozenset[int]) -> int:
    """The number of rows the generator yields for one family."""
    return sum(1 for _ in iter_class_constraint_keys(h, class_size, tuple(sorted(neighborhood))))


class FullRowEngine(_SpanEngine):
    """``_SpanEngine`` whose ``class_rows`` are every row of the family,
    generated for each neighborhood and interned into the shared interner."""

    def class_rows(self, class_size: int, neighborhood: frozenset[int]) -> tuple[int, ...]:
        key = (class_size, neighborhood)
        got = self._rows.get(key)
        if got is None:
            ids = self.interner
            # a row's keys are distinct, so the sum of their bits is their OR
            got = self._rows[key] = tuple(sorted(
                sum(1 << ids[mk] for mk in keys)
                for keys in iter_class_constraint_keys(self.h, class_size, tuple(sorted(neighborhood)))))
        return got


def _reference_refuted(engine: _SpanEngine, g: Graph, pi, p1, p2, targets) -> bool:
    """Some monomial of p1's rows mentions a vertex of p2, and no class
    other than p1 and p2 has all of its vertices as neighbours. Decodes
    the generated rows, so it does not rely on the library's rule for
    which vertex sets the rows hold."""
    keys = list(engine.interner)   # the keys by index
    others = [g.neighborhood_of_set(c) for c in pi if c != p1 and c != p2]
    for row in targets:
        idx = 0
        while row:
            if row & 1:
                vs = {v for v, _c in keys[idx]}
                if vs & p2 and not any(vs <= nb for nb in others):
                    return True
            row >>= 1
            idx += 1
    return False


def _reference_rule2(engine: _SpanEngine, g: Graph, pi, p1, p2) -> Graph | None:
    removed = edges_between(g, p1, p2)
    if not removed:
        return None
    # rule 1 has passed every class the test reads, so the engine's row
    # and estimate memos need no size cap
    omega = engine.h.clique_number
    assert all(len(cls) <= omega for cls in pi), "a class above omega(H) reached rule 2"
    stats = engine.stats
    stats.span_tests += 1
    targets = engine.class_rows(len(p1), g.neighborhood_of_set(p1))
    if not targets:
        return g.without_edges(removed)
    refuted = _reference_refuted(engine, g, pi, p1, p2, targets)
    stats.span_refuted += refuted

    sources = []
    for cls in pi:
        nbhd = g.neighborhood_of_set(cls)
        if cls == p1:
            nbhd -= p2
        elif cls == p2:
            nbhd -= p1
        sources.append((engine.estimate_rows(len(cls), len(nbhd)),
                        min(cls), len(cls), nbhd))
    sources.sort(key=lambda s: (s[0], s[1]))

    basis = MaskBasis()
    pending = list(targets)
    in_span = False
    rank = 0
    for _est, _anchor, size, nbhd in sources:
        rows = engine.class_rows(size, nbhd)
        if not rows:
            continue
        grew = False
        for mask in rows:
            grew |= basis.insert(mask)
        stats.rows_considered += row_count(engine.h, size, nbhd)
        rank = basis.rank
        if grew:
            pending = [t for t in pending if not basis.contains(t)]
            if not pending:
                in_span = True
                break
    assert not (refuted and in_span), "refuted a span test that succeeds"
    if not refuted:
        # a refuted test builds no basis in the library
        stats.max_basis_rank = max(stats.max_basis_rank, rank)
    return g.without_edges(removed) if in_span else None


def _reference_pairs(g: Graph, pi, engine: _SpanEngine):
    classes = sorted(pi, key=min)
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


def reference_kernelize(g: Graph, h) -> KernelResult:
    """Rule 1, then rule 3, then rule 2 over the ranked pairs; restart the
    pass from scratch after any successful application.

    Every application is logged as the library logs it, (rule, p1, p2).
    The driver checks that each step removed exactly what its classes fix:
    rule 2 every pair of p1 x p2, rule 3 a clique with no outside
    neighbour. Replaying the log must then give the graph this driver held
    after every application.
    """
    start = time.perf_counter()
    stats = KernelStats(input_n=g.n, input_m=g.m,
                        twin_classes=len(twin_decomposition(g)))
    engine = FullRowEngine(h, stats)
    history = []
    held: list[Graph] = []
    work = g

    def record(rule: str, p1, p2, reduced: Graph, lost) -> None:
        assert set(work.edges()) - set(reduced.edges()) == lost, \
            f"{rule} on {sorted(p1)}, {sorted(p2)} removed other edges than its classes fix"
        history.append((rule, p1, p2))
        held.append(reduced)

    trivial = False
    while True:
        stats.passes += 1
        pi = twin_decomposition(work)
        big = next((cls for cls in pi if len(cls) > h.clique_number), None)
        if big is not None:
            stats.rule1 += 1
            trivial = True
            record("rule1", big, frozenset(), work, set())
            break
        isolated = next((cls for cls in pi if len(cls) <= h.clique_number
                         and not work.neighborhood_of_set(cls)), None)
        if isolated is not None:
            reduced = work.without_vertices(isolated)
            stats.rule3 += 1
            stats.removed_vertices += work.n - reduced.n
            stats.removed_edges += work.m - reduced.m
            record("rule3", isolated, frozenset(), reduced,
                   set(itertools.combinations(sorted(isolated), 2)))
            work = reduced
            continue
        for p1, p2 in _reference_pairs(work, pi, engine):
            reduced = _reference_rule2(engine, work, pi, p1, p2)
            if reduced is not None:
                stats.rule2 += 1
                stats.removed_edges += work.m - reduced.m
                record("rule2", p1, p2, reduced, {(min(u, v), max(u, v)) for u in p1 for v in p2})
                work = reduced
                break
        else:
            break

    assert [(x, x.labels) for x in held] == [(x, x.labels) for x in replay(g, history)], \
        "the removal log does not replay to the graphs this driver held"
    stats.kernel_n = 0 if trivial else work.n
    stats.kernel_m = 0 if trivial else work.m
    stats.time_seconds = time.perf_counter() - start
    return KernelResult(graph=None if trivial else work, trivial_no=trivial,
                        stats=stats, history=tuple(history))


def replay(g: Graph, history) -> list[Graph]:
    """The graph after each step of a removal log, starting from g.

    A twin class is a clique and adjacent classes are joined completely, so
    a rule 2 step removes every pair of p1 x p2 and a rule 3 step the class
    p1. A rule 1 step removes nothing, so its graph is the one before it.
    """
    out = []
    for rule, p1, p2 in history:
        if rule == "rule2":
            g = g.without_edges((u, v) for u in p1 for v in p2)
        elif rule == "rule3":
            g = g.without_vertices(p1)
        out.append(g)
    return out


def run_summary(res: KernelResult) -> tuple:
    """Everything two kernelization drivers must agree on: the answer, the
    kernel with its labels, every counter except the time, and the removal
    log."""
    stats = {k: v for k, v in dataclasses.asdict(res.stats).items() if k != "time_seconds"}
    graph = None if res.graph is None else (res.graph, res.graph.labels)
    return res.trivial_no, graph, stats, res.history
