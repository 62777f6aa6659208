"""Reduction rules and the fixpoint driver that shrinks host graphs.

Three rules are applied exhaustively:

1. some twin class is larger than the target's clique number: the instance
   is a trivial no;
2. all constraint rows of one class lie in the GF(2) span of the rows the
   graph generates after deleting the edges between two classes: delete
   those edges;
3. an isolated class no larger than the target's clique number: delete it.

Each application removes at least one vertex or edge, so the driver
terminates. The result is always a subgraph of the input. Each rule is
safe on its own, whatever was applied before it (the twin-cover kernel of
Ganian, IPEC 2011), so the order below is a choice made for speed and
reproducibility, not for soundness.

The driver applies the rules in one fixed order. A pass checks rule 1,
then rule 3, then tests rule 2 on class pairs, cheapest tested class
first, and the next pass starts after the first success. The order is an
invariant: the applications, the kernel and every ``KernelStats`` counter
are those of recomputing the twin decomposition and restarting from
scratch after every application. Only the work per application is less:

* the driver edits a mutable adjacency owned by the call and freezes it
  into a ``Graph`` once, at the end;
* the twin classes, their open neighborhoods and the pair ranking are kept
  up to date, not recomputed: rule 2 changes only the two classes whose
  edges it deletes;
* the partners of a class are listed only when the ranking reaches it;
* removing an isolated class leaves every other class as it was, so all
  isolated classes of a pass go at once, in order of smallest member, each
  counted as the pass it would take on its own.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import AbstractSet, Iterator, Mapping

from .constraints import color_sequences, iter_class_constraint_keys
from .gf2 import BACKEND, MaskBasis, MonomialInterner
from .graphs import Graph, PatternGraph, TwinDecomposition, twin_decomposition


@dataclass(slots=True)
class KernelStats:
    """Counters collected while kernelizing one instance."""

    input_n: int = 0
    input_m: int = 0
    kernel_n: int = 0
    kernel_m: int = 0
    twin_classes: int = 0
    passes: int = 0
    rule1: int = 0
    rule2: int = 0
    rule3: int = 0
    removed_vertices: int = 0
    removed_edges: int = 0
    span_tests: int = 0
    rows_considered: int = 0
    max_basis_rank: int = 0
    time_seconds: float = 0.0
    backend: str = BACKEND

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "input": {"n": self.input_n, "m": self.input_m},
            "kernel": {"n": self.kernel_n, "m": self.kernel_m},
            "twin_classes": self.twin_classes,
            "passes": self.passes,
            "rules": {"rule1": self.rule1, "rule2": self.rule2, "rule3": self.rule3},
            "removed": {"vertices": self.removed_vertices, "edges": self.removed_edges},
            "span_tests": self.span_tests,
            "rows_considered": self.rows_considered,
            "max_basis_rank": self.max_basis_rank,
            "time_seconds": self.time_seconds,
            "gf2_backend": self.backend,
        }


@dataclass(frozen=True)
class AppliedRule:
    """One successful rule application; ``graph`` is the state afterwards."""

    rule: str
    detail: str
    graph: Graph


@dataclass
class KernelResult:
    """Outcome of a kernelization run.

    Either ``trivial_no`` is set (rule 1 fired; ``graph`` is None) or
    ``graph`` holds the kernel, a subgraph of the input.
    """

    graph: Graph | None
    trivial_no: bool
    stats: KernelStats
    history: tuple[AppliedRule, ...] = field(default_factory=tuple)


class _TwinClasses:
    """Twin classes of a working graph with everything the rule 2 tests
    read: open neighborhoods, the class of every vertex and the ranking.

    A class is keyed by its smallest member (its anchor), so comparing
    anchors compares smallest members. ``ranked`` holds (row estimate,
    anchor) for every class in increasing order; it orders both the tested
    classes and the generating classes of a span test.

    Deleting E(p1, p2) changes the closed neighborhoods of p1 and p2 only,
    so the driver re-keys just those two classes (partition refinement;
    Habib, Paul & Viennot, IJFCS 1999), and each may merge with the class
    whose closed neighborhood it now equals. Every other entry stays valid.
    """

    def __init__(self, g: Graph, pi: TwinDecomposition, engine: "_SpanEngine"):
        self._estimate = engine.estimate_rows
        self.members: dict[int, frozenset[int]] = {}
        self.nbhd: dict[int, frozenset[int]] = {}
        self.class_of: dict[int, int] = {}
        self._est: dict[int, int] = {}
        self._by_closed: dict[frozenset[int], int] = {}
        self._sorted: dict[int, tuple[int, ...]] = {}
        for cls in pi.classes:
            self._put(cls, g.neighborhood_of_set(cls))
        self.ranked = sorted((est, anchor) for anchor, est in self._est.items())

    def _put(self, cls: frozenset[int], nbhd: frozenset[int]) -> int:
        anchor = min(cls)
        self.members[anchor] = cls
        self.nbhd[anchor] = nbhd
        self._by_closed[nbhd | cls] = anchor
        for v in cls:
            self.class_of[v] = anchor
        self._est[anchor] = self._estimate(len(cls), len(nbhd))
        return anchor

    def add(self, cls: frozenset[int], nbhd: frozenset[int]) -> int:
        """Insert a class of mutual twins, merging it with the class of the
        same closed neighborhood if there is one; returns its anchor."""
        closed = nbhd | cls
        twin = self._by_closed.get(closed)
        if twin is not None:
            cls = cls | self.members[twin]
            self.drop(twin)
            nbhd = closed - cls
        anchor = self._put(cls, nbhd)
        insort(self.ranked, (self._est[anchor], anchor))
        return anchor

    def drop(self, anchor: int) -> frozenset[int]:
        """Remove a class and return its members."""
        cls = self.members.pop(anchor)
        del self._by_closed[self.nbhd.pop(anchor) | cls]
        for v in cls:
            del self.class_of[v]
        self._sorted.pop(anchor, None)
        ranked = self.ranked
        del ranked[bisect_left(ranked, (self._est.pop(anchor), anchor))]
        return cls

    def reranked(self, estimates: Mapping[int, int]) -> list[tuple[int, int]]:
        """A copy of ``ranked`` with the given classes' estimates replaced."""
        out = list(self.ranked)
        for anchor in estimates:
            del out[bisect_left(out, (self._est[anchor], anchor))]
        for anchor, est in estimates.items():
            insort(out, (est, anchor))
        return out

    def sorted_nbhd(self, anchor: int) -> tuple[int, ...]:
        got = self._sorted.get(anchor)
        if got is None:
            got = self._sorted[anchor] = tuple(sorted(self.nbhd[anchor]))
        return got

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered class pairs joined by an edge, as anchors.

        Pairs are tried cheapest first (exact row count of the tested
        class, ties broken by smallest members): the rules are individually
        safe in any order, and deferring the combinatorially heavy classes
        lets the cheap removals shrink their neighborhoods before their row
        families are ever materialized. The partners of a class are listed
        only when the ranking reaches it.
        """
        class_of = self.class_of
        for _est, a1 in self.ranked:
            for a2 in sorted({class_of[u] for u in self.nbhd[a1]}):
                yield a1, a2


class _SpanEngine:
    """Shared interner plus per-neighborhood row cache for rule 2 tests.

    Rows depend only on (class size capped at omega(H)+1, sorted open
    neighborhood), so repeated tests across the run reuse the cached
    bitmasks. Class sizes above omega(H)+1 behave identically because
    omega(H[Y]) < size is then always true.

    Row families grow like |N(P)|**(Delta+1), so classes are fed into the
    basis cheapest first and the test exits as soon as every target is
    covered: the span only grows with more generators, hence membership
    against a prefix already proves membership against the full set.
    Expensive families are materialized only when the test is going to
    need them, which in practice happens after the graph has shrunk.
    """

    def __init__(self, h: PatternGraph):
        self.h = h
        self.interner = MonomialInterner()
        self._rows: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._estimates: dict[tuple[int, int], int] = {}
        self.span_tests = 0
        self.rows_considered = 0
        self.max_basis_rank = 0

    def _cap(self, class_size: int) -> int:
        return min(class_size, self.h.clique_number + 1)

    def estimate_rows(self, class_size: int, nbhd_size: int) -> int:
        """Exact row count for a class, without materializing anything."""
        key = (self._cap(class_size), nbhd_size)
        total = self._estimates.get(key)
        if total is not None:
            return total
        d = self.h.max_degree
        total = 0
        if nbhd_size >= d + 1:
            total += math.comb(nbhd_size, d + 1) * math.comb(self.h.num_colors, d + 1)
        for k in range(1, min(d, nbhd_size) + 1):
            total += math.comb(nbhd_size, k) * len(color_sequences(self.h, class_size, k))
        self._estimates[key] = total
        return total

    def class_rows(self, class_size: int, neighborhood: tuple[int, ...]
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Row bitmasks of a class, one per generated constraint, and the
        distinct ones in increasing order."""
        key = (self._cap(class_size), neighborhood)
        got = self._rows.get(key)
        if got is None:
            interner = self.interner
            masks = []
            for _kind, _s, _x, keys in iter_class_constraint_keys(self.h, key[0], neighborhood):
                mask = 0
                for mk in keys:
                    mask |= 1 << interner.id_of(mk)
                masks.append(mask)
            got = self._rows[key] = (tuple(masks), tuple(sorted(set(masks))))
        return got

    def span_test(self, tc: _TwinClasses, a1: int, a2: int) -> bool:
        """Rule 2 on the ordered pair (p1, p2) of classes, given by anchor.

        True iff every row of p1 lies in the span of the rows of all
        classes once E(p1, p2) is deleted. Deleting those edges changes
        only the open neighborhoods of p1 and p2; the classes stay a
        partial twin decomposition of the reduced graph, so all other
        classes reuse their rows.
        """
        self.span_tests += 1
        members = tc.members
        p1, p2 = members[a1], members[a2]
        targets, _ = self.class_rows(len(p1), tc.sorted_nbhd(a1))
        if not targets:
            # empty target set is vacuously in any span
            return True

        reduced = {a1: tuple(sorted(tc.nbhd[a1] - p2)),
                   a2: tuple(sorted(tc.nbhd[a2] - p1))}
        sources = tc.reranked({a: self.estimate_rows(len(members[a]), len(nbhd))
                               for a, nbhd in reduced.items()})

        basis = MaskBasis(self.interner.size)
        pending = list(targets)
        for _est, a in sources:
            nbhd = reduced.get(a)
            rows, distinct = self.class_rows(
                len(members[a]), tc.sorted_nbhd(a) if nbhd is None else nbhd)
            if not rows:
                continue
            basis.ensure_columns(self.interner.size)
            grew = False
            for mask in distinct:  # identical vectors inserted once
                grew |= basis.insert(mask)
            self.rows_considered += len(rows)
            self.max_basis_rank = max(self.max_basis_rank, basis.rank)
            if grew:
                pending = [t for t in pending if not basis.contains(t)]
                if not pending:
                    return True
        return False


def rule1_trivial_no(g: Graph, h: PatternGraph, pi: TwinDecomposition) -> bool:
    """True iff some twin class exceeds the target's clique number."""
    return any(len(cls) > h.clique_number for cls in pi.classes)


def rule2_try_remove_edges(g: Graph, h: PatternGraph, pi: TwinDecomposition,
                           p1: frozenset[int], p2: frozenset[int]) -> Graph | None:
    """Standalone rule 2 on one ordered pair of pi's classes; None when
    inadmissible."""
    p1, p2 = frozenset(p1), frozenset(p2)
    if p1 == p2:
        raise ValueError("rule 2 needs two distinct twin classes")
    removed = g.edges_between(p1, p2)
    if not removed:
        return None
    if p1 not in pi.classes or p2 not in pi.classes:
        raise ValueError("rule 2 needs two classes of the decomposition")
    engine = _SpanEngine(h)
    tc = _TwinClasses(g, pi, engine)
    if engine.span_test(tc, min(p1), min(p2)):
        return g.without_edges(removed)
    return None


def _isolated_small(cls: frozenset[int], nbhd: AbstractSet[int], h: PatternGraph) -> bool:
    """Rule 3's condition: no neighbours outside and at most omega(H) members."""
    return not nbhd and len(cls) <= h.clique_number


def rule3_remove_isolated_clique(g: Graph, h: PatternGraph,
                                 pi: TwinDecomposition) -> Graph | None:
    """Drop the first isolated class of size at most omega(H), if any."""
    for cls in pi.classes:
        if _isolated_small(cls, g.neighborhood_of_set(cls), h):
            return g.without_vertices(cls)
    return None


def _freeze(adj: Mapping[int, AbstractSet[int]], labels: dict[int, str] | None) -> Graph:
    """Immutable graph of the working adjacency, keeping surviving labels."""
    vs = tuple(sorted(adj))
    if labels is not None:
        labels = {v: labels[v] for v in vs if v in labels}
    return Graph(vs, {v: frozenset(adj[v]) for v in vs}, labels)


def kernelize(g: Graph, h: PatternGraph, *, record_history: bool = False) -> KernelResult:
    """Apply the three reduction rules to a fixpoint.

    Every pass runs rule 1, then rule 3, then rule 2 over class pairs in
    deterministic order, and the next pass starts after the first success
    of rule 2. The applications, their order, the kernel and the counters
    are exactly those of recomputing the twin decomposition and restarting
    after every single application; the twin classes are maintained
    instead (see the module docstring). With ``record_history`` the graph
    after every application is frozen into the history.
    """
    if h.is_bipartite:
        raise ValueError("target graph must be non-bipartite")
    start = time.perf_counter()
    pi = twin_decomposition(g)
    stats = KernelStats(input_n=g.n, input_m=g.m, twin_classes=len(pi.classes))
    engine = _SpanEngine(h)
    tc = _TwinClasses(g, pi, engine)
    history: list[AppliedRule] = []
    adj = {v: set(nb) for v, nb in g.adj.items()}

    def record(rule: str, detail: str) -> None:
        if record_history:
            history.append(AppliedRule(rule, detail, _freeze(adj, g.labels)))

    changed = sorted(tc.members)   # classes whose rule 1/3 status may differ
    trivial = False
    while True:
        stats.passes += 1
        if any(len(tc.members[a]) > h.clique_number for a in changed):
            stats.rule1 += 1
            trivial = True
            record("rule1", "twin class larger than target clique number")
            break
        for a in changed:
            if not _isolated_small(tc.members[a], tc.nbhd[a], h):
                continue
            # rule 3; the next pass would find every other class unchanged
            cls = tc.drop(a)
            for v in cls:
                del adj[v]
            stats.rule3 += 1
            stats.removed_vertices += len(cls)
            stats.removed_edges += len(cls) * (len(cls) - 1) // 2
            record("rule3", "removed isolated twin class")
            stats.passes += 1
        for a1, a2 in tc.pairs():
            if engine.span_test(tc, a1, a2):
                break
        else:
            break
        # rule 2; twin classes joined by one edge are joined completely
        p1, p2 = tc.members[a1], tc.members[a2]
        n1, n2 = tc.nbhd[a1] - p2, tc.nbhd[a2] - p1
        tc.drop(a1)
        tc.drop(a2)
        for u in p1:
            adj[u] -= p2
        for v in p2:
            adj[v] -= p1
        changed = sorted((tc.add(p1, n1), tc.add(p2, n2)))
        stats.rule2 += 1
        stats.removed_edges += len(p1) * len(p2)
        record("rule2", f"removed edges between classes {sorted(p1)} and {sorted(p2)}")

    stats.span_tests = engine.span_tests
    stats.rows_considered = engine.rows_considered
    stats.max_basis_rank = engine.max_basis_rank
    kernel = None if trivial else _freeze(adj, g.labels)
    if kernel is not None:
        stats.kernel_n = kernel.n
        stats.kernel_m = kernel.m
    stats.time_seconds = time.perf_counter() - start
    return KernelResult(
        graph=kernel,
        trivial_no=trivial,
        stats=stats,
        history=tuple(history),
    )


def kernel_size_bound(k: int, h: PatternGraph) -> int:
    """Explicit vertex bound for the kernel of a host with twin-cover size k.

    ((k * |V(H)|)**Delta(H) + 1) * (Delta(H) + 1)**2 + k, which is
    O(k**Delta(H)) for a fixed target.
    """
    if k < 0:
        raise ValueError("twin-cover size must be non-negative")
    d = h.max_degree
    return ((k * h.num_colors) ** d + 1) * (d + 1) ** 2 + k
