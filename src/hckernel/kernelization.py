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

* the twin classes with their open neighborhoods are the driver's only
  graph. A class is a clique and two adjacent classes are joined
  completely, so the classes fix every adjacency and every removed edge,
  and the kernel is built from them once, at the end;
* the classes and the pair ranking are kept up to date, not recomputed:
  rule 2 changes only the two classes whose edges it deletes;
* the partners of a class are listed only when the ranking reaches it;
* removing an isolated class leaves every other class as it was, so all
  isolated classes of a pass go at once, in order of smallest member, each
  counted as the pass it would take on its own;
* a rule 2 test that fails is usually refuted from the neighborhoods
  alone, before any row is built: a monomial of the tested class that
  mentions a vertex of p2 and lies in no other class's neighborhood can
  come from no source row, and the neighborhood's size fixes the vertex
  sets (see ``_SpanEngine``). A refuted test counts the rows the full
  test would have considered;
* a test that is not refuted reads a basis of each class's rows, not all
  of them: the family's template, found once per target (``_template``)
  in closed form, without elimination, for every target and class size.
  It spans the same space, so the test and every basis rank are those of
  the full family;
* the template's one-monomial rows (the kind-Q rows) enter the basis as
  one mask of free monomials per family (see ``gf2``), not one row each.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import merge
from itertools import combinations, islice
from operator import itemgetter
from typing import Iterator

# iter_class_constraint_keys is unused here: perfbench/spans.py traces it under this name
from .constraints import (class_row_count, closed_form_basis, iter_class_constraint_keys,
                          monomial_size)
from .gf2 import BACKEND, MaskBasis, MonomialInterner
from .graphs import Graph, PatternGraph, twin_decomposition


@dataclass(slots=True)
class KernelStats:
    """Counters collected while kernelizing one instance.

    ``span_tests`` counts rule 2 tests and ``span_refuted`` those among
    them that failed on the neighborhood certificate, without elimination.
    ``rows_considered`` counts the source rows every test would feed to
    the basis, refuted ones included. ``max_basis_rank`` is the largest
    basis an elimination actually built: a refuted test builds none.
    """

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
    span_refuted: int = 0
    rows_considered: int = 0
    max_basis_rank: int = 0
    time_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "version": 2,
            "input": {"n": self.input_n, "m": self.input_m},
            "kernel": {"n": self.kernel_n, "m": self.kernel_m},
            "twin_classes": self.twin_classes,
            "passes": self.passes,
            "rules": {"rule1": self.rule1, "rule2": self.rule2, "rule3": self.rule3},
            "removed": {"vertices": self.removed_vertices, "edges": self.removed_edges},
            "span_tests": self.span_tests,
            "span_refuted": self.span_refuted,
            "rows_considered": self.rows_considered,
            "max_basis_rank": self.max_basis_rank,
            "time_seconds": self.time_seconds,
            "gf2_backend": BACKEND,
        }


@dataclass
class KernelResult:
    """Outcome of a kernelization run.

    Either ``trivial_no`` is set (rule 1 fired; ``graph`` is None) or
    ``graph`` holds the kernel, a subgraph of the input. ``history`` logs
    every application in order as a triple (rule, p1, p2): ``("rule2", p1,
    p2)`` for the ordered pair of twin classes whose edges went, and
    ``("rule1", cls, frozenset())`` or ``("rule3", cls, frozenset())`` for
    the offending or removed class. The classes fix the removals: a twin
    class is a clique and two adjacent classes are joined completely, so
    rule 2 removes p1 x p2, rule 3 the class and rule 1 nothing.
    """

    graph: Graph | None
    trivial_no: bool
    stats: KernelStats
    history: tuple[tuple[str, frozenset[int], frozenset[int]], ...]


class _TwinClasses:
    """The working graph as its twin classes, with everything the rule 2
    tests read: open neighborhoods, the class of every vertex and the
    ranking. A vertex's neighbours are the other members of its class and
    the class's open neighborhood.

    A class is keyed by its smallest member (its anchor), so comparing
    anchors compares smallest members. ``ranked`` holds (row estimate,
    anchor) for every class in increasing order; it orders both the tested
    classes and the generating classes of a span test. ``total`` is the
    sum of its estimates.

    Deleting E(p1, p2) changes the closed neighborhoods of p1 and p2 only,
    so the driver re-keys just those two classes (partition refinement;
    Habib, Paul & Viennot, IJFCS 1999), and each may merge with the class
    whose closed neighborhood it now equals. Every other entry stays valid.
    """

    def __init__(self, g: Graph, classes: tuple[frozenset[int], ...], h: PatternGraph):
        self.h = h
        self.members: dict[int, frozenset[int]] = {}
        self.nbhd: dict[int, frozenset[int]] = {}
        self.class_of: dict[int, int] = {}
        self._by_closed: dict[frozenset[int], int] = {}
        for cls in classes:
            nbhd = g.neighborhood_of_set(cls)
            self._put(cls, nbhd, nbhd | cls)
        self.ranked = sorted(map(self.entry, self.members))
        self.total = sum(est for est, _a in self.ranked)

    def _put(self, cls: frozenset[int], nbhd: frozenset[int], closed: frozenset[int]) -> int:
        anchor = min(cls)
        self.members[anchor] = cls
        self.nbhd[anchor] = nbhd
        self._by_closed[closed] = anchor
        for v in cls:
            self.class_of[v] = anchor
        return anchor

    def entry(self, anchor: int) -> tuple[int, int]:
        """The class's entry in ``ranked``."""
        return class_row_count(self.h, len(self.members[anchor]), len(self.nbhd[anchor])), anchor

    def add(self, cls: frozenset[int], nbhd: frozenset[int]) -> int:
        """Insert a class of mutual twins, merging it with the class of the
        same closed neighborhood if there is one; returns its anchor."""
        closed = nbhd | cls
        twin = self._by_closed.get(closed)
        if twin is not None:
            cls = cls | self.members[twin]
            self.drop(twin)
            nbhd = closed - cls
        anchor = self._put(cls, nbhd, closed)
        entry = self.entry(anchor)
        insort(self.ranked, entry)
        self.total += entry[0]
        return anchor

    def drop(self, anchor: int) -> frozenset[int]:
        """Remove a class and return its members."""
        ranked = self.ranked
        entry = self.entry(anchor)
        del ranked[bisect_left(ranked, entry)]
        self.total -= entry[0]
        cls = self.members.pop(anchor)
        del self._by_closed[self.nbhd.pop(anchor) | cls]
        for v in cls:
            del self.class_of[v]
        return cls

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


def _template(h: PatternGraph, class_size: int, s: int) -> tuple[tuple, ...]:
    """A basis of a family over positions 0..s-1: the rows of
    ``closed_form_basis``, found without elimination.

    Rows whose monomials have w (position, color) pairs each are kept
    together, in basis order, as (w, pick, counts): ``pick`` is one
    ``itemgetter`` that picks all their pairs, monomial after monomial,
    from a table holding (N[i], c) at ``i * |V(H)| + index of c``, and
    ``counts`` holds each row's number of monomials. Rows of one monomial
    form groups of their own, with ``counts`` None. The increasing map
    i -> N[i] of a sorted neighborhood keeps every key sorted. Memoized on
    the pattern per (class size capped at omega(H)+1, s) and built on
    first use.
    """
    key = (min(class_size, h.clique_number + 1), s)
    got = h._template_memo.get(key)
    if got is None:
        index = {c: i for i, c in enumerate(h.color_ids)}
        width = len(index)
        groups: dict[tuple[int, bool], tuple[list[int], list[int]]] = {}
        for keys in closed_form_basis(h, class_size, tuple(range(s))):
            at, counts = groups.setdefault((len(keys[0]), len(keys) == 1), ([], []))
            at += [i * width + index[c] for mk in keys for i, c in mk]
            counts.append(len(keys))
        # one index would make itemgetter return the bare pair
        got = h._template_memo[key] = tuple(
            (w, itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1)),
             None if unit else tuple(counts))
            for (w, unit), (at, counts) in groups.items())
    return got


class _SpanEngine:
    """Shared interner plus per-neighborhood row cache for rule 2 tests.

    A class feeds a test only its family's template (``_template``), which
    spans the same space as all of the family's rows: every test answers
    the same and every basis reaches the same rank after each source.
    The template's one-monomial rows are cached as one int, the OR of
    their bits, and enter the basis as free monomials (``MaskBasis.
    insert_units``): same span, same rank, one mask instead of one row
    per monomial, which for a large neighborhood is most of the rows.
    Rows depend only on (class size, open neighborhood), so repeated tests
    across the run reuse the cached bitmasks. Rule 1 has passed every
    class a test sees, so no class size exceeds omega(H).

    Most failing tests are refuted before any row is built. Every row
    mentions only variables of vertices in its own class's neighborhood.
    After E(p1, p2) is deleted, a vertex of p2 lies in neither N(p1) - p2
    nor N(p2) - p1, so a monomial of p1's rows whose vertex set T meets p2
    occurs in a source row only if T lies in N(c) for some class c other
    than p1 and p2. When no such c exists, no sum of source rows has that
    monomial, while the target row that holds it has it with coefficient
    1: the test fails. The vertex sets follow from the shape of the rows
    (``monomial_size``): every k-subset of N(p1) for the largest size k,
    and subsets of those. A superset of an uncovered set that meets p2 is
    uncovered and meets p2 too, so only the k-subsets are tried.

    Row families grow like |N(P)|**(Delta+1), so classes are fed into the
    basis cheapest first and the test exits as soon as every target is
    covered: the span only grows with more generators, hence membership
    against a prefix already proves membership against the full set.
    Expensive families are materialized only when the test is going to
    need them, which in practice happens after the graph has shrunk.
    """

    def __init__(self, h: PatternGraph, stats: KernelStats):
        self.h = h
        self.stats = stats   # span tests count into the run's stats
        self.interner = MonomialInterner()
        self._rows: dict[tuple[int, frozenset[int]], tuple[int, tuple[int, ...]]] = {}

    def class_rows(self, class_size: int,
                   neighborhood: frozenset[int]) -> tuple[int, tuple[int, ...]]:
        """A class's template rows relabelled onto its neighborhood, as
        (unit_mask, multi_rows): the OR of the bits of the one-monomial
        rows, and the bitmasks of the other rows in template order. Those
        rows and one row per unit bit are a basis of its family's span."""
        key = (class_size, neighborhood)
        got = self._rows.get(key)
        if got is None:
            ids = self.interner   # indexing interns an unseen key
            colors = self.h.color_ids
            table = [(v, c) for v in sorted(neighborhood) for c in colors]
            units = 0
            masks = []
            for width, pick, counts in _template(self.h, class_size, len(neighborhood)):
                keys = zip(*[iter(pick(table))] * width)
                if counts is None:
                    # set the bits in a byte buffer: ORing them into one
                    # growing int would copy it once per bit
                    idxs = list(map(ids.__getitem__, keys))
                    bits = bytearray(max(idxs) // 8 + 1)
                    for idx in idxs:
                        bits[idx >> 3] |= 1 << (idx & 7)
                    units |= int.from_bytes(bits, "little")
                    continue
                for m in counts:
                    mask = 0
                    for mk in islice(keys, m):
                        mask |= 1 << ids[mk]
                    masks.append(mask)
            got = self._rows[key] = (units, tuple(masks))
        return got

    def _refuted(self, tc: _TwinClasses, a1: int, a2: int) -> bool:
        """The neighborhood certificate of a failing test (class docstring):
        some monomial of p1's rows meets p2 and lies in the neighborhood of
        no other class."""
        p2 = tc.members[a2]
        nbhd = tc.nbhd
        n1 = nbhd[a1]
        covers = None
        for t in combinations(n1, monomial_size(self.h, len(tc.members[a1]), len(n1))):
            if p2.isdisjoint(t):
                continue   # p1's reduced rows may hold it
            if covers is None:
                # a class whose neighborhood holds a vertex of p2 is joined
                # to p2; p1 is excluded, p2 is never in its own neighborhood
                class_of = tc.class_of
                covers = [nbhd[c] for c in {class_of[u] for u in nbhd[a2]} if c != a1]
            if not any(nb.issuperset(t) for nb in covers):
                return True
        return False

    def span_test(self, tc: _TwinClasses, a1: int, a2: int) -> bool:
        """Rule 2 on the ordered pair (p1, p2) of classes, given by anchor.

        True iff every row of p1 lies in the span of the rows of all
        classes once E(p1, p2) is deleted. Deleting those edges changes
        only the open neighborhoods of p1 and p2; the classes stay a
        partial twin decomposition of the reduced graph, so all other
        classes reuse their rows. The rows a source adds to
        ``rows_considered`` are its exact estimate, refuted or not.
        """
        stats = self.stats
        stats.span_tests += 1
        members = tc.members
        p1, p2 = members[a1], members[a2]
        if not class_row_count(self.h, len(p1), len(tc.nbhd[a1])):
            # empty target set is vacuously in any span
            return True

        reduced = {a1: tc.nbhd[a1] - p2, a2: tc.nbhd[a2] - p1}
        # the two classes' ranking entries once E(p1, p2) is deleted
        swapped = sorted((class_row_count(self.h, len(members[a]), len(nbhd)), a)
                         for a, nbhd in reduced.items())
        if self._refuted(tc, a1, a2):
            # a failing test feeds every source; the estimates are exact
            stats.span_refuted += 1
            stats.rows_considered += (tc.total
                                      - sum(tc.entry(a)[0] for a in reduced)
                                      + sum(est for est, _a in swapped))
            return False

        basis = MaskBasis()
        units, pending = self.class_rows(len(p1), tc.nbhd[a1])
        pending = list(pending)
        for est, a in merge((e for e in tc.ranked if e[1] not in reduced), swapped):
            unit_mask, rows = self.class_rows(len(members[a]), reduced.get(a, tc.nbhd[a]))
            if not (unit_mask or rows):
                continue
            rank = basis.rank
            basis.insert_units(unit_mask)
            for mask in rows:
                basis.insert(mask)
            stats.rows_considered += est
            grown = basis.rank
            stats.max_basis_rank = max(stats.max_basis_rank, grown)
            if grown == rank:
                continue
            # covered targets stay covered: check until the first that is
            # not; a free unit target is covered, other unit bits one by one
            units &= ~basis.free
            while units and basis.contains(units & -units):
                units &= units - 1
            if units:
                continue
            while pending and basis.contains(pending[-1]):
                pending.pop()
            if not pending:
                return True
        return False


def kernelize(g: Graph, h: PatternGraph) -> KernelResult:
    """Apply the three reduction rules to a fixpoint.

    Every pass runs rule 1, then rule 3, then rule 2 over class pairs in
    deterministic order, and the next pass starts after the first success
    of rule 2. The applications, their order, the kernel and the counters
    are exactly those of recomputing the twin decomposition and restarting
    after every single application; the twin classes are maintained
    instead (see the module docstring). Every application is logged in
    ``KernelResult.history``.
    """
    start = time.perf_counter()
    pi = twin_decomposition(g)
    stats = KernelStats(input_n=g.n, input_m=g.m, twin_classes=len(pi))
    engine = _SpanEngine(h, stats)
    tc = _TwinClasses(g, pi, h)
    history = []

    changed = sorted(tc.members)   # classes whose rule 1/3 status may differ
    trivial = False
    while True:
        stats.passes += 1
        big = next((a for a in changed if len(tc.members[a]) > h.clique_number), None)
        if big is not None:
            stats.rule1 += 1
            trivial = True
            history.append(("rule1", tc.members[big], frozenset()))
            break
        for a in changed:
            if tc.nbhd[a]:
                continue
            # rule 3: rule 1 passed every changed class, so this one is no
            # larger than omega(H); the next pass would find every other
            # class unchanged
            cls = tc.drop(a)
            history.append(("rule3", cls, frozenset()))
            stats.rule3 += 1
            stats.removed_vertices += len(cls)
            stats.removed_edges += len(cls) * (len(cls) - 1) // 2
            stats.passes += 1
        for a1, a2 in tc.pairs():
            if engine.span_test(tc, a1, a2):
                break
        else:
            break
        # rule 2; twin classes joined by one edge are joined completely
        p1, p2 = tc.members[a1], tc.members[a2]
        history.append(("rule2", p1, p2))
        n1, n2 = tc.nbhd[a1] - p2, tc.nbhd[a2] - p1
        tc.drop(a1)
        tc.drop(a2)
        changed = sorted((tc.add(p1, n1), tc.add(p2, n2)))
        stats.rule2 += 1
        stats.removed_edges += len(p1) * len(p2)

    kernel = None
    if not trivial:
        # a vertex is adjacent to its class's other members and to its
        # class's open neighborhood
        adj = {}
        for a, cls in tc.members.items():
            closed = tc.nbhd[a] | cls
            for v in cls:
                adj[v] = closed - {v}
        vs = tuple(sorted(adj))
        kernel = Graph(vs, {v: adj[v] for v in vs},
                       {v: name for v, name in g.labels.items() if v in adj})
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
