"""Graph primitives: adjacency-set graphs, target-graph analysis, twin classes.

Vertices are integers (dense 0-based ids at parse time). Operations that
remove vertices or edges return new graphs and keep the surviving ids
unchanged, so every reduced graph is literally a subgraph of its input.
All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class CapacityError(RuntimeError):
    """An exact routine was asked to exceed its configured size guard."""


def _check_guard(n: int, guard: int | None, what: str) -> None:
    """Raise CapacityError when n vertices exceed ``guard`` (None: no limit)."""
    if guard is not None and n > guard:
        raise CapacityError(f"{what} guard exceeded: {n} > {guard} vertices")


class PatternError(ValueError):
    """The target graph is unusable for homomorphism kernelization."""


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph.

    ``vertices`` is a strictly increasing tuple of ids; ``adj`` maps every
    vertex to the frozenset of its neighbours. Self-loops are rejected.
    ``labels`` holds the external names actually given, for output
    fidelity; it is ignored by equality-sensitive algorithms. A vertex
    without a label is named by its 1-based id, as in graph files.
    """

    vertices: tuple[int, ...]
    adj: dict[int, frozenset[int]]
    labels: dict[int, str] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        vs = self.vertices
        if list(vs) != sorted(set(vs)):
            raise ValueError("vertex ids must be unique and sorted")
        if set(self.adj) != set(vs):
            raise ValueError("adjacency keys must match the vertex set")
        for v, nb in self.adj.items():
            if v in nb:
                raise ValueError(f"self-loop at vertex {v}")
            for u in nb:
                if u not in self.adj or v not in self.adj[u]:
                    raise ValueError(f"asymmetric adjacency at {{{u},{v}}}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]],
                   labels: dict[int, str] | None = None) -> "Graph":
        """Graph on vertices 0..n-1 with the given (deduplicated) edges."""
        vs = tuple(range(n))
        nb: dict[int, set[int]] = {v: set() for v in vs}
        try:
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                # store the ids of vs, not one int object per edge end; an
                # id outside 0..n-1 misses nb or vs
                nb[u].add(vs[v])
                nb[v].add(vs[u])
        except (IndexError, KeyError):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}") from None
        # freeze and drop each set in turn, so both forms never coexist
        return Graph(vs, {v: frozenset(nb.pop(v)) for v in vs}, labels or {})

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self.adj.values()) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        for u in self.vertices:
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def neighborhood_of_set(self, s: Iterable[int]) -> frozenset[int]:
        """Open neighborhood of a vertex set (neighbours outside the set)."""
        s = frozenset(s)
        out: set[int] = set()
        for v in s:
            out |= self.adj[v]
        return frozenset(out - s)

    def without_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        drop: dict[int, set[int]] = {}
        for u, v in edges:
            drop.setdefault(u, set()).add(v)
            drop.setdefault(v, set()).add(u)
        adj = {v: (nb - drop[v] if v in drop else nb) for v, nb in self.adj.items()}
        return Graph(self.vertices, adj, self.labels)

    def without_vertices(self, remove: Iterable[int]) -> "Graph":
        remove = frozenset(remove)
        vs = tuple(v for v in self.vertices if v not in remove)
        adj = {v: self.adj[v] - remove for v in vs}
        return Graph(vs, adj, {v: name for v, name in self.labels.items() if v not in remove})

    def label_of(self, v: int) -> str:
        return self.labels[v] if v in self.labels else str(v + 1)


@dataclass(eq=False)
class PatternGraph:
    """A fixed target graph with the structural parameters it derives.

    Construction fills the maximum degree and the clique number (by
    exhaustive search; the target is constant-size) and rejects an empty
    or bipartite target with ``PatternError``: for a bipartite target the
    homomorphism question degenerates to a bipartiteness test and is
    polynomial-time solvable, so there is nothing to kernelize.
    Self-loops are already impossible in ``Graph`` values.
    """

    graph: Graph
    max_degree: int = field(init=False)
    clique_number: int = field(init=False)
    _omega_memo: dict[frozenset[int], int] = field(default_factory=dict, repr=False)
    # per-pattern row pieces, filled on first use by hckernel.constraints
    _sequence_memo: dict[int, tuple] = field(default_factory=dict, repr=False)
    _selector_memo: tuple | None = field(default=None, repr=False)
    # per (capped class size, |N|): a family's independent rows, filled on
    # first use by hckernel.kernelization
    _template_memo: dict[tuple[int, int], tuple] = field(default_factory=dict, repr=False)
    # per (class size, |N|): a family's row count, filled by class_row_count
    _row_count_memo: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        h = self.graph
        if h.n == 0:
            raise PatternError("empty target graph")
        if _bipartition(h):
            raise PatternError(
                "bipartite target graph rejected: the coloring question is "
                "polynomial-time solvable, nothing to kernelize")
        self.max_degree = max(h.degree(v) for v in h.vertices)
        self.clique_number = _max_clique_size(h)

    @property
    def color_ids(self) -> tuple[int, ...]:
        return self.graph.vertices

    @property
    def num_colors(self) -> int:
        return self.graph.n

    def common_neighborhood(self, colors: Iterable[int]) -> frozenset[int]:
        """Colors adjacent in the target to every color in the sequence."""
        out: frozenset[int] | None = None
        for c in colors:
            out = self.graph.adj[c] if out is None else out & self.graph.adj[c]
        if out is None:
            raise ValueError("common neighborhood of an empty sequence")
        return out

    def omega_of(self, colors: frozenset[int]) -> int:
        """Clique number of the subgraph induced on a color subset (memoized)."""
        colors = frozenset(colors)
        got = self._omega_memo.get(colors)
        if got is None:
            got = _max_clique_size(self.graph, colors)
            self._omega_memo[colors] = got
        return got


def twin_decomposition(g: Graph) -> tuple[frozenset[int], ...]:
    """Partition V(g) into maximal classes of mutual true twins.

    True twins share their closed neighborhood, hence are adjacent, so each
    class induces a clique. Classes are ordered by smallest member.
    Hashing the closed neighborhood of every vertex gives the unique
    maximal decomposition in expected O(n+m) time. An empty graph yields
    an empty class sequence.
    """
    groups: dict[frozenset[int], list[int]] = {}
    for v in g.vertices:
        key = g.adj[v] | {v}
        groups.setdefault(key, []).append(v)
    # vertices come in increasing order, so a class first appears at its
    # smallest member
    return tuple(frozenset(vs) for vs in groups.values())


def _non_twin_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of g whose endpoints are not true twins, in ``edges`` order."""
    cls = {v: i for i, c in enumerate(twin_decomposition(g)) for v in c}
    return [(u, v) for u, v in g.edges() if cls[u] != cls[v]]


def is_twin_cover(g: Graph, s: Iterable[int]) -> bool:
    """True iff every edge of g has an endpoint in s or joins true twins."""
    s = frozenset(s)
    unknown = s - set(g.vertices)
    if unknown:
        raise ValueError(f"unknown vertex ids in cover candidate: {sorted(unknown)}")
    return all(u in s or v in s for u, v in _non_twin_edges(g))


TWIN_COVER_GUARD = 30


def min_twin_cover(g: Graph, guard: int | None = TWIN_COVER_GUARD) -> frozenset[int]:
    """Exact minimum twin-cover by branch and bound: a smallest vertex set
    meeting every edge whose endpoints are not true twins.

    Exponential in the worst case, so graphs above the guard are refused.
    This is a measurement tool for statistics and tests; the kernelization
    itself never calls it.
    """
    _check_guard(g.n, guard, "min_twin_cover")
    edges = _non_twin_edges(g)
    if not edges:
        return frozenset()

    # Greedy upper bound: repeatedly pick the endpoint covering the most
    # remaining non-twin edges. Seeds the branch-and-bound cutoff.
    greedy: set[int] = set()
    left = list(edges)
    while left:
        count: dict[int, int] = {}
        for u, v in left:
            count[u] = count.get(u, 0) + 1
            count[v] = count.get(v, 0) + 1
        pick = max(count, key=lambda v: (count[v], -v))
        greedy.add(pick)
        left = [e for e in left if pick not in e]

    return _extend_cover(edges, 0, set(), frozenset(greedy))


def _extend_cover(edges: list[tuple[int, int]], start: int, chosen: set[int],
                  best: frozenset[int]) -> frozenset[int]:
    """The smaller of best and the smallest cover extending ``chosen`` by
    an endpoint of each uncovered edge in ``edges[start:]`` (best wins
    ties); module-level, like ``_grow_clique``, so it leaves no cycle."""
    if len(chosen) >= len(best):
        return best
    for idx in range(start, len(edges)):
        u, v = edges[idx]
        if u not in chosen and v not in chosen:
            break
    else:
        return frozenset(chosen)
    for w in (u, v):
        chosen.add(w)
        best = _extend_cover(edges, idx + 1, chosen, best)
        chosen.discard(w)
    return best


def _bipartition(g: Graph) -> bool:
    """BFS 2-coloring; True iff g has no odd cycle."""
    color: dict[int, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in g.adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def _max_clique_size(g: Graph, within: frozenset[int] | None = None) -> int:
    """Exhaustive maximum clique on a constant-size graph."""
    verts = sorted(within) if within is not None else list(g.vertices)
    return _grow_clique(g.adj, 0, verts, 0)


def _grow_clique(adj: dict[int, frozenset[int]], size: int, candidates: list[int],
                 best: int) -> int:
    """The larger of best and the largest clique that extends a clique of
    ``size`` vertices by common neighbours from ``candidates``.

    A module-level function rather than a closure: a recursive closure
    reaches itself through its cell, a reference cycle per call.
    """
    best = max(best, size)
    for i, v in enumerate(candidates):
        if size + len(candidates) - i <= best:
            break
        best = _grow_clique(adj, size + 1, [u for u in candidates[i + 1:] if u in adj[v]], best)
    return best

