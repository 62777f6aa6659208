"""Hard-instance composition: blocking gadgets, the square-grid embedding
of triangle-split coloring instances into one 3-list-coloring instance,
and the conversion from list coloring to plain 3-coloring.

The composed instance is satisfiable exactly when at least one of the
input instances admits a proper 3-coloring whose independent side uses
only colors {1, 2}; the construction grows with the square root of the
number of inputs at fixed input dimensions.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import Graph
from .oracle import _K3_BAD, _search

COLORS = (1, 2, 3)

# the seven nonempty lists inside COLORS, each one shared instance: every
# vertex of a composed instance holds one of these
_LISTS = {lst: lst for lst in (frozenset(sub) for r in (1, 2, 3)
                               for sub in itertools.combinations(COLORS, r))}


@dataclass(frozen=True)
class TriangleSplitInstance:
    """Bipartite-style instance: an independent set U against disjoint
    triangles V, plus arbitrary cross edges.

    U is indexed 0..u_size-1 and V is indexed 0..3*triangle_count-1; the
    triple (3k, 3k+1, 3k+2) of V indices forms the k-th triangle. Cross
    edges are (u_index, v_index) pairs. The split-decomposition shape is
    guaranteed by construction.
    """

    u_size: int
    triangle_count: int
    cross_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.u_size < 0 or self.triangle_count < 0:
            raise ValueError("sizes must be non-negative")
        for u, v in self.cross_edges:
            if not (0 <= u < self.u_size and 0 <= v < 3 * self.triangle_count):
                raise ValueError(f"cross edge ({u},{v}) out of range")

    @property
    def dimensions(self) -> tuple[int, int]:
        return (self.u_size, self.triangle_count)

    def to_graph(self) -> Graph:
        """U vertices first (ids 0..m-1), then V (ids m..m+3n-1)."""
        m, n = self.u_size, self.triangle_count
        edges = [(u, m + v) for u, v in self.cross_edges]
        for k in range(n):
            base = m + 3 * k
            edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
        return Graph.from_edges(m + 3 * n, edges)


@dataclass(frozen=True)
class ListColoringInstance:
    """Graph plus per-vertex allowed colors, all inside {1, 2, 3}."""

    graph: Graph
    lists: dict[int, frozenset[int]]

    def __post_init__(self):
        for v in self.graph.vertices:
            lst = self.lists.get(v)
            if not lst:
                raise ValueError(f"vertex {v} has an empty or missing color list")
            if not lst <= {1, 2, 3}:
                raise ValueError(f"vertex {v} has colors outside {{1,2,3}}: {sorted(lst)}")


@dataclass(frozen=True)
class BlockingGadget:
    """List-coloring widget with distinguished ports.

    A coloring of the ports extends to a proper list coloring of the whole
    gadget exactly when at least one port carries its target color.
    """

    instance: ListColoringInstance
    ports: tuple[int, ...]
    target: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.instance.graph.n


@dataclass
class CompositionLayout:
    """Index maps and accounting for one composed instance."""

    t_given: int
    t_padded: int
    q: int
    m: int
    n: int
    s_ids: dict[tuple[int, int, int], int]   # (i, k, l) -> vertex
    t_ids: dict[tuple[int, int], int]        # (j, k) -> vertex
    gadget_counts: dict[int, int]      # step (5..8) -> gadgets placed
    gadget_vertices: dict[int, int]    # step (5..8) -> their vertices
    total_vertices: int
    total_edges: int

    def vertex_terms(self) -> dict[str, int]:
        by_step = self.gadget_vertices
        return {
            "s_block": self.q * 3 * self.n * self.m,
            "t_block": self.q * 3 * self.n,
            "selector_rows": 2 * self.q,
            "selector_gadgets": by_step[5] + by_step[6],
            "copy_gadgets": by_step[7],
            "triangle_gadgets": by_step[8],
        }

    def manifest(self) -> dict:
        terms = self.vertex_terms()
        return {
            "version": 1,
            "t_given": self.t_given,
            "t_padded": self.t_padded,
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "vertex_terms": terms,
            "sqrt_t_proportional_terms": sorted(terms),
            "gadget_counts": {f"step{s}": c for s, c in self.gadget_counts.items()},
            "list_vertices": self.total_vertices,
            "list_edges": self.total_edges,
            "plain_vertices": self.total_vertices + 3,
        }


class _InstanceBuilder:
    def __init__(self):
        self.lists: list[frozenset[int]] = []
        self.labels: dict[int, str] = {}
        self.edges: list[tuple[int, int]] = []

    def add_vertex(self, colors: Iterable[int], label: str) -> int:
        vid = len(self.lists)
        self.lists.append(_LISTS[frozenset(colors)])
        self.labels[vid] = label
        return vid

    def add_edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def build(self) -> ListColoringInstance:
        g = Graph.from_edges(len(self.lists), self.edges, self.labels)
        return ListColoringInstance(g, {v: self.lists[v] for v in g.vertices})


def build_blocking_gadget(c: Sequence[int]) -> BlockingGadget:
    """Gadget whose port colorings extend iff some port matches its target.

    Per port with target color ci, a flag vertex signals a match: the flag
    list is {1, si} where si is ci itself when ci is 2 or 3, and 2 when ci
    is 1. For each non-target color a, either a detector with list {a, si}
    (adjacent to the port and the flag) is forced to si when the port has
    color a, blocking the flag's signal value, or, when a equals si, a
    direct port-flag edge blocks the signal directly. A chain r0..rm with
    lists {3}, {2,3}, ..., {2,3}, {2} plus one all-colors guard per port
    (adjacent to the flag and two consecutive chain vertices, so a rainbow
    triple is impossible) can only switch from 3 to 2 next to a signalling
    flag: the chain is colorable iff some flag signals iff some port
    matches. 6m+1 vertices or fewer.
    """
    target = tuple(c)
    if not target:
        raise ValueError("gadget needs at least one port")
    if any(ci not in (1, 2, 3) for ci in target):
        raise ValueError(f"target colors must be in 1..3: {target}")
    b = _InstanceBuilder()
    ports = _write_gadget(b, target, "")
    return BlockingGadget(b.build(), ports, target)


def _write_gadget(b: _InstanceBuilder, target: tuple[int, ...], prefix: str) -> tuple[int, ...]:
    """Add the gadget for a checked target to b, each label prefixed; returns its ports."""
    m = len(target)
    ports = tuple(b.add_vertex(COLORS, f"{prefix}pi{i+1}") for i in range(m))
    chain = [b.add_vertex({3}, f"{prefix}r0")]
    for i in range(1, m):
        chain.append(b.add_vertex({2, 3}, f"{prefix}r{i}"))
    chain.append(b.add_vertex({2}, f"{prefix}r{m}"))
    for i, ci in enumerate(target):
        sig = ci if ci in (2, 3) else 2
        flag = b.add_vertex({1, sig}, f"{prefix}b{i+1}")
        for a in sorted({1, 2, 3} - {ci}):
            if a == sig:
                b.add_edge(ports[i], flag)
            else:
                det = b.add_vertex({a, sig}, f"{prefix}w{i+1}c{a}")
                b.add_edge(ports[i], det)
                b.add_edge(det, flag)
        guard = b.add_vertex(COLORS, f"{prefix}g{i+1}")
        b.add_edge(guard, chain[i])
        b.add_edge(guard, chain[i + 1])
        b.add_edge(guard, flag)
    return ports


def gadget_extends(gadget: BlockingGadget, port_colors: Sequence[int]) -> bool:
    """Decide by exact search whether a port coloring extends to the gadget."""
    if len(port_colors) != len(gadget.ports):
        raise ValueError("one color per port required")
    if any(col not in COLORS for col in port_colors):
        raise ValueError(f"port colors must be in 1..3: {tuple(port_colors)}")
    g, lists = gadget.instance.graph, gadget.instance.lists
    domains = {v: set(lists[v]) for v in g.vertices}
    for p, col in zip(gadget.ports, port_colors):
        domains[p] = {col}
    return _search(g.adj, g.vertices, domains, _K3_BAD) is not None


def _pad_to_square(inputs: Sequence[TriangleSplitInstance]) -> list[TriangleSplitInstance]:
    padded = list(inputs)
    while math.isqrt(len(padded)) ** 2 != len(padded):
        padded.append(inputs[0])
    return padded


def compose(inputs: Sequence[TriangleSplitInstance]) -> tuple[ListColoringInstance, CompositionLayout]:
    """Embed many same-shape triangle-split instances into one list instance.

    The inputs are padded to a perfect square count t by duplicating the
    first one, then arranged in a q x q grid (q = sqrt(t), row-major). The
    result is 3-list-colorable iff some input has a proper 3-coloring whose
    independent side avoids color 3.
    """
    if not inputs:
        raise ValueError("need at least one input instance")
    dims = inputs[0].dimensions
    for inst in inputs:
        if inst.dimensions != dims:
            raise ValueError(
                f"all inputs must share dimensions; got {inst.dimensions} vs {dims}")
    m, n = dims
    if m < 1 or n < 1:
        raise ValueError("inputs need at least one independent vertex and one triangle")
    padded = _pad_to_square(inputs)
    q = math.isqrt(len(padded))

    b = _InstanceBuilder()
    s_ids: dict[tuple[int, int, int], int] = {}
    t_ids: dict[tuple[int, int], int] = {}
    # step 1: one {1,2} copy of each independent vertex per (block, V-slot)
    for i in range(1, q + 1):
        for k in range(1, 3 * n + 1):
            for l in range(1, m + 1):
                s_ids[(i, k, l)] = b.add_vertex({1, 2}, f"s[{i},{k},{l}]")
    # step 2: triangle slots, deliberately not connected to each other
    for j in range(1, q + 1):
        for k in range(1, 3 * n + 1):
            t_ids[(j, k)] = b.add_vertex({1, 2, 3}, f"t[{j},{k}]")
    # step 3: replicate each input's cross edges into its grid cell
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            inst = padded[(i - 1) * q + (j - 1)]
            for u_idx, v_idx in sorted(inst.cross_edges):
                b.add_edge(s_ids[(i, v_idx + 1, u_idx + 1)], t_ids[(j, v_idx + 1)])
    # step 4: selector rows
    a_ids = {i: b.add_vertex({1, 2}, f"a[{i}]") for i in range(1, q + 1)}
    b_ids = {j: b.add_vertex({1, 2}, f"b[{j}]") for j in range(1, q + 1)}

    counts = dict.fromkeys((5, 6, 7, 8), 0)
    vertices = dict(counts)

    def place(step: int, key: tuple, target: tuple[int, ...], attach: tuple[int, ...]) -> None:
        before = len(b.lists)
        ports = _write_gadget(b, target, f"gadget{step}{list(key)}:")
        for port, outside in zip(ports, attach):
            b.add_edge(port, outside)
        counts[step] += 1
        vertices[step] += len(b.lists) - before

    # steps 5 and 6: forbid the all-2 coloring of each selector row
    place(5, (), (2,) * q, tuple(a_ids[i] for i in range(1, q + 1)))
    place(6, (), (2,) * q, tuple(b_ids[j] for j in range(1, q + 1)))
    # step 7: when a row is selected, consecutive copies must agree
    for i in range(1, q + 1):
        for l in range(1, m + 1):
            for k in range(1, 3 * n):
                for c1, c2 in ((1, 2), (2, 1)):
                    place(7, (i, l, k, c1, c2), (c1, c2, 1),
                          (s_ids[(i, k, l)], s_ids[(i, k + 1, l)], a_ids[i]))
    # step 8: when a column is selected, each triangle triple must be colorful
    bad_triples = [trip for trip in itertools.product(COLORS, repeat=3)
                   if len(set(trip)) < 3]
    for j in range(1, q + 1):
        for k in range(1, n + 1):
            for trip in bad_triples:
                place(8, (j, k) + trip, trip + (1,),
                      (t_ids[(j, 3 * k - 2)], t_ids[(j, 3 * k - 1)],
                       t_ids[(j, 3 * k)], b_ids[j]))

    instance = b.build()
    layout = CompositionLayout(
        t_given=len(inputs), t_padded=len(padded), q=q, m=m, n=n,
        s_ids=s_ids, t_ids=t_ids,
        gadget_counts=counts, gadget_vertices=vertices,
        total_vertices=instance.graph.n, total_edges=instance.graph.m,
    )
    return instance, layout


def list_to_plain(inst: ListColoringInstance) -> Graph:
    """Turn a 3-list instance into an equivalent plain 3-coloring instance.

    Adds a palette triangle as the three highest vertex ids (in color
    order) and wires every vertex to the palette colors missing from its
    list. The result is 3-colorable iff the list instance is colorable.
    """
    g = inst.graph
    base = (max(g.vertices) + 1) if g.n else 0
    palette = {1: base, 2: base + 1, 3: base + 2}
    vertices = tuple(range(base + 3))
    # a vertex whose list holds every color keeps its own neighbour set,
    # so the plain graph shares those sets with the list graph; ids below
    # base that the list graph lacks become isolated vertices
    adj: dict[int, frozenset[int]] = {}
    wired: dict[int, list[int]] = {color: [] for color in COLORS}
    for v in vertices[:base]:
        if v not in g.adj:
            adj[v] = frozenset()
            continue
        missing = [color for color in COLORS if color not in inst.lists[v]]
        for color in missing:
            wired[color].append(v)
        adj[v] = g.adj[v].union([palette[c] for c in missing]) if missing else g.adj[v]
    for color, pid in palette.items():
        adj[pid] = frozenset(wired[color]).union(
            [other for c, other in palette.items() if c != color])
    labels = {v: g.label_of(v) for v in g.vertices}
    for color, pid in palette.items():
        labels[pid] = f"C{color}"
    return Graph(vertices, adj, labels)


def generate_tsd_instance(m: int, n: int, density: float, seed: int) -> TriangleSplitInstance:
    """Seeded random triangle-split instance with the given cross-edge rate."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = random.Random(seed)
    edges = set()
    for u in range(m):
        for v in range(3 * n):
            if rng.random() < density:
                edges.add((u, v))
    return TriangleSplitInstance(m, n, frozenset(edges))


def selector_claim_rows(layout: CompositionLayout, coloring: Mapping[int, int]) -> bool:
    """Some S block has every copy column constant under the coloring."""
    for i in range(1, layout.q + 1):
        if all(
            len({coloring[layout.s_ids[(i, k, l)]] for k in range(1, 3 * layout.n + 1)}) == 1
            for l in range(1, layout.m + 1)
        ):
            return True
    return False


def selector_claim_triples(layout: CompositionLayout, coloring: Mapping[int, int]) -> bool:
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
