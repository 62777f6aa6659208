"""Brute-force ground truth: one exact list-H-coloring search.

Every entry point poses a list H-coloring instance to the same search:
homomorphism existence gives each host vertex all of V(H), and the
3-coloring variants are list K3-coloring with lists inside {1, 2, 3}.
These are desk-scale exact solvers that refuse hosts above a vertex
guard; they exist to validate the kernelization and the instance
composition, never to compete with real coloring solvers. The guard is
the ``guard`` argument (None: no limit), defaulting to H_COLORING_GUARD
or LIST_COLORING_GUARD.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Mapping

from .graphs import Graph, PatternGraph, _check_guard

H_COLORING_GUARD = 20
LIST_COLORING_GUARD = 24

# bad[c] for the palette K3 on {1, 2, 3}: a neighbour of a c-colored
# vertex loses only c
_K3_BAD = {c: (c,) for c in (1, 2, 3)}


def _components(adj, left: set[int]) -> list[set[int]]:
    """Connected components of the host induced on ``left``, which is
    emptied."""
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
    return out


class _Codes(dict):
    """One character per distinct list, handed out on first sight."""

    def __missing__(self, key):
        self[key] = code = chr(len(self))
        return code


class _ComponentCache:
    """First solutions of residual components, keyed by state.

    A key is the component's sorted vertex tuple, shared by every key with
    that vertex set, and a string with one character per vertex coding its
    list. A solution is a string with one character per vertex coding its
    color's position in the palette; the empty string records that there
    is none. So a stored state costs a few bytes per vertex, however many
    states of one vertex set are stored.
    """

    def __init__(self, palette):
        self.palette = tuple(palette)
        self.position = {c: chr(i) for i, c in enumerate(self.palette)}
        self.codes = _Codes()
        self.vertex_sets: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.outcomes: dict = {}

    def key(self, live, domains) -> tuple[tuple[int, ...], str]:
        verts = tuple(sorted(live))
        verts = self.vertex_sets.setdefault(verts, verts)
        return verts, "".join(map(self.codes.__getitem__,
                                  map(frozenset, map(domains.__getitem__, verts))))

    def solved(self, key, assigned) -> None:
        self.outcomes[key] = "".join(map(self.position.__getitem__,
                                         map(assigned.__getitem__, key[0])))

    def colors(self, solution: str):
        return map(self.palette.__getitem__, map(ord, solution))


def _search(adj, vertices, domains: dict[int, set[int]],
            bad: Mapping[int, tuple[int, ...]]) -> dict[int, int] | None:
    """Complete list-H-coloring search with forward checking.

    ``domains[v]`` is the set of H-vertices v may take; the search narrows
    these sets in place, so pass fresh ones. ``bad[c]`` lists the H-vertices
    not adjacent to c in H, which a neighbour of a c-colored vertex may not
    take. H has no loops, so ``c in bad[c]``.

    Singleton lists are propagated before any branching; variables are
    chosen by minimum remaining values (degree, then id, breaks ties) and
    colors are tried in ascending order. Whenever the residual graph on
    unassigned vertices falls apart, the connected components are solved
    independently: a component with no solution refutes the choice that
    created it, and alternatives in one component are never re-enumerated
    because a sibling failed. That keeps search local on instances
    stitched together from many small widgets. Siblings are solved
    smallest first, so a failing sibling refutes its creator's choice
    sooner; each solved sibling keeps its own first solution, so the
    order never changes the witness.

    Splitting is incremental: a decision's component was connected, so
    every piece left after it touches a vertex the decision assigned. A
    breadth-first search from one of those neighbours stops as soon as it
    has met all the others; the piece it stopped in is then the rest of
    the component, taken by one set difference instead of a walk. A search
    that runs dry first has walked a whole piece, which is peeled off. The
    pieces depend only on which vertices the decision assigned, so each
    component keeps them per such set for its later colors.

    Components are cached. A component has no unassigned neighbour outside
    itself, so its search depends only on its state: its vertex set and
    the current lists of its vertices. The search is deterministic, so a
    state always has the same first solution or none. Once some component
    has failed (before that, no state can come round again) every
    component taken up is keyed by its sorted vertices and one character
    per list (see _ComponentCache), and its outcome is recorded: its
    vertices' colors, or that it has none. A component whose state is
    known to fail refutes its creator's choice at once, and one known to
    succeed takes its recorded colors without propagation: every neighbour
    outside it is already assigned.

    Each component is solved by one generator, which yields the pieces its
    choice splits off and is sent back whether each was solved. One loop
    drives the generators from a plain list, so the search depth is not
    bounded by the interpreter's recursion limit.
    """
    assigned: dict[int, int] = {}
    # (v, None) records an assignment, (v, c) the removal of c from v's list
    trail: list[tuple[int, int | None]] = []
    cache: _ComponentCache | None = None

    def propagate(queue: list[tuple[int, int]]) -> bool:
        # A queued (v, c) is consistent by construction: v is unassigned, c
        # is in its list, and each assigned neighbour u already removed
        # bad[color of u] from that list, so c fits u (bad is symmetric).
        # A vertex is queued once, when its list shrinks to one color.
        while queue:
            v, c = queue.pop()
            assigned[v] = c
            trail.append((v, None))
            b = bad[c]
            for u in adj[v]:
                if u in assigned:
                    continue
                du = domains[u]
                removed = False
                for x in b:
                    if x in du:
                        du.remove(x)
                        trail.append((u, x))
                        removed = True
                if removed:
                    if not du:
                        return False
                    if len(du) == 1:
                        queue.append((u, next(iter(du))))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v, c = trail.pop()
            if c is None:
                del assigned[v]
            else:
                domains[v].add(c)

    def split(live: set[int], mark: int, known: dict) -> list[set[int]]:
        """Components of the host induced on the vertices of the connected
        set ``live`` left unassigned by the assignments since ``mark``."""
        left = live.difference(assigned)
        if not left:
            return []
        newly = frozenset(v for v, c in trail[mark:] if c is None)
        out = known.get(newly)
        if out is not None:
            return out
        # every piece holds a seed, so once the seeds left lie in one piece
        # that piece is everything not yet walked or peeled off
        seeds = left.intersection(chain.from_iterable(map(adj.__getitem__, newly)))
        out = []
        while seeds:
            s = seeds.pop()
            if not seeds:
                out.append(left)
                break
            left.remove(s)
            comp = {s}
            queue = [s]
            for w in queue:
                for u in adj[w]:
                    if u in left:
                        left.remove(u)
                        comp.add(u)
                        queue.append(u)
                        seeds.discard(u)
                if not seeds:
                    break
            if not seeds:
                comp |= left
                out.append(comp)
                break
            out.append(comp)
        out.sort(key=len)
        known[newly] = out
        return out

    def solve(live: set[int]):
        """Solve one component: yield each piece a choice splits off, be
        sent whether it was solved, and return whether the component was."""
        nonlocal cache
        key = None
        if cache is not None:
            key = cache.key(live, domains)
            # None: state not met yet; "": no solution; else its colors
            hit = cache.outcomes.get(key)
            if hit is not None:
                if hit:
                    # every neighbour outside the component is assigned,
                    # so nothing needs propagating
                    verts = key[0]
                    assigned.update(zip(verts, cache.colors(hit)))
                    trail.extend(zip(verts, repeat(None)))
                return bool(hit)
        v = min(live, key=lambda u: (len(domains[u]), -len(adj[u]), u))
        mark = len(trail)
        known: dict = {}
        for c in sorted(domains[v]):
            if propagate([(v, c)]):
                for piece in split(live, mark, known):
                    if not (yield piece):
                        break
                else:
                    if key is not None:
                        cache.solved(key, assigned)
                    return True
            undo(mark)
        if key is not None:
            cache.outcomes[key] = ""
        elif cache is None:
            cache = _ComponentCache(bad)
        return False

    def top():
        # a failing component ends the search, so try the smallest first
        for comp in sorted(_components(adj, {v for v in vertices if v not in assigned}),
                           key=len):
            if not (yield comp):
                return False
        return True

    forced = [(v, next(iter(domains[v])))
              for v in sorted(vertices) if len(domains[v]) == 1]
    if not propagate(forced):
        return None
    running = [top()]
    solved = None
    while running:
        try:
            piece = running[-1].send(solved)
        except StopIteration as stop:
            running.pop()
            solved = stop.value
        else:
            running.append(solve(piece))
            solved = None
    return dict(assigned) if solved else None


def find_h_coloring(g: Graph, h: PatternGraph,
                    guard: int | None = H_COLORING_GUARD) -> dict[int, int] | None:
    """Search for an edge-preserving map from g into the target.

    Returns a vertex -> target-vertex dict, or None when no homomorphism
    exists. The witness is deterministic.
    """
    _check_guard(g.n, guard, "h-coloring")
    colors = h.color_ids
    hadj = h.graph.adj
    bad = {c: tuple(x for x in colors if x not in hadj[c]) for c in colors}
    return _search(g.adj, g.vertices, {v: set(colors) for v in g.vertices}, bad)


def verify_h_coloring(g: Graph, h: PatternGraph, f: Mapping[int, int]) -> bool:
    """Check that f maps every vertex of g to a target vertex and every
    edge of g onto a target edge."""
    missing = [v for v in g.vertices if v not in f]
    if missing:
        raise ValueError(f"map is not total; unassigned vertices: {missing[:5]}")
    hadj = h.graph.adj
    if any(f[v] not in hadj for v in g.vertices):
        return False
    for u, v in g.edges():
        if f[v] not in hadj[f[u]]:
            return False
    return True


def find_list_3_coloring(inst, guard: int | None = LIST_COLORING_GUARD) -> dict[int, int] | None:
    """Proper coloring of a list instance with lists inside {1, 2, 3}.

    Returns a vertex -> color dict, or None. ``inst`` is a
    composer.ListColoringInstance, whose lists are never empty.
    """
    g = inst.graph
    _check_guard(g.n, guard, "list-coloring")
    domains = {v: set(inst.lists[v]) for v in g.vertices}
    return _search(g.adj, g.vertices, domains, _K3_BAD)


def _pin_cliques(adj, vertices, domains: dict[int, set[int]]) -> None:
    """Pin one clique of up to three vertices per connected component to
    colors 1, 2, 3, in place.

    Permuting the colors of a proper coloring of one component gives
    another, so some coloring puts any given clique on 1..3, and the
    answer is kept. The clique starts at the component's highest-degree
    vertex (smallest id on ties) and grows by the highest-degree common
    neighbour: these are the search's own first choices, and their
    remaining colors are refuted by that same symmetry, so the witness is
    kept too.
    """
    def rank(u: int) -> tuple[int, int]:
        return (-len(adj[u]), u)

    for comp in _components(adj, set(vertices)):
        v = min(comp, key=rank)
        clique = [v]
        common = set(adj[v])
        while common and len(clique) < 3:
            w = min(common, key=rank)
            clique.append(w)
            common &= adj[w]
        for color, u in enumerate(clique, 1):
            domains[u] = {color}


def find_3_coloring(g: Graph, guard: int | None = LIST_COLORING_GUARD) -> dict[int, int] | None:
    """Plain proper 3-coloring (all lists {1, 2, 3}), with one clique per
    component pinned to colors 1, 2, 3 before the search."""
    _check_guard(g.n, guard, "3-coloring")
    domains = {v: {1, 2, 3} for v in g.vertices}
    _pin_cliques(g.adj, g.vertices, domains)
    return _search(g.adj, g.vertices, domains, _K3_BAD)


def find_2_3_coloring(inst, guard: int | None = LIST_COLORING_GUARD) -> dict[int, int] | None:
    """Proper 3-coloring of a triangle-split instance with the independent
    side restricted to colors {1, 2}.

    Equivalent to list coloring with lists {1,2} on the independent side
    and {1,2,3} on the triangle side. ``inst`` is a
    composer.TriangleSplitInstance.
    """
    g = inst.to_graph()
    _check_guard(g.n, guard, "2-3-coloring")
    domains = {v: ({1, 2} if v < inst.u_size else {1, 2, 3}) for v in g.vertices}
    return _search(g.adj, g.vertices, domains, _K3_BAD)
