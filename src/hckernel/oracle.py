"""Brute-force ground truth: one exact list-H-coloring search.

Every entry point poses a list H-coloring instance to the same search:
homomorphism existence gives each host vertex all of V(H), and the
3-coloring variants are list K3-coloring with lists inside {1, 2, 3}.
These are desk-scale exact solvers guarded by configurable vertex limits;
they exist to validate the kernelization and the instance composition,
never to compete with real coloring solvers. Guards can be overridden via
the HCKERNEL_SOLVE_GUARD environment variable (an integer) or by passing
``guard=None`` for no limit.
"""

from __future__ import annotations

import os
from typing import Mapping

from .graphs import CapacityError, Graph, PatternGraph

_UNSET = object()

H_COLORING_GUARD = 20
LIST_COLORING_GUARD = 24

# bad[c] for the palette K3 on {1, 2, 3}: a neighbour of a c-colored
# vertex loses only c
_K3_BAD = {c: (c,) for c in (1, 2, 3)}


def _check_guard(guard, default: int, n: int, what: str) -> None:
    """Raise CapacityError when n exceeds the resolved guard.

    An explicit ``guard`` wins (None: no limit), then the
    HCKERNEL_SOLVE_GUARD environment variable, then ``default``.
    """
    if guard is _UNSET:
        env = os.environ.get("HCKERNEL_SOLVE_GUARD")
        guard = int(env) if env else default
    if guard is not None and n > guard:
        raise CapacityError(f"{what} guard exceeded: {n} > {guard} vertices")


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

    The search is iterative, so its depth is not bounded by the
    interpreter's recursion limit. Each frame is one decision; each
    pending component records the frame whose choice split it off (-1:
    the top level). A frame that runs out of colors fails its component,
    so the search drops every frame above that component's creator,
    undoes the creator's choice and resumes it with its next color.
    """
    if any(not d for d in domains.values()):
        return None
    assigned: dict[int, int] = {}
    # (v, None) records an assignment, (v, c) the removal of c from v's list
    trail: list[tuple[int, int | None]] = []

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

    def split(vs) -> list[set[int]]:
        """Components of the host induced on the unassigned vertices of vs."""
        out = _components(adj, {u for u in vs if u not in assigned})
        out.sort(key=len)
        return out

    forced = [(v, next(iter(domains[v])))
              for v in sorted(vertices) if len(domains[v]) == 1]
    if not propagate(forced):
        return None
    # pending components, smallest on top
    todo = [(comp, -1) for comp in reversed(split(vertices))]
    # frame: [component, vertex, colors, next color index, trail mark,
    #         creator frame, len(todo) when the frame was opened]
    frames: list[list] = []
    while todo:
        live, creator = todo.pop()
        v = min(live, key=lambda u: (len(domains[u]), -len(adj[u]), u))
        frames.append([live, v, sorted(domains[v]), 0, len(trail), creator, len(todo)])
        f = len(frames) - 1
        while True:
            live, v, colors, i, mark, creator, base = frames[f]
            # a resumed frame drops its previous choice and what it split off
            undo(mark)
            del todo[base:]
            while i < len(colors) and not propagate([(v, colors[i])]):
                undo(mark)
                i += 1
            if i < len(colors):
                break
            if creator < 0:
                return None
            del frames[creator + 1:]
            f = creator
        frames[f][3] = i + 1
        todo.extend((sub, f) for sub in reversed(split(live)))
    return dict(assigned)


def find_h_coloring(g: Graph, h: PatternGraph, guard=_UNSET) -> dict[int, int] | None:
    """Search for an edge-preserving map from g into the target.

    Returns a vertex -> target-vertex dict, or None when no homomorphism
    exists. The witness is deterministic.
    """
    _check_guard(guard, H_COLORING_GUARD, g.n, "h-coloring")
    colors = h.color_ids
    hadj = h.graph.adj
    bad = {c: tuple(x for x in colors if x not in hadj[c]) for c in colors}
    return _search(g.adj, g.vertices, {v: set(colors) for v in g.vertices}, bad)


def verify_h_coloring(g: Graph, h: PatternGraph, f: Mapping[int, int]) -> bool:
    """Edge-by-edge check that f maps g into the target."""
    missing = [v for v in g.vertices if v not in f]
    if missing:
        raise ValueError(f"map is not total; unassigned vertices: {missing[:5]}")
    hadj = h.graph.adj
    for u, v in g.edges():
        if f[v] not in hadj[f[u]]:
            return False
    return True


def find_list_3_coloring(inst, guard=_UNSET) -> dict[int, int] | None:
    """Proper coloring of a list instance with lists inside {1, 2, 3}.

    Returns a vertex -> color dict, or None (immediately when some list is
    empty). ``inst`` is a composer.ListColoringInstance.
    """
    g = inst.graph
    _check_guard(guard, LIST_COLORING_GUARD, g.n, "list-coloring")
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


def find_3_coloring(g: Graph, guard=_UNSET) -> dict[int, int] | None:
    """Plain proper 3-coloring (all lists {1, 2, 3}), with one clique per
    component pinned to colors 1, 2, 3 before the search."""
    _check_guard(guard, LIST_COLORING_GUARD, g.n, "3-coloring")
    domains = {v: {1, 2, 3} for v in g.vertices}
    _pin_cliques(g.adj, g.vertices, domains)
    return _search(g.adj, g.vertices, domains, _K3_BAD)


def find_2_3_coloring(inst, guard=_UNSET) -> dict[int, int] | None:
    """Proper 3-coloring of a triangle-split instance with the independent
    side restricted to colors {1, 2}.

    Equivalent to list coloring with lists {1,2} on the independent side
    and {1,2,3} on the triangle side. ``inst`` is a
    composer.TriangleSplitInstance.
    """
    g = inst.to_graph()
    _check_guard(guard, LIST_COLORING_GUARD, g.n, "2-3-coloring")
    domains = {v: ({1, 2} if v < inst.u_size else {1, 2, 3}) for v in g.vertices}
    return _search(g.adj, g.vertices, domains, _K3_BAD)
