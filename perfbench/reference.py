"""Correctness references that share no code with ``hckernel``.

Graphs here are plain ``dict[int, set[int]]`` adjacency maps built by the
benchmark from its own edge lists, so a defect in the package's graph
type cannot hide a wrong answer.
"""

from __future__ import annotations

import itertools


def adjacency(vertices, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def h_colourable(adj: dict[int, set[int]], hadj: dict[int, set[int]]) -> bool:
    """Does the graph map homomorphically into the target?

    Components are solved separately. Within one, vertices are ordered
    by how many earlier neighbours they have (then degree), and each
    vertex may take only colours adjacent in the target to the colours
    of its earlier neighbours.
    """
    colours = sorted(hadj)
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        order: list[int] = []
        placed: dict[int, int] = {}
        while len(order) < len(comp):
            v = max((u for u in comp if u not in placed),
                    key=lambda u: (len(adj[u] & placed.keys()), len(adj[u]), -u))
            placed[v] = len(order)
            order.append(v)
        earlier = [[u for u in adj[v] if placed[u] < placed[v]] for v in order]
        assign: dict[int, int] = {}

        def extend(i: int) -> bool:
            if i == len(order):
                return True
            allowed = set(colours)
            for u in earlier[i]:
                allowed &= hadj[assign[u]]
            for c in sorted(allowed):
                assign[order[i]] = c
                if extend(i + 1):
                    return True
            return False

        if not extend(0):
            return False
    return True


def attach_colourable(core_edges, core_size: int, attached: list[tuple[int, ...]],
                      hadj: dict[int, set[int]]) -> bool:
    """Answer for a core plus attached vertices that touch only the core.

    The host maps into the target iff some homomorphism of the core leaves,
    for every attached vertex, a colour adjacent in the target to all of
    its neighbours' colours.
    """
    colours = sorted(hadj)
    for colouring in itertools.product(colours, repeat=core_size):
        if any(colouring[v] not in hadj[colouring[u]] for u, v in core_edges):
            continue
        if all(set.intersection(set(colours), *(hadj[colouring[c]] for c in nbrs))
               for nbrs in attached):
            return True
    return False


def is_subgraph(kernel_adj: dict[int, set[int]], adj: dict[int, set[int]]) -> bool:
    return all(v in adj and nbrs <= adj[v] for v, nbrs in kernel_adj.items())


def proper_within_lists(edges, lists: dict[int, frozenset[int]],
                        colouring: dict[int, int]) -> bool:
    """A total colouring that respects every list and every edge."""
    if set(colouring) != set(lists):
        return False
    if any(colouring[v] not in lists[v] for v in lists):
        return False
    return all(colouring[u] != colouring[v] for u, v in edges)


def emitted_counts(text: str) -> tuple[int, int, int] | None:
    """(declared n, declared m, edge lines) of DIMACS text, None if no header."""
    header = None
    edge_lines = 0
    for line in text.splitlines():
        parts = line.split()
        if parts[:2] == ["p", "edge"]:
            header = (int(parts[2]), int(parts[3]))
        elif parts[:1] == ["e"]:
            edge_lines += 1
    if header is None:
        return None
    return header[0], header[1], edge_lines


def gadget_size(target: tuple[int, ...]) -> int:
    """Vertex count of a blocking gadget, from its construction.

    Per port: the port, a flag, a guard, and one detector per non-target
    colour that is not the flag's signal colour (one for target 1, two
    otherwise); plus a chain of len(target)+1 vertices.
    """
    return len(target) + 1 + sum(3 + (1 if c == 1 else 2) for c in target)


def composed_list_size(t: int, m: int, n: int) -> int:
    """Vertex count of the list instance composed from t inputs of shape (m, n)."""
    q = 1
    while q * q < t:
        q += 1
    total = q * 3 * n * m + q * 3 * n + 2 * q
    total += 2 * gadget_size((2,) * q)
    total += q * m * (3 * n - 1) * (gadget_size((1, 2, 1)) + gadget_size((2, 1, 1)))
    bad = [trip for trip in itertools.product((1, 2, 3), repeat=3) if len(set(trip)) < 3]
    total += q * n * sum(gadget_size(trip + (1,)) for trip in bad)
    return total
