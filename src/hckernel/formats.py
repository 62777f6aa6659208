"""File formats: DIMACS-style graphs, triangle-split instances, JSON reports.

Graph grammar (one directive per line, blank lines ignored):

    c <free text>          comment (the first token is exactly "c")
    c label <i> <name>     vertex i is named <name>, the rest of the line
    p edge <n> <m>         header, exactly once, before any edge
    e <u> <v>              edge with 1-based endpoints in 1..n

A comment is a label when its second token is "label" and its third an
integer; it must name the vertex, whose id must lie in 1..n and be
labelled at most once. A vertex without a label is named by its id.
Duplicate edge lines collapse; self-loops are rejected. The declared edge
count is advisory (duplicates may make it disagree) and is not enforced.
Triangle-split instances use the same shape with a ``p tsd <m> <n>``
header and cross edges ``e <u> <v>`` where u indexes the independent side
(1..m) and v the triangle side (1..3n).
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING, Callable

from .graphs import Graph, PatternGraph

if TYPE_CHECKING:
    from .composer import TriangleSplitInstance


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _directive_lines(text: str, labels: dict[int, tuple[int, str]] | None):
    """(line number, tokens) per directive line; with ``labels``, label
    comments go into it as i -> (line number, name)."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] != "c":
            yield line_no, parts
        elif labels is not None and len(parts) > 2 and parts[1] == "label":
            try:
                i = int(parts[2])
            except ValueError:
                continue   # free text
            if len(parts) == 3:
                raise ParseError(line_no, "label without a name")
            if i in labels:
                raise ParseError(line_no, f"vertex {i} labelled twice")
            labels[i] = (line_no, raw.split(None, 3)[3].rstrip())


def _parse_edge_list(text: str, kind: str, sizes: str,
                     endpoint_error: Callable[[int, int, int, int], str | None],
                     labels: dict[int, tuple[int, str]] | None = None
                     ) -> tuple[int, int, set[tuple[int, int]]]:
    """The two header sizes and the distinct 1-based edges of a file with
    a ``p <kind> <sizes>`` header and ``e <u> <v>`` lines.

    ``endpoint_error(a, b, u, v)`` checks an edge against the header sizes
    a and b and returns the message for a bad one, None for a good one.
    """
    dims = None
    edges: set[tuple[int, int]] = set()
    for line_no, parts in _directive_lines(text, labels):
        if parts[0] == "p":
            if dims is not None:
                raise ParseError(line_no, "duplicate problem header")
            if len(parts) != 4 or parts[1] != kind:
                raise ParseError(line_no, f"expected 'p {kind} {sizes}', got {' '.join(parts)!r}")
            try:
                dims = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError(line_no, "non-integer sizes in header") from None
            if dims[0] < 0 or dims[1] < 0:
                raise ParseError(line_no, "negative sizes in header")
        elif parts[0] == "e":
            if dims is None:
                raise ParseError(line_no, "edge before problem header")
            if len(parts) != 3:
                raise ParseError(line_no, f"expected 'e <u> <v>', got {' '.join(parts)!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(line_no, "non-integer endpoints") from None
            problem = endpoint_error(*dims, u, v)
            if problem is not None:
                raise ParseError(line_no, problem)
            edges.add((u, v))
        else:
            raise ParseError(line_no, f"unknown directive {parts[0]!r}")
    if dims is None:
        raise ParseError(1, f"missing 'p {kind}' header")
    return (*dims, edges)


def _graph_endpoint_error(n: int, _m: int, u: int, v: int) -> str | None:
    if not (1 <= u <= n and 1 <= v <= n):
        return f"endpoint out of range 1..{n}"
    if u == v:
        return f"self-loop at vertex {u}"
    return None


def parse_graph(text: str) -> Graph:
    """Parse the DIMACS-style edge format into a graph.

    Vertex ids become dense 0-based integers; a vertex's label is its name
    from a ``c label`` comment, else its 1-based id.
    """
    named: dict[int, tuple[int, str]] = {}
    n, _m, edges = _parse_edge_list(text, "edge", "<n> <m>", _graph_endpoint_error, named)
    labels = {v: str(v + 1) for v in range(n)}
    for i, (line_no, name) in named.items():
        if not 1 <= i <= n:
            raise ParseError(line_no, f"label id out of range 1..{n}")
        labels[i - 1] = name
    return Graph.from_edges(n, [(u - 1, v - 1) for u, v in edges], labels)


def emit_graph(g: Graph) -> str:
    """Canonical DIMACS-style text: sorted edges, vertices renumbered 1..n.

    When the graph carries non-trivial labels (e.g. a kernel remembering
    its original vertex names), they are emitted as comments.
    """
    index = {v: i + 1 for i, v in enumerate(g.vertices)}
    # one chunk for all labels and one per vertex for its edges, so the
    # text never exists as one small string per line
    chunks = [f"p edge {g.n} {g.m}"]
    if g.labels is not None:
        labels = "\n".join(f"c label {i} {g.label_of(v)}"
                           for v, i in index.items() if g.label_of(v) != str(i))
        if labels:
            chunks.append(labels)
    # vertices are increasing and so is their renumbering, so walking them
    # in order emits the sorted renumbered edge list
    for u in g.vertices:
        later = sorted(index[v] for v in g.adj[u] if v > u)
        if later:
            i = index[u]
            chunks.append("\n".join([f"e {i} {j}" for j in later]))
    return "\n".join(chunks) + "\n"


def _tsd_endpoint_error(m: int, n: int, u: int, v: int) -> str | None:
    if 1 <= u <= m and 1 <= v <= 3 * n:
        return None
    return "cross-edge endpoint out of range"


def parse_tsd(text: str) -> TriangleSplitInstance:
    """Parse a triangle-split instance file."""
    from .composer import TriangleSplitInstance   # only .tsd files need the composer

    m, n, edges = _parse_edge_list(text, "tsd", "<m> <n>", _tsd_endpoint_error)
    return TriangleSplitInstance(m, n, frozenset((u - 1, v - 1) for u, v in edges))


def emit_tsd(inst: TriangleSplitInstance) -> str:
    lines = [f"p tsd {inst.u_size} {inst.triangle_count}"]
    for u, v in sorted(inst.cross_edges):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def _clique(q: int) -> Graph:
    return Graph.from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)])


def _cycle(q: int) -> Graph:
    return Graph.from_edges(q, [(i, (i + 1) % q) for i in range(q)])


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]          # outer cycle
    edges += [(i, i + 5) for i in range(5)]               # spokes
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]  # inner pentagram
    return Graph.from_edges(10, edges)


NAMED_PATTERNS = {
    **{f"K{q}": (lambda q=q: _clique(q)) for q in range(3, 10)},
    "C5": lambda: _cycle(5),
    "C7": lambda: _cycle(7),
    "petersen": _petersen,
}


def resolve_pattern(name_or_path: str) -> PatternGraph:
    """Analyze a named target (K3..K9, C5, C7, petersen) or a graph file.

    K_q targets make a run equivalent to ordinary q-coloring. Bipartite
    targets are rejected by the analysis.
    """
    key = name_or_path.strip()
    builder = NAMED_PATTERNS.get(key) or NAMED_PATTERNS.get(key.upper()) \
        or NAMED_PATTERNS.get(key.lower())
    if builder is not None:
        return PatternGraph(builder())
    with open(name_or_path, "r", encoding="utf-8") as fh:
        return PatternGraph(parse_graph(fh.read()))


def write_json(payload: dict, stream: IO[str]) -> None:
    import json   # only reports need it

    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")
