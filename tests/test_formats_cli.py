"""File formats and the command-line surface."""

import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hckernel import cli, kernelize
from hckernel.composer import ListColoringInstance, TriangleSplitInstance, compose, list_to_plain
from hckernel.formats import (
    ParseError,
    emit_graph,
    emit_tsd,
    parse_graph,
    parse_tsd,
    resolve_pattern,
)
from hckernel.graphs import Graph, PatternError

from helpers import petersen_edges, random_graph, reference_emit_graph


class TestParseGraph:
    def test_triangle(self):
        g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g.n == 3 and g.m == 3

    def test_isolated_vertices(self):
        g = parse_graph("p edge 2 0\n")
        assert g.n == 2 and g.m == 0

    def test_comments_and_duplicates(self):
        g = parse_graph("c hello\np edge 2 2\ne 1 2\ne 2 1\n")
        assert g.m == 1

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2: self-loop"):
            parse_graph("p edge 2 1\ne 1 1\n")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("p edge 2 1\ne 1 5\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("e 1 2\n")

    @pytest.mark.parametrize("text", ["", "c only a comment\n"])
    def test_no_header_at_all(self, text):
        with pytest.raises(ParseError, match="^line 1: missing 'p edge' header$"):
            parse_graph(text)

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="^line 2: duplicate problem header$"):
            parse_graph("p edge 2 0\np edge 2 0\n")

    def test_non_integer_header_sizes(self):
        with pytest.raises(ParseError, match="^line 1: non-integer sizes in header$"):
            parse_graph("p edge x 2\n")

    def test_edge_with_one_endpoint(self):
        with pytest.raises(ParseError, match="^line 2: expected 'e <u> <v>', got 'e 1'$"):
            parse_graph("p edge 2 1\ne 1\n")

    def test_blank_lines_skipped(self):
        g = parse_graph("\np edge 2 1\n\n  \ne 1 2\n\n")
        assert g.n == 2 and g.m == 1

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("p graph 2 1\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_graph("p edge 1 0\nx 1\n")

    def test_comment_needs_exact_c_token(self):
        with pytest.raises(ParseError, match="line 2: unknown directive 'cx'"):
            parse_graph("p edge 1 0\ncx garbage\n")
        g = parse_graph("c\n  c indented comment\np edge 2 1\nc\tafter a tab\ne 1 2\n")
        assert g.n == 2 and g.m == 1


class TestEmitGraph:
    def test_empty(self):
        assert emit_graph(Graph.from_edges(0, [])) == "p edge 0 0\n"

    def test_triangle_sorted(self):
        text = emit_graph(parse_graph("p edge 3 3\ne 2 3\ne 1 3\ne 1 2\n"))
        assert text == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    def test_round_trip_random(self):
        rng = random.Random(71)
        for _ in range(30):
            g = random_graph(rng.randint(0, 9), 0.5, rng)
            back = parse_graph(emit_graph(g))
            assert set(back.edges()) == set(g.edges())
            assert back.n == g.n

    def test_labels_preserved_in_comments(self):
        g = parse_graph("p edge 4 2\ne 1 2\ne 3 4\n").without_vertices([1])
        text = emit_graph(g)
        # surviving original names 1, 3, 4 recorded against new ids
        assert "c label 1 1" not in text  # identity mapping not emitted
        assert "c label 2 3" in text and "c label 3 4" in text

    def test_label_comments_round_trip(self):
        g = parse_graph("p edge 5 3\ne 1 2\ne 3 4\ne 4 5\n").without_vertices([0, 2])
        text = emit_graph(g)
        assert "c label 1 2" in text
        back = parse_graph(text)
        assert back.n == g.n and back.m == g.m
        # the same edges and vertex names, on the ids renumbered 0..n-1
        index = {v: i for i, v in enumerate(g.vertices)}
        assert set(back.edges()) == {(index[u], index[v]) for u, v in g.edges()}
        assert [back.label_of(v) for v in back.vertices] == [g.label_of(v) for v in g.vertices]
        assert [g.label_of(v) for v in g.vertices] == ["2", "4", "5"]

    def test_unlabelled_vertex_named_by_one_based_id(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], labels={0: "a"})
        assert [g.label_of(v) for v in g.vertices] == ["a", "2", "3"]
        text = emit_graph(g)
        assert [ln for ln in text.splitlines() if ln.startswith("c ")] == ["c label 1 a"]
        back = parse_graph(text)
        assert [back.label_of(v) for v in back.vertices] == ["a", "2", "3"]

    def test_plain_form_of_unlabelled_list_graph_names_only_the_palette(self):
        inst = ListColoringInstance(Graph.from_edges(3, [(0, 1)]),
                                    {v: frozenset({1, 2}) for v in range(3)})
        text = emit_graph(list_to_plain(inst))
        assert [ln for ln in text.splitlines() if ln.startswith("c ")] == [
            "c label 4 C1", "c label 5 C2", "c label 6 C3"]

    def test_label_name_is_rest_of_line(self):
        g = parse_graph("p edge 2 1\nc label 2 old  name \nc label x free text\ne 1 2\n")
        assert [g.label_of(v) for v in g.vertices] == ["1", "old  name"]
        assert g.labels == {1: "old  name"}   # only the names the file gives

    def test_label_id_out_of_range(self):
        with pytest.raises(ParseError, match="line 2: label id out of range 1..2"):
            parse_graph("p edge 2 0\nc label 3 a\n")
        with pytest.raises(ParseError, match="line 1: label id out of range"):
            parse_graph("c label 0 a\np edge 2 0\n")

    def test_label_without_name(self):
        for text in ("p edge 3 1\nc label 2\ne 1 2\n", "p edge 3 1\nc label 2 \t\ne 1 2\n"):
            with pytest.raises(ParseError, match="line 2: label without a name"):
                parse_graph(text)

    def test_label_twice(self):
        with pytest.raises(ParseError, match="line 3: vertex 1 labelled twice"):
            parse_graph("p edge 2 0\nc label 1 a\nc label 1 b\n")

    def test_matches_sort_then_join_emitter(self):
        # gapped ids renumber to 1..n; some vertices keep their own name as
        # label, some carry another, some have none
        rng = random.Random(72)
        for _ in range(200):
            g = random_graph(rng.randint(0, 14), rng.choice([0.1, 0.3, 0.6]), rng)
            labels = {v: rng.choice([str(v), str(v + 1), f"x{v}"])
                      for v in g.vertices if rng.random() < 0.7}
            g = Graph(g.vertices, g.adj, labels)
            g = g.without_vertices(v for v in g.vertices if rng.random() < 0.3)
            assert emit_graph(g) == reference_emit_graph(g)


@functools.cache
def composed_plain(cross: frozenset) -> Graph:
    inst, _layout = compose([TriangleSplitInstance(1, 1, cross)])
    return list_to_plain(inst)


NAMES = st.one_of(st.integers(1, 12).map(str),
                  st.text("xy z", min_size=1, max_size=4).map(str.strip).filter(bool))


@st.composite
def named_graphs(draw):
    """A graph from each source of vertex names: unlabelled
    ``Graph.from_edges``, ``parse_graph`` of a file whose ``c label``
    lines name some vertices (names may look like other vertices' ids),
    and the plain form of a composed instance, which names every vertex."""
    source = draw(st.sampled_from(("from_edges", "parsed", "composed")))
    if source == "composed":
        return composed_plain(frozenset(draw(st.sets(st.sampled_from([(0, 0), (0, 1), (0, 2)])))))
    rng = draw(st.randoms(use_true_random=False))
    g = random_graph(draw(st.integers(0, 9)), draw(st.sampled_from((0.2, 0.5, 0.8))), rng)
    if source == "from_edges":
        return g
    named = draw(st.dictionaries(st.integers(1, g.n), NAMES)) if g.n else {}
    lines = [f"c label {i} {name}" for i, name in named.items()]
    lines.append(f"p edge {g.n} {g.m}")
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    rng.shuffle(lines)
    lines.sort(key=lambda ln: ln.startswith("e "))   # the header before any edge
    return parse_graph("\n".join(lines) + "\n")


class TestNamingRule:
    """A vertex is named by its label, else by its 1-based id, and the
    emitted text keeps every name, whatever graph it came from."""

    def test_gapped_unlabelled_subgraph_keeps_its_names(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        sub = g.without_vertices([1])
        text = emit_graph(sub)
        assert "c label 2 3" in text
        assert sub.labels == {}
        assert emit_graph(parse_graph("p edge 6 7\n" + "".join(
            f"e {u + 1} {v + 1}\n" for u, v in g.edges())).without_vertices([1])) == text

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_emitted_text_names_every_vertex(self, data):
        g = data.draw(named_graphs())
        keep = data.draw(st.sets(st.sampled_from(g.vertices), max_size=12)) if g.n else set()
        sub = g.without_vertices(v for v in g.vertices if v not in keep)
        graphs = [g, sub]
        # a whole composed instance is only emitted: its palette vertices'
        # row families do not fit in memory (ROADMAP item 9)
        for h in ("K3", "C5"):
            for x in (sub, g) if g.n <= 12 else (sub,):
                res = kernelize(x, resolve_pattern(h))
                if res.graph is not None:
                    graphs.append(res.graph)
        for x in graphs:
            back = parse_graph(emit_graph(x))
            index = {v: i for i, v in enumerate(x.vertices)}
            assert set(back.edges()) == {(index[u], index[v]) for u, v in x.edges()}
            assert [back.label_of(v) for v in back.vertices] == [x.label_of(v) for v in x.vertices]


class TestTsdFormat:
    def test_round_trip(self):
        inst = TriangleSplitInstance(2, 1, frozenset({(0, 0), (1, 2)}))
        assert parse_tsd(emit_tsd(inst)) == inst

    def test_rejects_bad_header(self):
        with pytest.raises(ParseError):
            parse_tsd("p edge 1 1\n")

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError, match="^line 1: missing 'p tsd' header$"):
            parse_tsd("")

    def test_rejects_out_of_range_cross_edge(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_tsd("p tsd 1 1\ne 1 4\n")

    @pytest.mark.parametrize("edge", ["e x 1", "e 1 2.5", "e 1 -"])
    def test_rejects_non_integer_endpoint(self, edge):
        with pytest.raises(ParseError, match="line 3: non-integer endpoints"):
            parse_tsd(f"p tsd 1 1\nc ok\n{edge}\n")

    @pytest.mark.parametrize("header", ["p tsd -1 1", "p tsd 1 -2"])
    def test_rejects_negative_sizes(self, header):
        with pytest.raises(ParseError, match="line 1: negative sizes in header"):
            parse_tsd(f"{header}\n")

    def test_rejects_comment_lookalike(self):
        with pytest.raises(ParseError, match="line 2: unknown directive"):
            parse_tsd("p tsd 1 1\ncx garbage\n")


class TestResolvePattern:
    def test_named_cliques(self):
        p = resolve_pattern("K3")
        assert (p.max_degree, p.clique_number) == (2, 3)
        assert resolve_pattern("k5").clique_number == 5

    def test_petersen(self):
        p = resolve_pattern("petersen")
        assert (p.max_degree, p.clique_number) == (3, 2)

    def test_odd_cycles(self):
        for name in ("C5", "C7"):
            p = resolve_pattern(name)
            assert (p.max_degree, p.clique_number) == (2, 2)

    def test_unknown_name_treated_as_path(self):
        with pytest.raises(OSError):
            resolve_pattern("C4")  # not a named target, not a readable file

    def test_bipartite_file_rejected(self, tmp_path):
        f = tmp_path / "c4.col"
        f.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
        with pytest.raises(PatternError, match="polynomial-time"):
            resolve_pattern(str(f))

    def test_pattern_from_file(self, tmp_path):
        f = tmp_path / "k3.col"
        f.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert resolve_pattern(str(f)).clique_number == 3


def write_triangles(path, count):
    lines = [f"p edge {3 * count} {3 * count}"]
    for t in range(count):
        b = 3 * t
        lines += [f"e {b + 1} {b + 2}", f"e {b + 2} {b + 3}", f"e {b + 1} {b + 3}"]
    path.write_text("\n".join(lines) + "\n")


class TestCli:
    def test_bound(self, capsys):
        assert cli.main(["bound", "--k", "2", "--pattern", "K3"]) == 0
        assert capsys.readouterr().out.strip() == "335"

    def test_kernelize_triangles(self, tmp_path, capsys):
        graph_file = tmp_path / "g.col"
        write_triangles(graph_file, 5)
        out = tmp_path / "kernel.col"
        stats = tmp_path / "stats.json"
        code = cli.main(["kernelize", "--graph", str(graph_file), "--pattern", "K3",
                         "--out", str(out), "--stats", str(stats)])
        assert code == 0
        assert out.read_text() == "p edge 0 0\n"
        payload = json.loads(stats.read_text())
        assert payload["rules"]["rule3"] == 5
        assert payload["kernel"] == {"n": 0, "m": 0}
        assert payload["kernel"]["n"] <= payload["input"]["n"]

    def test_kernelize_stats_span_counters(self, tmp_path):
        # Petersen graph: every K3 span test is refuted from neighborhoods,
        # so no elimination builds a basis
        edges = petersen_edges()
        graph_file = tmp_path / "petersen.col"
        graph_file.write_text(f"p edge 10 {len(edges)}\n"
                              + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges))
        stats = tmp_path / "stats.json"
        code = cli.main(["kernelize", "--graph", str(graph_file), "--pattern", "K3",
                         "--stats", str(stats)])
        assert code == 0
        payload = json.loads(stats.read_text())
        # benchmark metadata and comparisons rely on this schema and name
        assert payload["version"] == 2
        assert payload["gf2_backend"] == "pure"
        assert payload["span_tests"] == payload["span_refuted"] == 30
        assert payload["max_basis_rank"] == 0

    def test_kernelize_trivial_no(self, tmp_path, capsys):
        graph_file = tmp_path / "k4.col"
        graph_file.write_text(
            "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
        out = tmp_path / "kernel.col"
        code = cli.main(["kernelize", "--graph", str(graph_file),
                         "--pattern", "K3", "--out", str(out)])
        assert code == cli.EXIT_TRIVIAL_NO == 3
        assert out.read_text().strip() == "TRIVIAL-NO"
        assert "TRIVIAL-NO" in capsys.readouterr().out

    def test_kernelize_with_cover(self, tmp_path):
        graph_file = tmp_path / "g.col"
        graph_file.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        stats = tmp_path / "stats.json"
        code = cli.main(["kernelize", "--graph", str(graph_file), "--pattern", "K3",
                         "--stats", str(stats), "--with-cover",
                         "--out", str(tmp_path / "k.col")])
        assert code == 0
        payload = json.loads(stats.read_text())
        assert payload["cover"]["k"] == 1
        assert payload["cover"]["kernel_vertex_bound"] == 91

    def test_kernelize_cover_guard_degrades_gracefully(self, tmp_path, capsys):
        # a guard refusal on the optional cover must not lose the kernel
        graph_file = tmp_path / "big.col"
        n = 35
        graph_file.write_text(f"p edge {n} 0\n")
        out = tmp_path / "k.col"
        stats = tmp_path / "stats.json"
        code = cli.main(["kernelize", "--graph", str(graph_file), "--pattern", "K3",
                         "--out", str(out), "--stats", str(stats), "--with-cover"])
        assert code == 0
        assert out.exists()
        payload = json.loads(stats.read_text())
        assert "error" in payload["cover"]
        assert "guard" in capsys.readouterr().err

    def test_kernelize_malformed_cover_guard_keeps_kernel(self, tmp_path, capsys, monkeypatch):
        # a malformed guard on the optional cover is reported like a guard
        # refusal, naming the variable, and the kernel is still written
        monkeypatch.setenv("HCKERNEL_COVER_GUARD", "abc")
        graph_file = tmp_path / "g.col"
        graph_file.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        out = tmp_path / "k.col"
        stats = tmp_path / "stats.json"
        code = cli.main(["kernelize", "--graph", str(graph_file), "--pattern", "K3",
                         "--out", str(out), "--stats", str(stats), "--with-cover"])
        assert code == 0
        assert out.read_text() == "p edge 0 0\n"
        message = "HCKERNEL_COVER_GUARD must be a non-negative integer, got 'abc'"
        assert json.loads(stats.read_text())["cover"] == {"error": message}
        assert f"warning: {message}" in capsys.readouterr().err

    def test_solve_guard_env_override(self, tmp_path, capsys, monkeypatch):
        graph_file = tmp_path / "g.col"
        graph_file.write_text("p edge 21 0\n")
        argv = ["solve", "--graph", str(graph_file), "--pattern", "K3"]
        monkeypatch.setenv("HCKERNEL_SOLVE_GUARD", "25")
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == "COLORABLE\n"
        monkeypatch.setenv("HCKERNEL_SOLVE_GUARD", "5")
        assert cli.main(argv) == cli.EXIT_FAILURE
        assert "guard exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", "-1"])
    def test_solve_malformed_guard_fails_naming_it(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("HCKERNEL_SOLVE_GUARD", value)
        graph_file = tmp_path / "g.col"
        graph_file.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        assert cli.main(["solve", "--graph", str(graph_file),
                         "--pattern", "K3"]) == cli.EXIT_FAILURE
        assert (f"error: HCKERNEL_SOLVE_GUARD must be a non-negative integer, got {value!r}"
                in capsys.readouterr().err)

    def test_solve(self, tmp_path, capsys):
        graph_file = tmp_path / "c5.col"
        graph_file.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
        assert cli.main(["solve", "--graph", str(graph_file),
                         "--pattern", "K3", "--witness"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "COLORABLE"
        witness = {}
        for line in lines[1:]:
            label, arrow, color = line.split()
            assert arrow == "->"
            witness[label] = int(color)
        assert sorted(witness) == ["1", "2", "3", "4", "5"]
        assert set(witness.values()) <= set(resolve_pattern("K3").color_ids)
        for a, b in [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5")]:
            assert witness[a] != witness[b]

    def test_solve_negative(self, tmp_path, capsys):
        graph_file = tmp_path / "k4.col"
        graph_file.write_text(
            "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
        assert cli.main(["solve", "--graph", str(graph_file), "--pattern", "K3"]) == 0
        assert capsys.readouterr().out.strip() == "NOT-COLORABLE"

    def test_twins(self, tmp_path, capsys):
        graph_file = tmp_path / "g.col"
        graph_file.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert cli.main(["twins", "--graph", str(graph_file)]) == 0
        assert capsys.readouterr().out.strip() == "1 2 3"

    def test_gen23_and_compose(self, tmp_path, capsys):
        a = tmp_path / "a.tsd"
        b = tmp_path / "b.tsd"
        assert cli.main(["gen23", "--m", "1", "--n", "1", "--density", "0.0",
                         "--seed", "1", "--out", str(a)]) == 0
        assert cli.main(["gen23", "--m", "1", "--n", "1", "--density", "1.0",
                         "--seed", "1", "--out", str(b)]) == 0
        out = tmp_path / "plain.col"
        manifest = tmp_path / "manifest.json"
        code = cli.main(["compose", "--inputs", f"{a},{b}",
                         "--out", str(out), "--manifest", str(manifest)])
        assert code == 0
        payload = json.loads(manifest.read_text())
        assert payload["t_given"] == 2 and payload["t_padded"] == 4
        plain = parse_graph(out.read_text())
        assert plain.n == payload["plain_vertices"]
        assert sum(payload["vertex_terms"].values()) == payload["list_vertices"]

    def test_compose_from_directory(self, tmp_path):
        d = tmp_path / "inputs"
        d.mkdir()
        cli.main(["gen23", "--m", "1", "--n", "1", "--density", "0.5",
                  "--seed", "3", "--out", str(d / "x.tsd")])
        assert cli.main(["compose", "--inputs", str(d),
                         "--out", str(tmp_path / "o.col")]) == 0

    def test_verify_gadget(self, capsys):
        assert cli.main(["verify-gadget", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "OK 81/81" in out
        assert out.count("target (") == 9

    def test_verify_gadget_needs_one_port(self, capsys):
        assert cli.main(["verify-gadget", "--m", "0"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "m must be at least 1\n"

    def test_compose_from_directory_without_inputs_fails(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("not an instance\n")
        code = cli.main(["compose", "--inputs", str(tmp_path),
                         "--out", str(tmp_path / "o.col")])
        assert code == cli.EXIT_FAILURE
        assert capsys.readouterr().err == f"error: no .tsd files in directory {tmp_path}\n"
        assert not (tmp_path / "o.col").exists()

    def test_unreadable_file_fails(self, capsys):
        assert cli.main(["solve", "--graph", "/nonexistent.col",
                         "--pattern", "K3"]) == cli.EXIT_FAILURE
        assert "error:" in capsys.readouterr().err

    def test_parse_error_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 2 1\ne 1 1\n")
        assert cli.main(["kernelize", "--graph", str(bad),
                         "--pattern", "K3"]) == cli.EXIT_FAILURE
        assert "self-loop" in capsys.readouterr().err

    def test_label_without_name_fails_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 3 1\nc label 2\ne 1 2\n")
        assert cli.main(["solve", "--graph", str(bad), "--pattern", "K3",
                         "--witness"]) == cli.EXIT_FAILURE
        assert "error: line 2: label without a name" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("p tsd 1 1\ne 1 x\n", "line 2: non-integer endpoints"),
        ("p tsd -1 1\n", "line 1: negative sizes in header"),
        ("p tsd 1 1\ncx garbage\n", "line 2: unknown directive"),
    ])
    def test_malformed_tsd_fails_with_line(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.tsd"
        bad.write_text(text)
        code = cli.main(["compose", "--inputs", str(bad),
                         "--out", str(tmp_path / "o.col")])
        assert code == cli.EXIT_FAILURE
        assert f"error: {message}" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kernelize"])
        assert exc.value.code == cli.EXIT_USAGE
