"""What a fresh process imports: the composer and the oracles load only
when a name of theirs is first used, and every exported name still
resolves. Each check runs in a new interpreter, since the test process
has long since imported everything."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the package's export list; the composer and oracle names load on demand
EXPORTS = {
    "hckernel.constraints": ("build_coloring_polynomial", "evaluate"),
    "hckernel.gf2": ("in_span",),
    "hckernel.graphs": ("CapacityError", "Graph", "PatternError", "PatternGraph",
                        "is_twin_cover", "min_twin_cover", "twin_decomposition"),
    "hckernel.kernelization": ("KernelResult", "KernelStats", "kernel_size_bound", "kernelize"),
    "hckernel.composer": ("BlockingGadget", "CompositionLayout", "ListColoringInstance",
                          "TriangleSplitInstance", "build_blocking_gadget", "compose",
                          "gadget_extends", "generate_tsd_instance", "list_to_plain"),
    "hckernel.oracle": ("find_2_3_coloring", "find_3_coloring", "find_h_coloring",
                        "find_list_3_coloring", "verify_h_coloring"),
}

ON_DEMAND = ("hckernel.composer", "hckernel.oracle")

C4 = "p edge 4 4\\ne 1 2\\ne 2 3\\ne 3 4\\ne 4 1\\n"


def run_fresh(code: str, cwd: Path) -> str:
    """Run ``code`` in a new interpreter that imports the package from src;
    returns its stdout and fails the test on a non-zero exit."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded(names) -> str:
    return f"print(sorted(m for m in {tuple(names)!r} if m in sys.modules))"


def test_kernelize_path_leaves_composer_and_oracle_unloaded(tmp_path):
    out = run_fresh(f"""
        import sys
        import hckernel, hckernel.formats
        from hckernel import formats, kernelize
        g = formats.parse_graph("{C4}")
        result = kernelize(g, formats.resolve_pattern("K3"))
        assert formats.emit_graph(result.graph) == "p edge 0 0\\n"
        {loaded(ON_DEMAND)}
        """, tmp_path)
    assert out.strip() == "[]"


def test_cli_kernelize_with_cover_leaves_composer_and_oracle_unloaded(tmp_path):
    (tmp_path / "c4.col").write_text(C4.replace("\\n", "\n"))
    out = run_fresh(f"""
        import sys
        from hckernel import cli
        code = cli.main(["kernelize", "--graph", "c4.col", "--pattern", "K3",
                         "--with-cover", "--stats", "s.json", "--out", "k.col"])
        assert code == 0, code
        {loaded(ON_DEMAND)}
        """, tmp_path)
    assert out.strip() == "[]"
    assert '"k": 2' in (tmp_path / "s.json").read_text()


def test_solve_loads_the_oracle(tmp_path):
    (tmp_path / "c4.col").write_text(C4.replace("\\n", "\n"))
    out = run_fresh(f"""
        import sys
        from hckernel import cli
        assert cli.main(["solve", "--graph", "c4.col", "--pattern", "K3"]) == 0
        {loaded(["hckernel.oracle"])}
        """, tmp_path)
    assert out.splitlines() == ["COLORABLE", "['hckernel.oracle']"]


def test_every_export_resolves_to_its_home_object(tmp_path):
    out = run_fresh(f"""
        import importlib
        import hckernel
        exports = {EXPORTS!r}
        for home, names in exports.items():
            module = importlib.import_module(home)
            for name in names:
                ns = {{}}
                exec(f"from hckernel import {{name}}", ns)
                assert ns[name] is getattr(module, name), name
                assert name in dir(hckernel) and name in hckernel.__all__, name
        from hckernel import GF2_BACKEND
        from hckernel.gf2 import BACKEND
        assert GF2_BACKEND == BACKEND and "GF2_BACKEND" in hckernel.__all__
        assert {{"composer", "oracle"}} <= set(dir(hckernel))
        print(len(hckernel.__all__))
        """, tmp_path)
    assert int(out) == 1 + sum(map(len, EXPORTS.values()))


def test_unknown_name_raises_attribute_error(tmp_path):
    out = run_fresh("""
        import hckernel
        try:
            hckernel.no_such_name
        except AttributeError as exc:
            print(exc)
        try:
            from hckernel import no_such_name
        except ImportError as exc:
            print(type(exc).__name__)
        """, tmp_path)
    assert out.splitlines() == ["module 'hckernel' has no attribute 'no_such_name'",
                                "ImportError"]
