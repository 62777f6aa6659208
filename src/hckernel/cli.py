"""Command-line surface.

Exit codes: 0 success, 1 runtime failure (unreadable file, parse error,
guard exceeded, gadget check failure), 2 usage error, 3 kernelization
answered TRIVIAL-NO.

Environment knobs: HCKERNEL_SOLVE_GUARD (vertex guard for the exact
solvers), HCKERNEL_COVER_GUARD (vertex guard for the exact twin-cover).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from . import composer, formats, kernelization, oracle
from .graphs import CapacityError, PatternError, min_twin_cover, twin_decomposition

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_TRIVIAL_NO = 3

TRIVIAL_NO_MARKER = "TRIVIAL-NO"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cover_guard() -> int | None:
    env = os.environ.get("HCKERNEL_COVER_GUARD")
    return int(env) if env else 30


def _cmd_kernelize(args) -> int:
    g = formats.parse_graph(_read(args.graph))
    h = formats.resolve_pattern(args.pattern)
    result = kernelization.kernelize(g, h)
    stats = result.stats.to_dict()
    if args.with_cover:
        # optional extra; a guard refusal must not lose the kernel output
        try:
            k = len(min_twin_cover(g, guard=_cover_guard()))
        except CapacityError as exc:
            print(f"warning: {exc} (set HCKERNEL_COVER_GUARD to raise)",
                  file=sys.stderr)
            stats["cover"] = {"error": str(exc)}
        else:
            stats["cover"] = {
                "k": k,
                "kernel_vertex_bound": kernelization.kernel_size_bound(k, h),
            }
    else:
        stats["cover"] = None
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            formats.write_json(stats, fh)
    if result.trivial_no:
        # marker file instead of a fake unsatisfiable graph, so that any
        # emitted kernel is literally a subgraph of the input
        if args.out:
            _write(args.out, TRIVIAL_NO_MARKER + "\n")
        print(TRIVIAL_NO_MARKER)
        return EXIT_TRIVIAL_NO
    text = formats.emit_graph(result.graph)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"kernel: {result.graph.n} vertices, {result.graph.m} edges "
          f"(input {g.n}/{g.m})", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = formats.parse_graph(_read(args.graph))
    h = formats.resolve_pattern(args.pattern)
    witness = oracle.find_h_coloring(g, h)
    if witness is None:
        print("NOT-COLORABLE")
        return EXIT_OK
    print("COLORABLE")
    if args.witness:
        for v in g.vertices:
            print(f"{g.label_of(v)} -> {witness[v]}")
    return EXIT_OK


def _cmd_twins(args) -> int:
    g = formats.parse_graph(_read(args.graph))
    for cls in twin_decomposition(g):
        print(" ".join(g.label_of(v) for v in sorted(cls)))
    return EXIT_OK


def _collect_inputs(source: str) -> list[str]:
    p = Path(source)
    if p.is_dir():
        found = sorted(str(f) for f in p.iterdir() if f.suffix == ".tsd")
        if not found:
            raise FileNotFoundError(f"no .tsd files in directory {source}")
        return found
    return [part for part in source.split(",") if part]


def _cmd_compose(args) -> int:
    paths = _collect_inputs(args.inputs)
    instances = [formats.parse_tsd(_read(path)) for path in paths]
    list_inst, layout = composer.compose(instances)
    plain = composer.list_to_plain(list_inst)
    _write(args.out, formats.emit_graph(plain))
    manifest = layout.manifest()
    manifest["inputs"] = paths
    manifest["output_vertices"] = plain.n
    manifest["output_edges"] = plain.m
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            formats.write_json(manifest, fh)
    print(f"composed {len(paths)} instance(s) -> {plain.n} vertices, "
          f"{plain.m} edges", file=sys.stderr)
    return EXIT_OK


def _cmd_gen23(args) -> int:
    inst = composer.generate_tsd_instance(args.m, args.n, args.density, args.seed)
    _write(args.out, formats.emit_tsd(inst))
    return EXIT_OK


def _cmd_verify_gadget(args) -> int:
    m = args.m
    if m < 1:
        print("m must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    total = checked = 0
    failures = []
    for target in itertools.product((1, 2, 3), repeat=m):
        gadget = composer.build_blocking_gadget(target)
        if gadget.size > 6 * m + 1:
            failures.append(f"target {target}: gadget too large ({gadget.size})")
        ok_here = 0
        for ports in itertools.product((1, 2, 3), repeat=m):
            want = any(ports[i] == target[i] for i in range(m))
            got = composer.gadget_extends(gadget, ports)
            total += 1
            if got == want:
                checked += 1
                ok_here += 1
            else:
                failures.append(f"target {target}, ports {ports}: "
                                f"extends={got} expected={want}")
        print(f"target {target}: {ok_here}/{3 ** m}")
    if failures:
        for line in failures:
            print("FAIL " + line)
        return EXIT_FAILURE
    print(f"OK {checked}/{total}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    h = formats.resolve_pattern(args.pattern)
    print(kernelization.kernel_size_bound(args.k, h))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hckernel",
        description="Twin-class kernelization toolkit for H-coloring instances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="shrink an instance with the reduction rules")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True,
                   help="K3..K9, C5, C7, petersen, or a graph file")
    p.add_argument("--out")
    p.add_argument("--stats")
    p.add_argument("--with-cover", action="store_true",
                   help="also compute the exact minimum twin-cover (guarded)")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("solve", help="exact colorability oracle (guarded)")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("twins", help="print the twin decomposition, one class per line")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_twins)

    p = sub.add_parser("compose", help="compose .tsd instances into one plain "
                                       "3-coloring instance")
    p.add_argument("--inputs", required=True,
                   help="directory of .tsd files or comma-separated paths")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("gen23", help="generate a random triangle-split instance")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen23)

    p = sub.add_parser("verify-gadget", help="exhaustively check the blocking "
                                             "gadget contract for m ports")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_verify_gadget)

    p = sub.add_parser("bound", help="print the kernel vertex bound for a "
                                     "twin-cover size")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, formats.ParseError, PatternError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
