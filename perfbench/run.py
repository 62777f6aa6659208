#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for hckernel.

    python3 perfbench/run.py --workload attach --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/``.
Workloads (see BENCHMARK.json for why each was chosen):

* attach  - parse -> kernelize (K3) -> emit on C5- and K4-core attachment
            families of 200 and 260 attached vertices;
* dense   - kernelize on the small G(n, p) corpus of bench_gf2.py, K3/K4/C5;
* sparse  - kernelize on G(n, M) hosts with n = 20-32, p = 0.10-0.15, K3/C5;
* compose - blocking-gadget extension checks, list and plain solves of the
            criterion-7 bundles, and compose -> list_to_plain -> emit builds.

A run repeats passes over the seeded input list until ``--seconds`` are
used (at least two passes), in one process and one thread. Every output
is checked against a reference the benchmark computes itself, and every
pass must reproduce the first exactly. Times are in reference seconds:
measured seconds scaled by a calibration sample taken between the
operations, so that the drifting speed of a shared host cancels out (see
speed.py). With ``--trace 0`` the last stdout line holds the end-to-end
metrics:

* setup_s - import plus target resolution in a fresh process (median of 15);
* wall_s - one pass: the sum over ops of each op's median time over passes;
* op_p50_s, op_p90_s - percentiles over ops of those median times;
* output_vertices, output_edges - what one pass emits (TRIVIAL-NO is 0);
* peak_rss_mb - peak resident memory of the run.

``fail_frac`` is printed too; in the result line it is failed/attempted.
With ``--trace 1`` untraced passes are followed by traced ones (see
spans.py) and the line holds the per-layer metrics. ``--out FILE``
appends the result with its metadata (backend, Python, nproc, seed,
commit) as one JSON line; compare.py compares such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer
from speed import MAX_REPS, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15


def import_package():
    """Import hckernel from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import hckernel
        import hckernel.formats  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        sys.exit(f"cannot import hckernel from {SRC}: {exc}")
    if not Path(hckernel.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"hckernel was imported from {hckernel.__file__}, not {SRC}")
    return hckernel


def setup_samples(name: str) -> list[float]:
    """Set-up reference seconds from fresh processes, after one uncounted
    warm-up. Each process calibrates itself, on the CPU it runs on."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                             cwd=ROOT, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            sys.exit(f"set-up probe failed:\n{out.stderr}")
        if i:
            samples.append(float(out.stdout))
    return samples


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)
    intervals: list[tuple[float, float]] = field(default_factory=list)
    outcomes: list = field(default_factory=list)   # Outcome, or None if raised
    traced: dict | None = None
    scaled: list[float] = field(default_factory=list)   # times, reference s
    scale: float = 1.0                              # whole pass, for spans


def run_pass(ops, check: bool, meter: Speedometer) -> Pass:
    """One timed pass. With ``check``, each result is checked against its
    reference right after the op, outside the timed region. Results are
    dropped after that, so the benchmark holds no large objects that would
    slow the program's garbage collection; later passes are compared with
    the first by summary."""
    result = Pass()
    for op in ops:
        start = perf_counter()
        try:
            raw = op.run()
        except Exception:
            raw = None
            traceback.print_exc(file=sys.stderr)
        end = perf_counter()
        elapsed = end - start
        result.times.append(elapsed)
        result.intervals.append((start, end))
        meter.after_op(elapsed)
        outcome = None if raw is None else op.judge(raw)
        raw = None
        if outcome is not None:
            if check:
                outcome.error = outcome.check()
            outcome.check = None
        result.outcomes.append(outcome)
    return result


def run_passes(ops, seconds: float, min_passes: int, meter: Speedometer,
               tracer: Tracer | None = None, check: bool = True):
    """Passes until the next one would overrun ``seconds``; at least
    min_passes. The first pass is checked if ``check``."""
    passes: list[Pass] = []
    durations: list[float] = []
    start = perf_counter()
    meter.sample(MAX_REPS)
    while True:
        if tracer is not None:
            tracer.reset()
        begin = perf_counter()
        p = run_pass(ops, check and not passes, meter)
        if tracer is not None:
            p.traced = tracer.totals()
        passes.append(p)
        durations.append(perf_counter() - begin)
        used = perf_counter() - start
        if len(passes) >= min_passes and \
                used + statistics.median(durations) > seconds:
            meter.sample(MAX_REPS)
            return passes


def rescale(passes: list[Pass], meter: Speedometer) -> None:
    """Reference-second op times of each pass, and the pass's own factor."""
    for p in passes:
        p.scaled = [t * meter.scale(a, b) for t, (a, b) in zip(p.times, p.intervals)]
        p.scale = meter.scale(p.intervals[0][0], p.intervals[-1][1])


KERNEL_STATS = ("passes", "span_tests", "rule2", "rows_considered")


def exact_counts(p: Pass) -> dict[str, int | None]:
    """Counts that two passes over the same inputs must reproduce.

    A ``KernelStats`` field that no longer exists counts as None (missing).
    """
    done = [o for o in p.outcomes if o is not None]
    stats = [o.kernel_stats for o in done if o.kernel_stats is not None]
    counts = {
        "output_vertices": sum(o.vertices for o in done),
        "output_edges": sum(o.edges for o in done),
    }
    for key in KERNEL_STATS:
        values = [getattr(s, key, None) for s in stats]
        counts[key] = None if None in values else sum(values)
    if p.traced is not None:
        counts["rows_generated"] = p.traced.get("constraints.rowgen", {}).get("items", 0)
        counts["inserts"] = p.traced.get("gf2.insert", {}).get("calls", 0)
    return counts


def judge_passes(passes: list[Pass]) -> tuple[int, list[str]]:
    """Failed-op count and problems: checks on the first pass, exact
    agreement of every later pass with it."""
    failed, problems = 0, []
    first = passes[0].outcomes
    for i, outcome in enumerate(first):
        error = "raised" if outcome is None else outcome.error
        if error:
            failed += 1
            problems.append(f"op {i}: {error}")
    for k, p in enumerate(passes[1:], start=2):
        for i, (a, b) in enumerate(zip(first, p.outcomes)):
            if a is None or b is None or a.summary != b.summary:
                failed += 1
                problems.append(f"op {i}: pass {k} differs from pass 1")
    return failed, problems + count_drift(passes)


def count_drift(passes: list[Pass]) -> list[str]:
    """Passes whose exact counts differ from the first pass's."""
    base = exact_counts(passes[0])
    problems = []
    for k, p in enumerate(passes[1:], start=2):
        counts = exact_counts(p)
        if any(counts[key] != value for key, value in base.items()):
            problems.append(f"pass {k} exact counts differ from pass 1: {counts} vs {base}")
    return problems


def op_times(passes: list[Pass]) -> list[float]:
    """Each op's median reference time across passes, which filters out
    stalls of the host that hit one pass."""
    return [statistics.median(ts) for ts in zip(*(p.scaled for p in passes))]


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method, so exact on a short list's ends)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setup: list[float], failed: int, attempted: int,
               meter: Speedometer):
    times = op_times(passes)
    counts = exact_counts(passes[0])
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("wall_s", sum(times), "s", len(passes)),
        ("op_p50_s", quantile(times, 50), "s", len(times)),
        ("op_p90_s", quantile(times, 90), "s", len(times)),
        ("output_vertices", counts["output_vertices"], "count", len(passes)),
        ("output_edges", counts["output_edges"], "count", len(passes)),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "MB", 1),
    ]
    lines = [f"{name:16} {value:.6g} {unit} (n={n}, {len(passes)} passes)"
             if name.startswith("op_") else f"{name:16} {value:.6g} {unit} (n={n})"
             for name, value, unit, n in rows]
    # fail_frac is 0 on correct code, so it travels as failed/attempted
    # in the result line rather than as a metric
    lines.append(f"{'fail_frac':16} {failed / attempted:.6g} fraction (n={attempted})")
    raw = sum(statistics.median(ts) for ts in zip(*(p.times for p in passes)))
    lines.append(f"{'measured wall':16} {raw:.6g} s; host speed x{meter.overall():.3f} "
                 f"of reference ({len(meter.took)} calibration samples)")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    return metrics, lines


# per-layer metric -> (span name, field, unit); field "frac" is truthy/calls
SPAN_METRICS = {
    "kernelization.self_s": ("kernelization.kernelize", "self_s", "s"),
    "graphs.neighborhood_calls": ("graphs.neighborhood", "calls", "count"),
    "graphs.neighborhood_s": ("graphs.neighborhood", "total_s", "s"),
    "graphs.twin_decomposition_s": ("graphs.twin_decomposition", "total_s", "s"),
    "graphs.twin_decomposition_calls": ("graphs.twin_decomposition", "calls", "count"),
    "graphs.rebuild_s": ("graphs.rebuild", "total_s", "s"),
    "graphs.rebuilds": ("graphs.rebuild", "calls", "count"),
    "constraints.rowgen_s": ("constraints.rowgen", "total_s", "s"),
    "constraints.rowgen_calls": ("constraints.rowgen", "calls", "count"),
    "constraints.rows_generated": ("constraints.rowgen", "items", "count"),
    "gf2.insert_s": ("gf2.insert", "total_s", "s"),
    "gf2.inserts": ("gf2.insert", "calls", "count"),
    "gf2.insert_useful_frac": ("gf2.insert", "frac", "fraction"),
    "gf2.contains_s": ("gf2.contains", "total_s", "s"),
    "gf2.contains_calls": ("gf2.contains", "calls", "count"),
    "gf2.contains_hit_frac": ("gf2.contains", "frac", "fraction"),
    "oracle.list_s": ("oracle.list", "total_s", "s"),
    "oracle.list_calls": ("oracle.list", "calls", "count"),
    "oracle.plain_s": ("oracle.plain", "total_s", "s"),
    "oracle.plain_calls": ("oracle.plain", "calls", "count"),
    "composer.compose_s": ("composer.compose", "total_s", "s"),
    "composer.to_plain_s": ("composer.to_plain", "total_s", "s"),
    "composer.gadget_build_s": ("composer.gadget_build", "total_s", "s"),
    "formats.parse_s": ("formats.parse", "total_s", "s"),
    "formats.emit_s": ("formats.emit", "total_s", "s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: list[Pass], traced: list[Pass], missing: set[str]):
    """Per-layer metrics: times are medians over traced passes, counts come
    from the first traced pass (the others must match it exactly)."""
    metrics: dict[str, dict] = {}

    def put(name, unit, value, needs=()):
        if value is None or any(span in missing for span in needs):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": value, "unit": unit}

    for name, (span, fld, unit) in SPAN_METRICS.items():
        def read(p: Pass) -> float:
            row = p.traced.get(span, {})
            if fld == "frac":
                return _ratio(row.get("truthy", 0), row.get("calls", 0))
            return row.get(fld, 0) * (p.scale if unit == "s" else 1)
        value = statistics.median(read(p) for p in traced) if unit == "s" \
            else read(traced[0])
        put(name, unit, value, (span,))

    counts = exact_counts(traced[0])
    for key in ("passes", "span_tests", "rows_considered"):
        put(f"kernelization.{key}", "count", counts[key])
    if None not in (counts["rule2"], counts["span_tests"]):
        put("kernelization.span_success_frac", "fraction",
            _ratio(counts["rule2"], counts["span_tests"]))
    else:
        put("kernelization.span_success_frac", "fraction", None)
    put("kernelization.row_reuse", "ratio",
        None if counts["rows_considered"] is None
        else _ratio(counts["rows_considered"], counts["rows_generated"]),
        ("constraints.rowgen",))
    wall = sum(op_times(traced))
    put("trace.overhead_frac", "fraction", wall / sum(op_times(plain)) - 1)

    lines = []
    for name, entry in metrics.items():
        value = entry["value"]
        if value is None:
            lines.append(f"{name:34} missing")
        elif entry["unit"] == "s":
            lines.append(f"{name:34} {value:.6g} s ({100 * value / wall:.1f}% of traced wall)")
        else:
            lines.append(f"{name:34} {value:.6g} {entry['unit']}")
    return metrics, lines


def commit_id() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result as a JSON line")
    args = parser.parse_args()

    hk = import_package()
    setup = [] if args.trace else setup_samples(args.workload)
    ops = workloads.build(args.workload, hk, args.seed)

    meter = Speedometer()
    if args.trace:
        plain = run_passes(ops, args.seconds / 3, 1, meter)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, 2 * args.seconds / 3, 2, meter, tracer, check=False)
        finally:
            tracer.uninstall()
        passes = plain + traced
    else:
        passes = run_passes(ops, args.seconds, 2, meter)
    rescale(passes, meter)

    failed, problems = judge_passes(passes)
    if args.trace:
        problems += [f"traced {p}" for p in count_drift(traced)]
    distinct = workloads.input_digest(args.workload, args.seed) != \
        workloads.input_digest(args.workload, args.seed + 1)
    if not distinct:
        problems.append(f"seeds {args.seed} and {args.seed + 1} give the same inputs")
    attempted = len(ops) * len(passes)

    if args.trace:
        metrics, lines = per_layer(plain, traced, tracer.missing)
    else:
        metrics, lines = end_to_end(passes, setup, failed, attempted, meter)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "ops_per_pass": len(ops),
        "gf2_backend": hk.GF2_BACKEND, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit_id(),
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops/pass={len(ops)}")
    print("\n".join(lines))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
