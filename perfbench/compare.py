#!/usr/bin/env python3
"""Compare two sets of benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py perfbench/baseline.jsonl new.jsonl

For every workload and trace mode present in both files, prints each
metric's median on both sides and the change, and flags an end-to-end
metric that worsened by more than its bound in BENCHMARK.json. Results
from different GF(2) backends are not comparable, so mixing them is
refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def medians(records: list[dict]) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for rec in records:
        for name, entry in rec["result"]["metrics"].items():
            if entry["value"] is not None:
                values.setdefault(name, []).append(entry["value"])
    return {name: statistics.median(vs) for name, vs in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    backends = {rec["meta"]["gf2_backend"] for rec in base + new}
    if len(backends) > 1:
        print(f"refusing to compare across GF(2) backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    for key in ("python", "nproc"):
        seen = {rec["meta"][key] for rec in base + new}
        if len(seen) > 1:
            print(f"warning: results differ in {key}: {sorted(seen)}")

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    def group(records):
        out: dict[tuple[str, int], list[dict]] = {}
        for rec in records:
            out.setdefault((rec["meta"]["workload"], rec["meta"]["trace"]), []).append(rec)
        return out

    base_groups, new_groups = group(base), group(new)
    worse = 0
    for key in sorted(base_groups.keys() & new_groups.keys()):
        a, b = medians(base_groups[key]), medians(new_groups[key])
        print(f"== {key[0]} trace={key[1]} "
              f"(runs: {len(base_groups[key])} vs {len(new_groups[key])})")
        for name in sorted(a.keys() & b.keys()):
            change = (b[name] - a[name]) / a[name] if a[name] else 0.0
            sign = 1 if better.get(name, "lower") == "lower" else -1
            flag = ""
            if name in bounds and sign * change > bounds[name]:
                flag = f"  WORSE than bound {bounds[name]}"
                worse += 1
            print(f"  {name:34} {a[name]:12.6g} -> {b[name]:12.6g} {100 * change:+7.1f}%{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
