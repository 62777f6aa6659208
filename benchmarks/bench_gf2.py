#!/usr/bin/env python3
"""Benchmark GF(2) elimination on its own and inside kernelization.

Two workloads:

* synthetic - random row sets at several widths/densities, timing
  ``MaskBasis`` insert-everything plus span-membership probes;
* kernelization - end-to-end `kernelize` runs on a seeded random corpus
  (180 runs: 60 graphs x K3/K4/C5, corpus seed 2718).

Run:  python benchmarks/bench_gf2.py

The package is imported from this checkout's ``src/``, so no install is
needed.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hckernel.formats import resolve_pattern  # noqa: E402
from hckernel.gf2 import MaskBasis  # noqa: E402
from hckernel.graphs import Graph  # noqa: E402
from hckernel.kernelization import kernelize  # noqa: E402


def synthetic_workload(ncols: int, nrows: int, density: float, seed: int) -> list[int]:
    rng = random.Random(seed)
    rows = []
    for _ in range(nrows):
        mask = 0
        for bit in range(ncols):
            if rng.random() < density:
                mask |= 1 << bit
        rows.append(mask)
    return rows


def time_elimination(rows: list[int], repeats: int = 5) -> float:
    probes = rows[: len(rows) // 4]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        basis = MaskBasis()
        for row in rows:
            basis.insert(row)
        for probe in probes:
            basis.contains(probe)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_synthetic() -> None:
    print("== synthetic elimination ==")
    print(f"{'columns':>8} {'rows':>6} {'density':>8} {'time':>12}")
    for ncols, nrows, density in [
        (64, 200, 0.05),
        (256, 500, 0.05),
        (1024, 1000, 0.02),
        (4096, 2000, 0.01),
        (16384, 3000, 0.005),
    ]:
        rows = synthetic_workload(ncols, nrows, density, seed=ncols)
        print(f"{ncols:>8} {nrows:>6} {density:>8} "
              f"{time_elimination(rows) * 1e3:>10.2f}ms")


def kernel_corpus() -> list[Graph]:
    rng = random.Random(2718)

    def rg(n, p):
        return Graph.from_edges(n, [(i, j) for i in range(n)
                                    for j in range(i + 1, n) if rng.random() < p])

    return [rg(7 + i % 4, (0.2, 0.4, 0.6)[i % 3]) for i in range(60)]


def run_kernelization() -> None:
    print("\n== kernelization end to end (180 runs) ==")
    graphs = kernel_corpus()
    patterns = [resolve_pattern(name) for name in ("K3", "K4", "C5")]
    start = time.perf_counter()
    for g in graphs:
        for h in patterns:
            kernelize(g, h)
    print(f"{time.perf_counter() - start:.3f}s")


if __name__ == "__main__":
    run_synthetic()
    run_kernelization()
