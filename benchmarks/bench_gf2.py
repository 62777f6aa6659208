#!/usr/bin/env python3
"""Benchmark the two GF(2) elimination backends.

Two workloads:

* synthetic - random row sets at several widths/densities, timing
  insert-everything plus span-membership probes;
* kernelization - end-to-end `kernelize` runs on seeded random graphs,
  once per backend (selected via HCKERNEL_GF2_BACKEND in a subprocess,
  since the backend is chosen at import time).

Run:  python benchmarks/bench_gf2.py

The package is imported from this checkout's ``src/``, here and in the
subprocesses, so no install is needed.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hckernel.gf2 import available_backends  # noqa: E402


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


def time_backend(backend, rows: list[int], ncols: int, repeats: int = 5) -> float:
    probes = rows[: len(rows) // 4]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        basis = backend.XorBasis(ncols)
        for row in rows:
            basis.insert(row)
        for probe in probes:
            basis.contains(probe)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_synthetic() -> None:
    backends = available_backends()
    print("== synthetic elimination ==")
    print(f"{'columns':>8} {'rows':>6} {'density':>8} "
          + " ".join(f"{name:>12}" for name in backends)
          + ("  speedup" if len(backends) == 2 else ""))
    for ncols, nrows, density in [
        (64, 200, 0.05),
        (256, 500, 0.05),
        (1024, 1000, 0.02),
        (4096, 2000, 0.01),
        (16384, 3000, 0.005),
    ]:
        rows = synthetic_workload(ncols, nrows, density, seed=ncols)
        times = {name: time_backend(mod, rows, ncols)
                 for name, mod in backends.items()}
        line = f"{ncols:>8} {nrows:>6} {density:>8} " + \
            " ".join(f"{times[name] * 1e3:>10.2f}ms" for name in backends)
        if "compiled" in times and "pure" in times:
            line += f"  {times['pure'] / times['compiled']:>6.2f}x"
        print(line)


KERNEL_SNIPPET = """
import random, time
import hckernel
from hckernel.formats import resolve_pattern
from hckernel.kernelization import kernelize
from hckernel.graphs import Graph

rng = random.Random(2718)
def rg(n, p):
    return Graph.from_edges(n, [(i, j) for i in range(n)
                                for j in range(i + 1, n) if rng.random() < p])

graphs = [rg(7 + i % 4, (0.2, 0.4, 0.6)[i % 3]) for i in range(60)]
patterns = [resolve_pattern(name) for name in ("K3", "K4", "C5")]
start = time.perf_counter()
for g in graphs:
    for h in patterns:
        kernelize(g, h)
print(f"{hckernel.GF2_BACKEND} {time.perf_counter() - start:.3f}")
"""


def run_kernelization() -> None:
    print("\n== kernelization end to end (180 runs) ==")
    results = {}
    for name in available_backends():
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, HCKERNEL_GF2_BACKEND=name, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", KERNEL_SNIPPET],
                             env=env, capture_output=True, text=True, check=True)
        backend, seconds = out.stdout.split()
        results[backend] = float(seconds)
        print(f"{backend:>10}: {float(seconds):.3f}s")
    if len(results) == 2:
        print(f"   speedup: {results['pure'] / results['compiled']:.2f}x")


if __name__ == "__main__":
    run_synthetic()
    run_kernelization()
