"""The benchmark harness's view of the package: every workload builds, the
first op of each kind runs and passes the harness's own check, and the
names ``perfbench/run.py`` reads and traces exist. A deletion in the
package that would break the benchmark fails here instead.

``perfbench/`` is imported through ``sys.path`` and only read.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

import hckernel
import hckernel.formats  # noqa: F401  (the harness imports it; the package does not)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


@pytest.mark.parametrize("name", ["attach", "dense", "sparse", "compose"])
def test_first_op_of_each_kind_passes_its_check(workloads, name):
    assert name in workloads.WORKLOADS
    ops = workloads.build(name, hckernel, 1)
    firsts = {}
    for op in ops:
        firsts.setdefault(op.run.__qualname__, op)
    for kind, op in firsts.items():
        outcome = op.judge(op.run())
        assert outcome.check() is None, kind


def test_run_metadata_names():
    # perfbench/run.py records the elimination backend in every run's meta
    assert isinstance(hckernel.GF2_BACKEND, str)
    # its drift check reads these counters with getattr(..., None): a
    # renamed one would read None on every pass and compare equal
    fields = {f.name for f in dataclasses.fields(hckernel.KernelStats)}
    assert set(_perfbench_module("run").KERNEL_STATS) <= fields


def test_every_traced_name_exists():
    # a traced name that is gone reads as "missing", not as a zero-time layer
    tracer = _perfbench_module("spans").Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
