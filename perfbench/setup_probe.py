"""Time what a fresh process pays before its first operation.

Prints the reference seconds (see speed.py) spent importing ``hckernel``
and resolving every target the workload uses (patterns, or blocking
gadgets for compose), scaled by calibration samples this process takes
just before and after. Run by run.py in a child process, once per set-up
sample:

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

import workloads
from speed import MAX_REPS, Speedometer

name = sys.argv[1]
meter = Speedometer()
meter.sample(MAX_REPS)
start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import hckernel  # noqa: E402
import hckernel.formats  # noqa: E402  (not imported by the package)

for pattern in workloads.PATTERNS[name]:
    hckernel.formats.resolve_pattern(pattern)
if name == "compose":
    for target in workloads.gadget_targets():
        hckernel.composer.build_blocking_gadget(target)
end = time.perf_counter()
meter.sample(MAX_REPS)
print((end - start) * meter.scale(start, end))
