"""One benchmark set-up in a fresh interpreter.

Prints the set-up's seconds, then the median of three runs of the
calibration kernel, measured right after it in the same process.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is what a run does before its first timed call: import normgcd and
generate the workload's inputs.  The clock starts before either, so
modules they share with the harness are not already loaded.
"""

import sys
import time

t0 = time.perf_counter()

import program  # noqa: E402
import workloads  # noqa: E402

program.load_program()
workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - t0

import calibration  # noqa: E402

print(elapsed, sorted(calibration.kernel_ns() for _ in range(3))[1])
