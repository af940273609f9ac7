"""Reference CPU speed, measured next to the workload.

The reference host shares its CPUs with other tenants, and its speed drifts,
in process CPU time as well as in wall time: ``sim_rtf`` on ``closed_loop``
was 2.7 in one hour and 4.3 in the next.  So the operation's times are
scaled to a fixed reference speed.  A fixed kernel that uses no quadtrack
code is timed right before and right after each timed stage, and the
stage's time is multiplied by REF_KERNEL_S / (mean kernel time).  A change
to quadtrack moves a scaled time exactly as it moves host time; a change in
the machine's speed moves the kernel too and cancels out.

The kernel is plain Python: interpreted float arithmetic on 3-vectors,
``%.9g`` formatting and float parsing.
"""

import math
import time

# The kernel's time on the reference host (2-core x86_64, Python 3.11.7) in
# a quiet period.  It only sets the scale, so it must stay the same from
# commit to commit.
REF_KERNEL_S = 0.003
KERNEL_REPEATS = 7


def kernel() -> float:
    R = ((0.0, -1.0, 0.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0))
    v = [1.0, 2.0, 3.0]
    acc = 0.0
    for i in range(1200):
        v = [0.5 * (r[0] * v[0] + r[1] * v[1] + r[2] * v[2]) + 1.0 for r in R]
        acc += math.sqrt(i + acc % 7.0)
    text = ",".join(format(acc * k / 7.0, ".9g") for k in range(2000))
    return acc + sum(float(x) for x in text.split(","))


def kernel_time() -> float:
    """Mean time of one kernel run over KERNEL_REPEATS runs, in seconds.
    The mean, not the median: the host flips between a fast and a slow
    state, and a stage's time depends on how long it spent in each."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        kernel()
    return (time.perf_counter() - t0) / KERNEL_REPEATS


def factor(before: float, after: float) -> float:
    """Scale for a stage between two kernel timings: multiply a time by it,
    divide a rate by it."""
    return REF_KERNEL_S * 2.0 / (before + after)
