"""The machine's current speed, read off a fixed reference loop.

The benchmark runs on a VM that shares its host.  The host's load slows
every instruction the VM runs, by a factor that drifts between about
1.0 and 2.0 over seconds to minutes; the guest kernel does not see it,
so CPU time drifts with wall time.  Between jobs, the benchmark runs
this loop, which never changes, and times it.  Its time over
``UNIT_S`` per unit is the slowdown the jobs around it met; the
benchmark divides job times by it.  A reported time is therefore in
seconds at the loop's nominal speed, and a change to ``etd`` moves it
only through the time ``etd`` takes.
"""

from __future__ import annotations

import math
import random
import time

# About the fastest time of one unit on the 2-vCPU x86-64 VM the
# benchmark was written on, with CPython 3.11.  Only the ratio of job
# time to loop time is measured; this constant turns that ratio back
# into seconds, and must stay fixed so that runs compare.
UNIT_S = 0.0007
# Loop time run before and again after each job, as a share of the
# job's time.
SHARE = 0.1
# The same around each set-up: set-ups are few and short, so the loop
# needs a larger share to read the slowdown as well.
SETUP_SHARE = 0.25

_PERM = list(range(512))
random.Random(0).shuffle(_PERM)


def _unit():
    """Work of the kind etd does: permutation products, dict and tuple
    building, small sorts."""
    p = _PERM
    q = list(range(len(p)))
    for _ in range(16):
        q = [p[x] for x in q]
        where = {x: i for i, x in enumerate(q)}
        head = tuple(sorted(q[:64]))
        total = sum(where[x] for x in head)
    return total


def units_for(seconds, share=SHARE):
    """Units to run after a job of ``seconds``: ``share`` of it, at
    least one."""
    return max(1, math.ceil(share * seconds / UNIT_S))


def run(units):
    """Run ``units`` units of the loop; return the wall time taken."""
    t0 = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - t0
