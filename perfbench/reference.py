"""How fast the host runs right now, from a fixed pure-Python workload.

On a shared host the speed of the whole machine drifts by up to 1.6x
over minutes, which moves every wall time of a run together: runs of
the same code spread further apart than any useful regression bound.
The benchmark therefore times this fixed workload (allocation, hashing,
sorting: the kind of work ``repro`` does, and none of its code) before
and after each measured sample, and reports the run's median wall scaled
by the median reference time to a host on which the workload takes
``NOMINAL_S``.  A change to
the program moves the scaled figure as it moves the wall; drift of the
host moves both the wall and the reference, and cancels.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

#: The reference's median wall on the 2-vCPU Xeon host the benchmark was
#: defined on, so that scaled figures read close to seconds there.
NOMINAL_S = 0.3


def _work():
    # About 40 MB of small objects: smaller tables tracked the host's
    # drift worse (their working set stays in cache while ``repro``'s
    # does not); larger ones cost more time between samples for no gain.
    rng = random.Random(1)
    table = {}
    for i in range(100_000):
        table[(rng.randrange(1 << 20), i)] = [i, str(i), (i, i + 1)]
    keys = sorted(table, key=lambda key: key[0])
    return sum(len(table[key][1]) for key in keys[::3])


def _timed_work():
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def measure():
    """Wall, in seconds, of one run of the reference workload.

    It runs in a short-lived interpreter of its own, so that its memory
    never shows in the peak RSS of the process being measured.
    """
    done = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def scale(wall_s, ref_s):
    """``wall_s`` as it would read on a host where ``measure()`` is nominal."""
    return wall_s * NOMINAL_S / ref_s


if __name__ == "__main__":
    print(repr(_timed_work()))
