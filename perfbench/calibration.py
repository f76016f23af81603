"""Host-speed calibration: timings scaled to a nominal host speed.

The shared host this benchmark was tuned on (a 2-vCPU Xeon VM) runs fast
or slow in spells of a fraction of a second to over a minute, and slow is
up to 1.7 times slower for pure-Python work.  A plain wall-clock time of
an operation follows those spells more than it follows the program.

So a fixed piece of pure-Python work, `reference_chunk`, is timed again
and again while the program runs: at every EVERY-th successor enumeration
of an operation (one dequeued state of a search, one step of a
simulation), and around every set-up pass.  Its time is taken out of the
operation's time.  The operation's time is then scaled by REF_S over the
median chunk time during that operation:

    normalised seconds = program seconds * REF_S / median chunk seconds

This is the time the operation would take on a host that runs the chunk
in REF_S seconds, which is about this VM in its fast spells.  Work the
program adds or removes changes the program seconds and not the chunk, so
it shows in full.  What the host does to both cancels.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

from plcreach import explorer

# Seconds one reference_chunk() takes in the fast spells of the VM above.
REF_S = 1.1e-4
# A chunk every EVERY enumerations: every 6 ms in a simulation, every
# 30..60 ms in a search.  The chunk's time is not counted as the program's.
EVERY = 32

_TABLE = {i: i * 7 % 256 for i in range(256)}


def reference_chunk() -> int:
    """Dict lookups and small-integer arithmetic, about 0.1 ms.

    It creates no container object, so it does not move the garbage
    collector's counts and cannot shift the program's collections.
    """
    t = _TABLE
    x = 0
    for i in range(1000):
        x = (x + t[(x ^ i) & 255]) & 0xFFFF
    return x


def time_chunk() -> float:
    t0 = perf_counter()
    reference_chunk()
    return perf_counter() - t0


@contextmanager
def calibrating(samples: list):
    """Time a reference chunk at every EVERY-th successor enumeration.

    Rebinds `explorer.successors`, where `search` and `simulate` look it
    up, and appends each chunk's seconds to `samples`.
    """
    orig = explorer.successors
    n = 0

    def calibrated(ctx, s, **kwargs):
        nonlocal n
        n += 1
        if n % EVERY == 0:
            samples.append(time_chunk())
        return orig(ctx, s, **kwargs)

    explorer.successors = calibrated
    try:
        yield
    finally:
        explorer.successors = orig


def normalise(seconds: float, samples: list) -> float:
    """`seconds` of program work, scaled to the nominal host speed."""
    return seconds * REF_S / statistics.median(samples)
