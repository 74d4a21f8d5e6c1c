"""A fixed reference kernel that measures how fast the machine is right now.

On a shared 2-core virtual machine (Python 3.11.7) the speed of the
same Python code drifted by up to 2x, in phases lasting from seconds to
a minute; process CPU time drifted the same.  The harness therefore
times this kernel every ``INTERVAL_S`` while it works and rescales each
operation's seconds to the speed at which the kernel takes
``NOMINAL_S``, using the samples taken around that operation.  The
kernel is written like the package's hot paths (include/exclude search
over bitmasks, bit-by-bit relabelling, sorting and JSON output) but
shares no code with it, so a change to the package cannot move it.

The kernel's speed swings more than the package's: when the kernel
ran 2x faster the package ran about 1.6x faster.  Seconds are
therefore scaled by (NOMINAL_S / kernel time) ** ELASTICITY.  On that
machine, over ten runs of the maxsize and certificates workloads each,
the spread of wall_s across runs (interquartile range over median) was
0.09 and 0.21 unscaled, 0.03 and 0.04 with exponent 1, and 0.02 and
0.03 with 0.75; rescaling whole passes by their median sample instead
of each operation by its own samples was worse.  A memory-bound kernel
tracked the package worse than this one.
"""

from __future__ import annotations

import json
import statistics
import time
from itertools import combinations

NOMINAL_S = 0.020   # kernel time that defines nominal speed
INTERVAL_S = 0.25   # least time between two samples during a pass
ELASTICITY = 0.75   # program time ~ kernel time ** ELASTICITY

_MASKS = tuple(sum(1 << v for v in c) for c in combinations(range(8), 3))[::3]
_PERM = (3, 0, 7, 1, 6, 2, 5, 4)


def _relabel(mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << _PERM[low.bit_length() - 1]
        mask ^= low
    return out


def _kernel() -> int:
    masks = _MASKS
    best = [0]

    def extend(chosen: list[int], i: int) -> None:
        best[0] = max(best[0], len(chosen))
        if len(chosen) + len(masks) - i <= best[0]:
            return
        for j in range(i, len(masks)):
            if all(masks[j] & c for c in chosen):
                chosen.append(masks[j])
                extend(chosen, j + 1)
                chosen.pop()
    extend([], 0)
    images = sorted(_relabel(m) for m in masks for _ in range(4))
    return len(json.dumps({"best": best[0], "images": images}))


def sample() -> float:
    """Seconds one run of the kernel (two rounds) takes now."""
    t0 = time.perf_counter()
    _kernel()
    _kernel()
    return time.perf_counter() - t0


class Clock:
    """Kernel samples taken at most every INTERVAL_S during a pass."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(sample())
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns this pass's seconds into nominal seconds."""
        return factor(self.median())


def factor(kernel_s: float) -> float:
    """Seconds to nominal seconds, when the kernel takes ``kernel_s``."""
    return (NOMINAL_S / kernel_s) ** ELASTICITY
