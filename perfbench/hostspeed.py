"""A fixed reference task that tracks the host's speed during a run.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, on every core at once. Timings taken minutes
apart then differ by that drift, whatever the program does. So the
benchmark interleaves this task with the work it times and rescales each
timing towards the host speed at which one unit of the task takes
``UNIT_S``:

    factor = (seconds spent on the task / units done) / UNIT_S
    rescaled = measured / factor ** EXPONENT

The task never touches dm_stegkit, so a change to the program cannot move
it, and a change that makes the program k times slower makes the rescaled
time k times larger. A unit is interpreter work (dict, list and float
operations); it tracked the drift better than numpy references (in-cache
sorts and arithmetic, a streamed 8 MB array, small float32 matrix
products). The jobs, which mix interpreter and numpy work, feel less of the
drift than the reference does: across the passes of one run, log pass time
rose by 0.3 (qr3d) to 0.7 (orient, ingest) times log factor. Over five
30-second runs per workload, EXPONENT 0.65 gave a spread (IQR/median) of
run medians of 0.04 to 0.08, against 0.06 to 0.15 raw and up to 0.15 with
an exponent of 1.
"""

from __future__ import annotations

import time

# seconds one unit takes at the reference speed, close to its median on a
# 2-vCPU x86-64 host; it only sets the scale of rescaled times
UNIT_S = 0.0023
# how much of the reference's drift the benchmark's jobs feel (see above)
EXPONENT = 0.65

# a fresh interpreter that imports what the CLI's modules import, and the
# seconds it takes at the reference speed: set-up times are rescaled by it
STARTUP_CODE = "import argparse, json, os, sys, zlib; import numpy"
STARTUP_S = 0.2

_WORDS = [f"w{i % 613}" for i in range(8_000)]


def unit() -> float:
    counts: dict[str, float] = {}
    for i, w in enumerate(_WORDS):
        counts[w] = counts.get(w, 0.0) + i * 0.5
    ordered = sorted(counts.values())
    return ordered[len(ordered) // 2]


class Meter:
    """Units done and seconds spent on the reference task so far."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def run(self, seconds: float) -> None:
        """Run whole units for about ``seconds`` (at least one unit)."""
        t0 = time.perf_counter()
        end = t0 + seconds
        while True:
            unit()
            self.units += 1
            now = time.perf_counter()
            if now >= end:
                break
        self.seconds += now - t0

    def factor(self) -> float:
        """Measured unit time over ``UNIT_S``: above 1 means a slow host."""
        return self.seconds / self.units / UNIT_S
