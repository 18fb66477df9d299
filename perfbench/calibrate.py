"""Machine-speed calibration for the timed figures.

On a shared host the speed of single-threaded Python code drifts by up to
1.7x over spells of 5-20 s (measured on the 2-vCPU machine these bounds
were set on: a fixed loop took between 12.8 and 22 ms per call), and CPU
time drifts with it, so a 20 s run's raw figures vary by 20% between
runs.  The timed runs therefore scale every job time to a reference
speed: a fixed pure-Python probe runs before and after each chunk of about
``CHUNK_S`` seconds of job work, and the jobs of the chunk are scaled by
``REFERENCE_S`` over the probe's mean time around them.  The probe uses
no cartier_lab code, so a change to the program moves the scaled times
exactly as it moves the raw ones, while a spell of host contention
moves the probe with them and cancels out.
"""

import time

# Median probe time over 45 s on the machine the bounds were set on; scaled
# figures read as seconds at that machine's typical speed.
REFERENCE_S = 0.0015
CHUNK_S = 0.25


def probe():
    """Best of three runs of a fixed dict/tuple workload, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0) + i * 3 % 11
        sorted(acc.items())
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedScale:
    """Per-sample factors that scale raw times to the reference speed."""

    def __init__(self):
        self.last = probe()
        self.factors = []  # one per recorded sample, set when its chunk closes
        self.open = []
        self.open_s = 0.0

    def record(self, raw_s):
        self.factors.append(None)
        self.open.append(len(self.factors) - 1)
        self.open_s += raw_s
        if self.open_s >= CHUNK_S:
            self.close()

    def close(self):
        if not self.open:
            return
        now = probe()
        factor = REFERENCE_S / ((self.last + now) / 2)
        for i in self.open:
            self.factors[i] = factor
        self.last = now
        self.open = []
        self.open_s = 0.0
