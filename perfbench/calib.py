"""Host-speed calibration for the timed metrics.

On a shared host the speed of one core drifts by more than 1.5x within a
second (a fixed pure-Python loop, with CPU time equal to wall time, reads
8-15 ms from one second to the next on a 2-vCPU Xeon VM), so raw times of
two runs of the same code differ by more than a regression worth catching.
The benchmark therefore reports its times at a fixed reference speed.  It
times a reference kernel -- parsing, Fraction arithmetic, dicts and
formatting, like the library, but no library code -- right before and after
each op and, from a SIGPROF handler, every OP_INTERVAL of CPU time while an
op runs and every SETUP_INTERVAL while the set-up runs.  A raw time t becomes
t * REF_S / r, where r is the mean kernel time over those samples (for a
set-up, less the highest and lowest tenth).  The samples' own time is left
out of t.  A change to the library moves the work's time and not the
kernel's, so it shows in full; a change in host speed moves both and
cancels.  The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import json
import re
import signal
from fractions import Fraction
from statistics import mean
from time import perf_counter

# The kernel's median time, in seconds, on a 2-vCPU Xeon VM with Python
# 3.11.7: scaled figures read close to raw ones there.
REF_S = 0.0018
# Seconds of CPU time between the samples taken while an op runs, and while
# the set-up runs: a set-up lasts seconds, so sparser samples do there.
OP_INTERVAL = 0.02
SETUP_INTERVAL = 0.1

KERNEL_TERMS = 180
TERM = re.compile(r"([+-]?\d+(?:/\d+)?)\*x\^(\d+)\*y\^(\d+)\*e(\d+)")
TEXT = " + ".join(f"{i % 7 + 1}/{i % 5 + 1}*x^{i % 4}*y^{i % 3}*e{1 + i % 2}" for i in range(KERNEL_TERMS))


def kernel():
    """What the library does, with the standard library only: parse a
    vector of KERNEL_TERMS terms, add up its Fraction coefficients in a dict
    keyed by (exponents, component) and format the sum as JSON."""
    vec = {}
    for c, a, b, k in TERM.findall(TEXT):
        key = ((int(a), int(b)), int(k))
        vec[key] = vec.get(key, 0) + Fraction(c)
    return json.dumps({f"{m}|{k}": str(c) for (m, k), c in sorted(vec.items())})


def sample():
    """Seconds one run of the kernel takes now.  The cyclic collector is off
    meanwhile, so the library's garbage is not collected on its clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(refs):
    """Mean of the samples less the highest and lowest tenth."""
    refs = sorted(refs)
    cut = len(refs) // 10
    return mean(refs[cut: len(refs) - cut])


class Sampler:
    """Kernel samples taken while work runs, from a SIGPROF handler every
    `interval` seconds of the process's CPU time, so that a long op or a
    set-up is scaled by the speed the host had while it ran and not only at
    its ends.  After `stop()`, `refs` holds the samples and `spent` the
    seconds they took."""

    def __init__(self, interval):
        self.interval = interval
        self.refs = []
        self.spent = 0.0
        self._busy = False
        signal.signal(signal.SIGPROF, self._handler)

    def _handler(self, signum, frame):
        if self._busy:  # the timer fired again during a sample
            return
        self._busy = True
        try:
            begin = perf_counter()
            self.refs.append(sample())
            self.spent += perf_counter() - begin
        finally:
            self._busy = False

    def start(self):
        self.refs = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


class OpMeter:
    """Each op's time at reference speed, scaled by the mean of the op's
    kernel samples: the one right before it (taken after the op before),
    those taken during it and the one right after it."""

    def __init__(self):
        self.sampler = Sampler(OP_INTERVAL)
        self.after = []
        self.scaled = []
        self.refs = []  # every sample, for the printed host speed

    def record(self, t):
        """Take the sample after the op that just ran, which took t s."""
        self.after.append(sample())
        own = [self.after[max(len(self.after) - 2, 0)], self.after[-1], *self.sampler.refs]
        self.scaled.append(t * REF_S / mean(own))
        self.refs += [self.after[-1], *self.sampler.refs]
