"""Machine-speed calibration for the benchmark's reported times.

The machine the benchmark was written on is shared: the same job's wall
time drifts by a third within minutes, and fixed pure-Python work slows
down with it.  So the benchmark times short slices of fixed work while it
measures, and scales each measured time to what it would have been at
nominal speed:

    scaled = measured x geometric mean over slice kinds of
             (nominal slice time / median measured slice time)

A job is sampled once before it starts, every CAL_PERIOD_S of CPU time
while it runs (from a SIGVTALRM handler, with the sampling time taken out
of the job's time) and once after it ends.  In-job samples matter for long
jobs: slices taken only around a 12-second job describe its first and last
moments, not the job.

There are two slice kinds, because the workloads differ in how the shared
machine slows them: small tuples and a dictionary (the coset and word
layers), and permutations of 1080 points (the forge-s3-g2 chain's degree)
composed as image tuples.  The slices share no code with mcglift, so a
change to mcglift cannot move them.  The nominal times are constants of
the benchmark; changing them rescales every reported time.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time

CAL_PERIOD_S = 0.5
SMALL_DEGREE, SMALL_STEPS, SMALL_NOMINAL_S = 101, 1000, 0.005
LARGE_DEGREE, LARGE_POOL, LARGE_STEPS, LARGE_NOMINAL_S = 1080, 64, 150, 0.008


def _compose(p, q):
    return tuple([p[x] for x in q])


def _small_slice(x, q):
    seen = {}
    for _ in range(SMALL_STEPS):
        x = _compose(x, q)
        seen[hash(x) & 1023] = x
    return len(seen)


def _large_slice(pool):
    pool = list(pool)
    seen = {}
    for i in range(LARGE_STEPS):
        c = _compose(pool[i % LARGE_POOL], pool[(7 * i + 3) % LARGE_POOL])
        pool[(13 * i + 5) % LARGE_POOL] = c
        seen[hash(c) & 63] = c
    return len(seen)


class Speedometer:
    def __init__(self):
        rng = random.Random(0)
        self._x = tuple(rng.sample(range(SMALL_DEGREE), SMALL_DEGREE))
        self._q = tuple(rng.sample(range(SMALL_DEGREE), SMALL_DEGREE))
        self._pool = tuple(
            tuple(rng.sample(range(LARGE_DEGREE), LARGE_DEGREE))
            for _ in range(LARGE_POOL))
        self._small = []
        self._large = []

    def sample(self, signum=None, frame=None):
        """Time one slice of each kind."""
        t0 = time.perf_counter()
        _small_slice(self._x, self._q)
        t1 = time.perf_counter()
        _large_slice(self._pool)
        t2 = time.perf_counter()
        self._small.append(t1 - t0)
        self._large.append(t2 - t1)

    def reset(self):
        self._small, self._large = [], []

    def factor(self):
        """Nominal over measured speed, from the samples since reset()."""
        return math.sqrt(
            SMALL_NOMINAL_S / statistics.median(self._small)
            * LARGE_NOMINAL_S / statistics.median(self._large))

    def time_call(self, fn):
        """Run fn() with sampling; return (result, seconds, scaled seconds).

        The seconds exclude the in-job samples.
        """
        self.reset()
        self.sample()
        previous = signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, CAL_PERIOD_S, CAL_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)
        elapsed -= sum(self._small[1:]) + sum(self._large[1:])
        self.sample()
        return result, elapsed, elapsed * self.factor()
