"""Host-speed calibration: a fixed pure-Python loop timed next to the program.

On a shared host, other tenants' work slows this process by up to about
2x, in episodes that last from a fraction of a second to minutes.  CPU
time slows with wall time, so it is no way out.  The benchmark therefore
times a fixed reference loop right before an interval, every PERIOD_S
during it (from a SIGALRM handler, whose time is taken out of the
interval) and right after it.  The loop uses only the standard library and
no symdesign code, so a change to the program cannot move it.  It mixes
the kinds of work symdesign does: tuple composition as in
``Permutation.__mul__``, small-integer arithmetic as in ``arith.divisors``,
and frozenset meets and a dict of point pairs as in ``verify_symmetric``.

An ``Interval`` reports its raw seconds and the same scaled by how much
slower the reference ran than its nominal time on a quiet host:
``raw * NOMINAL_S / median(reference samples)``.  The result is seconds at
the quiet host speed.  A change to the program moves it as it moves the
raw time; a slow episode of the host moves the raw time and the reference
alike, so it mostly cancels.  Each sample is the fastest of a few runs of
the loop, so that a burst shorter than a sample does not count.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import combinations

_DEGREE = 144
# Twelve fixed permutations of 0..143 (i -> m*i + c, m prime to 144).
_PERMS = tuple(tuple((m * i + c) % _DEGREE for i in range(_DEGREE))
               for m, c in zip((5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37), range(3, 99, 8)))
# Blocks as in ``verify_symmetric``: pairwise meets and a pair count.
_BLOCK_TUPLES = tuple(tuple(sorted(p[:20])) for p in _PERMS)
_BLOCKS = tuple(frozenset(p[:70]) for p in _PERMS[:8]) + tuple(
    frozenset(p[60:130]) for p in _PERMS[:8])

EDGE_REPS = 5  # reference runs per sample before and after an interval
TICK_REPS = 2  # reference runs per sample during it
PERIOD_S = 0.1
# The reference's time on the benchmark's host (a 2.1 GHz Xeon vCPU) at a
# quiet moment.  Corrected times are seconds at that host speed.
NOMINAL_S = 0.0008


def _reference() -> int:
    """Just under a millisecond of work of the kinds symdesign does."""
    acc = _PERMS[0]
    for p in _PERMS:
        for q in _PERMS[:2]:
            acc = tuple(p[i] for i in acc)
            acc = tuple(q[i] for i in acc)
    total = 0
    for n in range(2, 100):
        total += sum(d for d in range(1, int(n ** 0.5) + 1) if n % d == 0)
    for a, b in combinations(_BLOCKS, 2):
        total += len(a & b)
    pairs = {}
    for block in _BLOCK_TUPLES:
        for pair in combinations(block, 2):
            pairs[pair] = pairs.get(pair, 0) + 1
    return total + len(pairs) + acc[0]


def sample(reps: int = EDGE_REPS) -> float:
    """Seconds of the fastest of ``reps`` reference runs, taken now."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t0)
    return best


class Interval:
    """Times the code between ``start`` and ``stop`` (or a ``with`` block).

    After ``stop``, ``raw`` is its seconds less the time spent sampling
    inside it, ``samples`` the reference samples and ``corrected`` the raw
    seconds at the quiet host speed.  With ``sampled=False`` it only times
    (``corrected`` is then undefined).  Only one sampled Interval may run
    at a time.
    """

    def __init__(self, sampled: bool = True):
        self.sampled = sampled
        self.samples = []
        self._spent = 0.0

    def start(self) -> "Interval":
        if self.sampled:
            self.samples.append(sample())
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> "Interval":
        t1 = time.perf_counter()
        if self.sampled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.raw = t1 - self._t0 - self._spent
        if self.sampled:
            self.samples.append(sample())
        return self

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.samples.append(sample(TICK_REPS))
        self._spent += time.perf_counter() - t0

    @property
    def corrected(self) -> float:
        return self.raw * NOMINAL_S / statistics.median(self.samples)

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc):
        self.stop()
        return False
