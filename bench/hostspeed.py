"""The host's speed, sampled during a pass, to take its drift out of timings.

On a shared host the same interpreter code runs up to about 1.6 times
slower for seconds or minutes at a time, because of what other tenants
do; process CPU time drifts with wall time, so it does not help.  A
`SpeedSampler` runs a fixed slice of pure-Python work (`calibrate`) from
a SIGALRM timer every `period` seconds of the pass, in the pass's own
thread, and records when each slice started and how long it took.  An
interval of the pass then converts to reference seconds: each stretch of
it between slices counts as

    stretch * REFERENCE_SLICE_S / slice time near the stretch

and the slices themselves do not count.  `REFERENCE_SLICE_S` is about
what one slice takes on the 2-vCPU host of `predictions.json` (Python
3.11), so reference seconds read close to wall seconds there.  Library
time follows slice time closely but not exactly: over passes that ran
up to 1.7 times slower than each other, the standard deviation of pass
times fell from 12-18% of their mean to about 3% in reference seconds.
It imports only built-in modules (no `statistics`, which loads `fractions`),
so that starting it before `import aq` takes nothing off the set-up time.
"""

import math
import signal
import time

REFERENCE_SLICE_S = 0.0011
PERIOD_S = 0.04


def _product(f: dict, g: dict, mul, add) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = mul(ca, cb)
            out[e] = add(out[e], c) if e in out else c
    return out


def _qmul(a: tuple, b: tuple) -> tuple:
    n, d = a[0] * b[0], a[1] * b[1]
    g = math.gcd(n, d)
    return n // g, d // g


def _qadd(a: tuple, b: tuple) -> tuple:
    n, d = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    g = math.gcd(n, d)
    return n // g, d // g


def calibrate() -> int:
    """Fixed interpreter work of the kind the library does: products of
    sparse polynomials held as dicts from exponent tuples to coefficients,
    over the rationals (as reduced pairs) and modulo a prime."""
    f = {(i, 3 - i % 4, i % 2): (i + 1, 7) for i in range(6)}
    g = {(i % 3, i, 1): (2, i + 3) for i in range(5)}
    h = _product(_product(f, g, _qmul, _qadd), g, _qmul, _qadd)
    p = 7
    hp = {e: n * d % p for e, (n, d) in h.items()}
    gp = {e: n % p for e, (n, d) in g.items()}
    hp = _product(hp, gp, lambda a, b: a * b % p, lambda a, b: (a + b) % p)
    return len(h) + len(hp)


def _median(xs: list[float]) -> float:
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


class SpeedSampler:
    """Slices of `calibrate` run from a SIGALRM timer."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        calibrate()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self) -> None:
        """Run one slice now, after an untimed one that warms it up, so
        that what follows has slices on both sides; then one every period."""
        calibrate()
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def smoothed(self) -> list[float]:
        """Each slice's time as the median of it and its two neighbours on
        each side, so that a slice the kernel preempted does not count."""
        d = self.durations
        return [_median(d[max(i - 2, 0):i + 3]) for i in range(len(d))]

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1], less its slices, in reference seconds.

        The time between two slices is scaled by the mean of their
        smoothed slice times; before the first slice and after the last,
        by the nearest one's."""
        if not self.durations:
            raise ValueError("no slices sampled")
        smooth = self.smoothed()
        ends = [-math.inf] + [s + d for s, d in zip(self.starts,
                                                    self.durations)]
        starts = self.starts + [math.inf]
        last = len(smooth) - 1
        total = 0.0
        for i, (a, b) in enumerate(zip(ends, starts)):
            a, b = max(a, t0), min(b, t1)
            if b > a:
                local = (smooth[max(i - 1, 0)] + smooth[min(i, last)]) / 2
                total += (b - a) * REFERENCE_SLICE_S / local
        return total
