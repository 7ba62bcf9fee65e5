"""Machine-speed calibration by a fixed kernel sampled throughout a run.

On a shared host the speed of one core drifts by tens of percent, both within
seconds and between minutes: a fixed pure-Python loop of 40 ms took anywhere
from 41 to 120 ms over one minute on the 2-core machine this benchmark was
written on.  Raw wall times of identical runs spread as widely.

While a run measures, a SIGALRM interval timer runs ``kernel()`` in the main
thread every ``INTERVAL`` seconds (a signal handler, not a thread).  The kernel
is fixed pure-Python work of the kind formata spends most of its time on:
Fraction arithmetic and small-tuple hashing.  Of the kernels tried, this one
tracked formata's own slowdowns best, on the lattice-bound and on the
arithmetic-bound workloads; adding permutation products to it tracked worse.
A measured interval is then reported as

    (elapsed - kernel time inside it) * NOMINAL / (mean kernel time near it)

that is, in seconds of a reference machine on which one kernel takes
``NOMINAL`` seconds.  "Near" means the samples taken inside the interval,
widened on both sides to at least ``MIN_SAMPLES`` samples, so a long item is
scaled by the speed during that item and a short one by the speed of the
surrounding ~0.3 s.  Over eight ``verify_catalog`` runs this kept the range of
``item_p98_ms`` within 6 % of its median, where a fixed window of +-0.5 s gave
13 %.
"""

import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.01
MIN_SAMPLES = 30
NOMINAL = 0.0004


def kernel():
    """Fraction sums and small-tuple dict inserts."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 1)
        table[tuple(range(i % 7, i % 7 + 8))] = acc
    return len(table)


class Calibrator:
    """Context manager that samples the kernel and scales measured intervals."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.starts = []
        self.cum = [0.0]  # cum[i] = total kernel time of the first i samples
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        d = time.perf_counter() - t0
        self.starts.append(t0)
        self.cum.append(self.cum[-1] + d)
        if self.on_sample is not None:
            self.on_sample(d)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def samples(self):
        return len(self.starts)

    def mean_kernel(self, t0, t1):
        """Mean kernel time of the samples in [t0, t1], widened to MIN_SAMPLES."""
        n = len(self.starts)
        if n < MIN_SAMPLES:
            raise RuntimeError("only %d calibration samples" % n)
        a = bisect.bisect_left(self.starts, t0)
        b = bisect.bisect_left(self.starts, t1)
        if b - a < MIN_SAMPLES:
            extra = MIN_SAMPLES - (b - a)
            a = min(max(a - extra // 2, 0), n - MIN_SAMPLES)
            b = a + MIN_SAMPLES
        return (self.cum[b] - self.cum[a]) / (b - a)

    def scaled(self, t0, t1):
        """Seconds the interval [t0, t1] would take on the reference machine."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        net = (t1 - t0) - (self.cum[j] - self.cum[i])
        return net * NOMINAL / self.mean_kernel(t0, t1)
