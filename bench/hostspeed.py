"""Scale measured times to a quiet host with an interleaved reference loop.

The benchmark's host shares its vCPUs with other tenants' work.  For
seconds to minutes at a time every op runs up to 2.4 times slower, and a
whole 25 s run can fall inside such a phase, so raw wall times of the same
code spread over runs by more than any bound the benchmark may set.

A fixed reference loop (pure-Python ``Fraction``, polynomial and dict
work, the kinds the library's ops are made of) runs between ops, at most
every ``PROBE_EVERY_S``.  Interleaved this finely it slows down with the
ops: over 120 s in which the 2 s medians of centralizer and products ops
ranged over 1.1-2.4 times their fastest, a least-squares fit of log op
slowdown on log reference slowdown had slope 0.98 (centralizer) and 1.03
(products), with residual standard deviations of 0.08 and 0.02.  Each
op's time is divided by the host's slowdown at that moment, the median of
the reference times within ``WINDOW_S`` of the op over ``QUIET_REF_S``.
The result is the op's time on the host when it is quiet.  The probes
run outside the timed ops and take about 3% of a run.

``QUIET_REF_S`` is a constant, not the fastest reference time of the run,
because a run that falls wholly inside a slow phase has no quiet moment
to compare with.  It is the reference loop's time on a quiet vCPU of the
host the README's figures come from, so scaled times read as milliseconds
of that host; on other hardware they are in the same unit, the reference
loop's time, scaled by the same constant.  Set-up times are scaled the
same way by bare interpreter starts (``QUIET_START_S``).
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

QUIET_REF_S = 0.001300  # reference loop on a quiet vCPU: 2-vCPU Xeon VM, Python 3.11.7
# A bare interpreter start (``python3 -c "print('ready')"``, spawn to first
# line) on the same quiet host.  Process start-up hardly follows the
# reference loop (a fit of log set-up time on log reference slowdown had
# slope 0.12-0.22) but does follow a bare start: over a minute of products
# set-ups, set-up time spread 0.32 and set-up over bare start 0.15.
QUIET_START_S = 0.043
PROBE_EVERY_S = 0.04  # at most one probe per this much wall time
WINDOW_S = 0.5  # probes within this distance of an op set its slowdown
MIN_PROBES = 5  # widen the window to at least this many probes


def _fraction_sum():
    """Fractions whose denominators grow into big integers."""
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i)
    return total


_P = {e: Fraction(e + 1, 2 * e + 3) for e in range(12)}
_Q = {e: Fraction(3 - e, e + 1) for e in range(12)}


def _poly_product():
    """A dense product of small-coefficient polynomials held as dicts."""
    out = {}
    for e1, c1 in _P.items():
        for e2, c2 in _Q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _dict_churn():
    """Tuple-keyed dict updates and a sort."""
    table = {}
    for i in range(400):
        key = ((i * 7919) % 211, i & 7)
        table[key] = table.get(key, 0) + i
    return sorted(table.items())[:5]


def reference_loop():
    """One probe: each kind of work the library's ops are made of."""
    _fraction_sum()
    _poly_product()
    _dict_churn()


class HostSpeed:
    """Reference-loop probes of one run, and the slowdown they imply."""

    def __init__(self):
        self.at = []  # start of each probe, perf_counter seconds, ascending
        self.ref = []  # its duration

    def probe(self):
        t0 = time.perf_counter()
        reference_loop()
        self.at.append(t0)
        self.ref.append(time.perf_counter() - t0)

    def maybe_probe(self):
        """Probe if the last probe is at least PROBE_EVERY_S old."""
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def probes(self, count):
        for _ in range(count):
            self.probe()

    def slowdown(self, t):
        """Median reference time around ``t`` over the quiet reference time."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return statistics.median(self.ref[lo:hi]) / QUIET_REF_S

    def scale(self, start, elapsed):
        """``elapsed`` seconds measured from ``start``, as on a quiet host."""
        return elapsed / self.slowdown(start + elapsed / 2)

    def median_slowdown(self):
        return statistics.median(self.ref) / QUIET_REF_S
