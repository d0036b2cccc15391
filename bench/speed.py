"""How fast this machine runs Python while a call runs, to normalise timings.

The machine the benchmark was written on shares its cores with other
tenants.  It ran the same calls at full speed or up to about 1.8 times
slower, changing within a second as well as over minutes, so the wall times
of one call at different moments differ more than most changes a benchmark
should show.  A fixed reference loop slows down by the same factor at the
same moments (both are interpreter-bound Python).

`Sampler` times the loop every `PERIOD_S` of wall time from a SIGALRM
handler, in the same thread as the program, so the samples fall inside the
calls they are used for.  A call's wall time less the handler's time inside
it is its own time; `Sampler.normalise` scales that by `REFERENCE_S` over
the harmonic mean of the loop times sampled during the call (at least
`MIN_SAMPLES` of them, the nearest ones for a short call).  The harmonic
mean, because the call's time is its work over the mean speed, and the
speed at a sample is inversely proportional to the loop's time there.
Normalised figures are in seconds at the speed at which the loop takes
`REFERENCE_S`: its median time inside the benchmark's runs on that machine,
1.2 to 1.3 ms on every workload (alone it takes 0.7 to 0.8 ms at full
speed; between samples the program's own work takes over the caches), so
they read close to that machine's usual wall times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Optional

REFERENCE_S = 1.25e-3
PERIOD_S = 0.025
MIN_SAMPLES = 8


def _loop() -> Fraction:
    """Rational and float arithmetic and a sort, like the program's work."""
    s = Fraction(0)
    x = 0.0
    pairs = []
    for i in range(1, 150):
        s += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        x += (i * 0.5) ** 0.5
        pairs.append((x, i))
    pairs.sort()
    return s


class Sampler:
    """Times the loop every PERIOD_S while installed."""

    def __init__(self) -> None:
        self.starts: List[float] = []  # perf_counter at each sample
        self.loops: List[float] = []  # the loop's time at each sample
        self.spent = 0.0  # total time inside the handler
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        _loop()
        done = time.perf_counter()
        self.starts.append(entered)
        self.loops.append(done - entered)
        self.spent += time.perf_counter() - entered
        self._busy = False

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> List[float]:
        """The loop times sampled in [start, end], widened to the nearest
        MIN_SAMPLES when there are fewer."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.starts)):
            if j >= len(self.starts) or (i > 0 and start - self.starts[i - 1] <= self.starts[j] - end):
                i -= 1
            else:
                j += 1
        return self.loops[i:j]

    def normalise(self, seconds: float, start: float, end: float) -> float:
        return seconds * REFERENCE_S / statistics.harmonic_mean(self.window(start, end))


# the sampler of the run in progress, read by the timing of every call
current: Optional[Sampler] = None


def spent() -> float:
    """Handler time so far; the difference over a call is not its own."""
    return current.spent if current is not None else 0.0
