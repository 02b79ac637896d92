"""A fixed loop that reads how fast the machine runs Python right now.

On a shared host the same pass over the same graphs can take 1.5 times
as long from one ten seconds to the next, on either core, because other
tenants' load comes and goes.  While the benchmark measures, a Sampler
times this loop every INTERVAL_S seconds from a SIGALRM handler, inside
the operations as well as between them; stats.rescale then takes the
loop's time out of each operation and rescales what is left to the speed
at which the loop takes REFERENCE_S.  The loop does the kind of work the
library does: dict lookups and small-integer arithmetic.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List, Tuple

ITERATIONS = 4000
INTERVAL_S = 0.05
# About the loop's fastest time, sampled this way, on the 2.1 GHz Xeon
# this benchmark was written on (Python 3.11).
REFERENCE_S = 0.5e-3
# When the host slows the loop by a factor k, the library's work slows by
# about k ** SENSITIVITY.  Fitted on this host: the spread (standard
# deviation over mean) of rescaled pass times was 0.034, 0.025, 0.037 on
# gap-connected7-s1, 0.018, 0.016, 0.024 on harness-bipartite6 and 0.105,
# 0.080, 0.065 on reg_power(P10, 2) with exponents 1, 0.85 and 0.75; raw,
# 0.190, 0.110 and 0.121.
SENSITIVITY = 0.85


def probe() -> float:
    """Seconds the fixed loop takes now."""
    start = perf_counter()
    table: dict = {}
    for i in range(ITERATIONS):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + (i * i) % 7
    return perf_counter() - start


class Sampler:
    """Times probe() every INTERVAL_S seconds while active.

    samples holds (start, seconds) of each probe, in time order.  The
    handler runs in the main thread between bytecodes, so no thread is
    started and the probe's own time lands in whatever was running.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append((start, probe()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
