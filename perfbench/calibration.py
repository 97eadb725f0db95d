"""Host-speed calibration: a fixed kernel timed next to the queries.

On a shared host the speed of one core swings by up to 1.7x within a minute
(other tenants, frequency), which no number of samples in one run averages
out.  The measured process therefore times a fixed kernel between queries,
every `CADENCE_S[kind]` seconds, on the same core (run.py pins the run to
one core).  The kernel is benchmark code that no
change to `ihull` can speed up, so a query's latency scaled by
`NOMINAL_S / (kernel time around the query)` follows the program and not
the host: it is the latency at the speed at which the kernel takes
`NOMINAL_S`.  The raw figures stay in the record.

Three kernels match three kinds of work: `python` (Fraction and big-integer
arithmetic in the interpreter, like `lcf` and `intervals`), `numpy` (a
sparse graph build and a Dijkstra run, like `gridoracle`) and `child` (a
fresh interpreter that imports a fixed set of standard modules, like a CLI
call's start-up).
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: seconds between two kernel samples of the closed loop
CADENCE_S = {"python": 0.2, "numpy": 0.2, "child": 1.0}
#: half-width of the time window whose kernel samples scale one query
WINDOW_S = 1.0
#: fewest kernel samples that scale one query
MIN_SAMPLES = 3
#: kernel samples taken right after set-up
SETUP_SAMPLES = 5

#: kernel time at the reference speed: about the median on a 2-vCPU Xeon VM
#: (Python 3.11, numpy 2.4, scipy 1.17), so scaled times read close to raw ones
NOMINAL_S = {"python": 2.4e-3, "numpy": 3.5e-3, "child": 95e-3}

#: operands of about 60 and about 300 bits: the small ones alone made the
#: kernel more sensitive to the host's speed than the queries, the large ones
#: alone less sensitive
_SMALL = [Fraction((2**61 - 1) * (i + 1) + 17 * i, 2**40 + 3 * i + 1) for i in range(32)]
_LARGE = [Fraction(3**190 + 7 * i, 5**120 + 11 * i) for i in range(32)]


def _python_kernel() -> None:
    for operands, rounds in ((_SMALL, 60), (_LARGE, 30)):
        for i in range(rounds):
            a, b = operands[i % 32], operands[(i * 7 + 3) % 32]
            (a * b + a - b) / (b + 1)


def _numpy_kernel_factory():
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    rng = np.random.default_rng(2002_07536)
    n, degree = 4000, 8
    rows = np.repeat(np.arange(n), degree)
    cols = rng.integers(0, n, n * degree)
    weights = rng.random(n * degree)

    def kernel() -> None:
        dijkstra(csr_matrix((weights, (rows, cols)), shape=(n, n)), indices=0)

    return kernel


_CHILD = [sys.executable, "-c", "import argparse, decimal, email.parser, fractions, json, statistics"]


def _child_kernel() -> None:
    subprocess.run(_CHILD, check=True, capture_output=True)


_FACTORIES = {
    "python": lambda: _python_kernel,
    "numpy": _numpy_kernel_factory,
    "child": lambda: _child_kernel,
}


class Calibrator:
    """Kernel samples (mid time, duration) of one process, and the scale
    factors they give."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        self.cadence = CADENCE_S[kind]
        self.kernel = _FACTORIES[kind]()
        self.kernel()  # warm-up: first-call costs are not host speed
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def factor(self, start: float, end: float) -> float:
        """Scale factor for work done between `start` and `end`: nominal over
        the median kernel time within WINDOW_S of that span (at least the
        MIN_SAMPLES samples nearest to it)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            before = start - self.times[lo - 1] if lo > 0 else float("inf")
            after = self.times[hi] - end if hi < len(self.times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return self.nominal / statistics.median(self.durations[lo:hi])
