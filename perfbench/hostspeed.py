"""Host-speed probe: fixed reference work timed throughout a run.

The measuring host is shared, and its speed for the same single-threaded
work drifts by 10-50% over seconds to minutes. Two small fixed kernels,
built here from a fixed seed and independent of almsvm, track that drift:

* ``numpy``: four CSR-style products (gather, multiply, ``bincount``)
  over 320k nonzeros, the shape and size of the solver's kernels, timed
  after an untimed one so that, as in the solver, they run on warm data;
* ``python``: 2000 short sparse dot products in an interpreter loop, the
  shape of per-sample prediction and text parsing.

The two kinds of work slow down differently: in a 150-second probe on the
measuring host, 5-second medians of ``metrics.accuracy`` and
``data_io.parse_libsvm`` times varied by 0.19-0.20 (standard deviation of
the log) and their ratios to the ``python`` kernel, timed next to each
call, by 0.05-0.06. Over 132 back-to-back solves of one problem, medians
of four solve times varied by 0.071 and their ratio to the ``numpy``
kernel's median by 0.051 (0.060 when the kernel ran on cold data, twice
over 640k nonzeros). Each kernel has a reference time
``REF_S[kind]``, its time in the host's faster periods; a wall time of
that kind of work times ``REF_S[kind]`` over the kernel's time measured
alongside is the work's time at the reference speed. A change in almsvm
moves such a scaled time in full, because the probe never calls almsvm.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel times on the measuring host (Intel Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4) in its faster periods
REF_S = {"numpy": 0.0065, "python": 0.0025}
# between predictions the numpy kernel runs at most this often
NUMPY_INTERVAL_S = 0.25
_M, _N, _NNZ, _PY_ROWS = 8000, 2000, 320_000, 2000
_NUMPY_REPS = 4


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.rows = np.sort(rng.integers(0, _M, _NNZ))
        self.cols = rng.integers(0, _N, _NNZ)
        self.vals = rng.normal(size=_NNZ)
        self.x = rng.normal(size=_N)
        self.samples = [(np.sort(rng.choice(_N, 40, replace=False)), rng.normal(size=40))
                        for _ in range(_PY_ROWS)]
        self.times = {"numpy": [], "python": []}
        self.last_numpy = float("-inf")
        for kind in REF_S:  # untimed warm-up
            self._run(kind)

    def _run(self, kind, reps=_NUMPY_REPS):
        if kind == "numpy":
            for _ in range(reps):
                np.bincount(self.rows, weights=self.vals * self.x[self.cols], minlength=_M)
        else:
            x, s = self.x, 0.0
            for idx, v in self.samples:
                s += float(x[idx] @ v)

    def probe(self, kind):
        """Time one ``kind`` kernel, record it and return the time."""
        if kind == "numpy":
            self._run(kind, reps=1)
        t0 = time.perf_counter()
        self._run(kind)
        seconds = time.perf_counter() - t0
        self.times[kind].append(seconds)
        if kind == "numpy":
            self.last_numpy = t0
        return seconds

    def before_prediction(self):
        """Probe right before one timed prediction: the numpy kernel at most
        every NUMPY_INTERVAL_S, then the python kernel, whose time is
        returned to be paired with the prediction."""
        if time.perf_counter() - self.last_numpy >= NUMPY_INTERVAL_S:
            self.probe("numpy")
        return self.probe("python")

    def factor(self, kind):
        """Multiplier from a wall time of ``kind`` work in this run to its
        time at the reference speed, from the run's median kernel time."""
        return REF_S[kind] / statistics.median(self.times[kind])

    def describe(self):
        return "host probe: " + " ".join(
            f"{k} samples={len(t)} median={statistics.median(t):.6f} s "
            f"factor={self.factor(k):.4f}" for k, t in self.times.items())
