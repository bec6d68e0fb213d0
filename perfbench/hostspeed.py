"""Host-speed correction: a clock that runs at the host's nominal speed.

The benchmark's host is a shared virtual machine whose speed drifts with
other tenants' load: a stretch of a second or two at 0.6-0.7 times the usual
speed is common, and whole minutes of it happen.  Identical work then takes
up to 1.5 times as long, and medians of ten runs spread wider than any
bound the benchmark may set.

``HostClock`` cancels that drift.  Every ``GAP_S`` of measured work (checked
at episode boundaries) it times a short fixed kernel that shares no code
with dagmarl, and it counts each stretch of work in nominal seconds: wall
seconds times ``NOMINAL_S`` over the mean kernel time at the stretch's two
ends.  A slow host stretches the kernel as much as the program, so the
ratio stays; a slower program leaves the kernel alone, so it shows.  Kernel
time itself is never counted.

The kernel mixes what dagmarl's hot path does: dense matrix-vector products
over a 1 MB working set, small NumPy element-wise calls and interpreted
Python bookkeeping.  Its inputs are fixed, so its work never changes.
"""

from __future__ import annotations

from time import perf_counter

# Kernel time on the reference host (2-vCPU Xeon VM at 2.0 GHz, OpenBLAS
# 0.3.31 Haswell pinned to one thread) in its usual state, so corrected
# figures read as wall-clock figures there.
NOMINAL_S = 0.002
GAP_S = 0.2
_ITERS = 100  # one kernel run, about 1.7 ms there
_REPEATS = 3  # a sample is the median of these, so one stall cannot skew it


class HostClock:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._mats = [rng.standard_normal((256, 256)) * 0.06
                      for _ in range(2)]
        self._small = rng.standard_normal((64, 64)) * 0.1
        self._kernel()  # the first call runs cold; keep it out
        self.kernel_s = [self._kernel()]
        self.nominal_s = 0.0  # corrected time so far
        self.wall_s = 0.0  # uncorrected time so far, kernels excluded
        self._mark = perf_counter()

    def _kernel(self) -> float:
        """Median time of a few runs of the fixed kernel."""
        np = self._np
        times = []
        for _ in range(_REPEATS):
            start = perf_counter()
            x = np.ones(256)
            y = np.ones(64)
            acc = 0.0
            for i in range(_ITERS):
                x = np.maximum(self._mats[i & 1] @ x, 0.0) + 1e-3
                y = np.tanh(self._small @ y)
                row = {"i": i, "acc": acc}
                acc += sum([row["i"] * 1e-9, float(y[0]) * 1e-9])
            times.append(perf_counter() - start)
        return sorted(times)[_REPEATS // 2]

    def slowness(self) -> float:
        """The latest kernel time over nominal (>1 on a slow host)."""
        return self.kernel_s[-1] / NOMINAL_S

    def tick(self, force: bool = False):
        """Closes the current stretch if it is long enough (or forced)."""
        wall = perf_counter() - self._mark
        if wall < GAP_S and not force:
            return
        kernel = self._kernel()
        before = self.kernel_s[-1]
        self.kernel_s.append(kernel)
        self.wall_s += wall
        self.nominal_s += wall * 2 * NOMINAL_S / (before + kernel)
        self._mark = perf_counter()

    def read(self) -> tuple:
        """(corrected seconds, wall seconds) measured so far."""
        self.tick(force=True)
        return self.nominal_s, self.wall_s
