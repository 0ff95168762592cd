"""Host-speed calibration for the benchmark's timings (README.md, "Steadiness").

Times are reported at the host speed where one call of the calibration
kernel takes REFERENCE_S seconds.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-3


class Calibration:
    """Fixed work, owned by the benchmark, that samples the host's speed.

    The host alternates between fast and slow phases that last from tens of
    milliseconds to tens of seconds, and moves the mean time of anything
    run on it.  The kernel mixes what the library's operations do: an
    interpreter loop, small-array NumPy calls, an FFT, a sort, and a
    scatter-add.  Interleaved with the operations, it sees the same phases,
    so the ratio of the two mean times does not drift with the host.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.grid = rng.standard_normal((32, 32, 32))
        self.values = rng.standard_normal(100_000)
        self.bins = rng.integers(0, 5000, 100_000)
        self.small = rng.standard_normal((216, 3))
        self.times = []

    def kernel(self):
        total = 0
        for i in range(3000):
            total += i & 7
        for _ in range(30):
            np.einsum("ij,ij->i", self.small, self.small).sum()
        np.fft.fftn(self.grid)
        np.sort(self.values)
        np.bincount(self.bins, weights=self.values, minlength=5000)
        return total

    def run(self, seconds):
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            self.kernel()
            self.times.append(time.perf_counter() - start)
            if time.perf_counter() >= deadline:
                return

    def scale(self):
        """Factor from this run's host speed to the reference host speed."""
        return REFERENCE_S / statistics.fmean(self.times)
