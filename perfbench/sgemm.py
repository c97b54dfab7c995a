"""The sgemm ceiling: best GMAC/s of a float32 2048 x 2048 x 2048 matmul.

Run as a script it prints the figure for the BLAS thread count its
environment sets, so a parent process can measure at another count.
"""

from __future__ import annotations

import time

import numpy as np

SIZE = 2048
REPEATS = 5


def sgemm_gmacs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((SIZE, SIZE), dtype=np.float32)
    b = rng.standard_normal((SIZE, SIZE), dtype=np.float32)
    out = np.empty((SIZE, SIZE), dtype=np.float32)
    np.matmul(a, b, out=out)  # wakes the BLAS threads and faults in `out`
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t)
    return SIZE**3 / best / 1e9


if __name__ == "__main__":
    print(repr(sgemm_gmacs()))
