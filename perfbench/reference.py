"""The reference: a fixed mix of numpy and Python work, timed next to every
op, so that an op's time can be read against the host's speed at that moment.

The 2-vCPU host the benchmark was written on is a share of a busy machine.
Its speed drifts by up to about 1.5x over seconds to minutes, and every
kind of work slows with it: over ten runs, the IQR over median of the best
op time was 0.21-0.35 on the train workloads. An op's time over the time of
this reference, taken right before and right after it, cancels most of that
drift. The reference uses no ``dmfnet`` code, so a change to the library
moves only the op's side of the ratio.

It does a little of each kind of work an op does, about 0.05 s in all:
float32 matmuls large and small on the pinned BLAS threads, an im2col-style
3-D convolution, a memory-bound pass over 16 MB, and a pure-Python loop.
One sample is the best of RUNS runs of that mix. A single run is short
enough to catch a burst of other load on the host that a long op averages
out. Over 16 infer ops in one process, op time over a reference twice this
long spread by 0.16 with one run per sample and by 0.06 with the best of
five.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

RUNS = 5


class Reference:
    """Call it for one sample: the best seconds of RUNS runs of the mix."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = (rng.standard_normal((512, 1728), dtype=np.float32),
                    rng.standard_normal((1728, 1024), dtype=np.float32))
        self.small = (rng.standard_normal((16, 216), dtype=np.float32),
                      rng.standard_normal((216, 512), dtype=np.float32))
        self.stream = rng.standard_normal(4_000_000, dtype=np.float32)
        self.volume = rng.standard_normal((8, 24, 24, 24), dtype=np.float32)
        self.filters = [0.05 * rng.standard_normal((8, 8 * 27), dtype=np.float32)
                        for _ in range(3)]

    def __call__(self):
        return min(self._run() for _ in range(RUNS))

    def _run(self):
        t = time.perf_counter()
        np.matmul(*self.big)
        for _ in range(150):
            np.matmul(*self.small)
        for _ in range(2):
            (self.stream * np.float32(1.0001)).sum()
        self._convs()
        counts = {}
        for k in range(30_000):
            counts[k % 97] = counts.get(k % 97, 0) + k
        return time.perf_counter() - t

    def _convs(self):
        """Three 3x3x3 convolutions with batch-norm-like scaling and ReLU."""
        x = self.volume
        c, n = x.shape[0], x.shape[1]
        for w in self.filters:
            padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
            cols = sliding_window_view(padded, (3, 3, 3), axis=(1, 2, 3))
            y = w @ cols.transpose(0, 4, 5, 6, 1, 2, 3).reshape(c * 27, n**3)
            np.maximum(y, 0, out=y)
            y -= y.mean(axis=1, keepdims=True)
            y /= np.sqrt(y.var(axis=1, keepdims=True) + 1e-5)
            x = y.reshape(x.shape)
            for k in range(40):
                x[k % c, k % n].sum()
