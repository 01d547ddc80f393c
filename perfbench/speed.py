"""Machine-speed reference for the benchmark's times.

On a shared host one and the same pass can take 1.4 s or 2.4 s, depending
on what the neighbours do, and a slow spell lasts from seconds to minutes.
So the benchmark times, again and again, a fixed kernel that uses nothing
of egbp: a SuperLU factorization and solve of a 2-D Laplacian, a
gather/scatter over random indices and a plain Python loop, the three
kinds of work a pass does.  The kernel runs before and after the measured
passes and, in between, after a solve or a pass once ``EVERY_S`` of
program time have gone by since its last run.  Program time between two
kernel runs, divided by their mean time and multiplied by ``REFERENCE_S``,
is its time at reference speed.  A change to egbp moves that figure; a
slow spell of the host, which slows the kernel too, mostly does not.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Typical kernel time on the reference machine, a 2-vCPU Intel Xeon VM with
# one BLAS thread.  Only a scale: it turns the ratio back into seconds.
REFERENCE_S = 0.23
EVERY_S = 1.0  # program time between kernel runs, at least


class Timeline:
    """Kernel runs in time order, and the host's pace between them."""

    def __init__(self):
        # A 180 x 180 grid: its LU factors, about 35 MB, far exceed a core's private caches.
        n = 180
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self.a = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
        self.b = np.ones(n * n)
        self.idx = np.random.default_rng(0).integers(0, n * n, size=(300_000, 3))
        self.runs = []  # (start, end) of each kernel run

    def kernel(self):
        x = spla.splu(self.a).solve(self.b)
        out = np.zeros_like(x)
        np.add.at(out, self.idx[:, 0], x[self.idx].sum(axis=1))
        acc = 0.0
        for i in range(60_000):
            acc += x[i % x.size]
        if not np.isfinite(acc + out.sum()):
            raise RuntimeError("speed reference kernel gave a non-finite result")

    def sample(self):
        """Run the kernel once and note when."""
        start = time.perf_counter()
        self.kernel()
        self.runs.append((start, time.perf_counter()))

    def tick(self):
        """Run the kernel if ``EVERY_S`` have passed since its last run."""
        if time.perf_counter() - self.runs[-1][1] >= EVERY_S:
            self.sample()

    def durations(self):
        return [end - start for start, end in self.runs]

    def seconds(self, intervals, scaled=True):
        """Time inside ``intervals`` outside kernel runs, at reference speed if ``scaled``.

        The intervals must lie between the first and the last kernel run.
        """
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.runs, self.runs[1:]):
            slowdown = ((e0 - s0) + (e1 - s1)) / 2 / REFERENCE_S if scaled else 1.0
            for a, b in intervals:
                overlap = min(b, s1) - max(a, e0)
                if overlap > 0:
                    total += overlap / slowdown
        return total
