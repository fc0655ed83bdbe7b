"""Fixed calibration kernel that measures how fast this vCPU runs right now.

The kernel never imports bellkit and must stay byte-identical across
changes to the program: every timing the benchmark reports is scaled by
``CAL_NOMINAL_MS / kernel_ms`` with the kernel run right before the timed
work, so a change here silently rescales every recorded number.

It mixes the two kinds of work bellkit's hot paths do: interpreter
arithmetic and dict updates, and many small dense numpy calls (column
slices, copies and axpy-style updates on an 8x8 complex matrix).
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel time in ms at reference speed; timings are reported at this speed.
CAL_NOMINAL_MS = 5.0

_N = 8
_SWEEPS = 15


def kernel() -> float:
    """Run the fixed work once and return a value derived from all of it."""
    idx = np.arange(_N * _N, dtype=float).reshape(_N, _N)
    h = (idx % 7 - 3.0) + 1j * (idx % 5 - 2.0)
    h = h + h.conj().T
    v = np.eye(_N, dtype=complex)
    counts: dict[int, int] = {}
    acc = 0.0
    for sweep in range(_SWEEPS):
        for p in range(_N - 1):
            for q in range(p + 1, _N):
                x = (31 * p + 17 * q + sweep) % 97
                acc += math.sqrt(1.0 + x * x) / (1.0 + x)
                counts[x] = counts.get(x, 0) + 1
                hp = h[:, p].copy()
                hq = h[:, q].copy()
                h[:, p] = 0.8 * hp - 0.6 * hq
                h[:, q] = 0.6 * hp + 0.8 * hq
                vp = v[:, p].copy()
                v[:, p] = 0.8 * vp - 0.6 * v[:, q]
                v[:, q] = 0.6 * vp + 0.8 * v[:, q]
        acc += float(np.sum(np.abs(h) ** 2))
    return acc + len(counts) + float(np.abs(v).sum())


def timed_ms() -> float:
    """Wall time of one kernel run, in ms."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3
