"""Machine-speed monitor that scales the end-to-end time metrics.

On a small shared VM the machine flips between a fast and a slow state every
few tenths of a second, and spends minutes at a time mostly in one or the
other: the same fixed Python loop, and calibrefine with it, ran up to 2x
slower from one moment to the next. No median inside a run removes that, and
a probe taken now and then between operations samples other moments than
the operations themselves.

So a timed run starts a ``SIGALRM`` interval timer. Every ``PERIOD_S`` its
handler runs two small fixed reference kernels, each twice, and records the
time of each second (warm) run. The handler runs in the main thread between
bytecodes of whatever is being measured: no thread or process is started,
and the kernels sample the same moments as the operations. Every timed
operation is then reported as

    seconds x REFERENCE_S / mean kernel time within WINDOW_S of the operation

that is, in seconds of a machine on which the kernel takes ``REFERENCE_S``.
The handler's own time is left out of every measured duration (``clock``).

The kernels belong to the benchmark, not to calibrefine, so a change to the
program cannot move them. ``python_kernel`` mimics the per-point code:
frozen dataclasses with validation, small numpy arrays built from lists, a
greedy sweep over sorted candidate pairs, and dict bucketing.
``numpy_kernel`` mimics the checkpoint's geometry: many calls on tiny numpy
arrays (a projection, residual norms, a DLT SVD, a damped normal-equation
solve). The two slow down differently when the machine is loaded, so each
metric is scaled by the kernel that matches its code: the checkpoint stall
by ``numpy``, everything else by ``mixed``, the sum of both.
"""
from __future__ import annotations

import gc
import math
import signal
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Warm kernel times that define the scale: about their times in the fast
#: state of a 2-vCPU x86_64 VM with CPython 3.11, so scaled times read close
#: to the wall times of an uncontended run there.
REFERENCE_S = {"python": 0.0005, "numpy": 0.0004}
REFERENCE_S["mixed"] = REFERENCE_S["python"] + REFERENCE_S["numpy"]
#: Sampling period of the monitor and the half-width of the window of samples
#: that scales one operation.
PERIOD_S = 0.05
WINDOW_S = 0.1


@dataclass(frozen=True)
class _Point:
    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("non-finite point")


def python_kernel() -> float:
    """Fixed work; returns a checksum so nothing is optimized away."""
    total = 0.0
    for frame in range(4):
        pts = [
            _Point((i * 37 + frame * 11) % 1920 + 0.5, (i * 91 + frame * 7) % 1080 + 0.25)
            for i in range(24)
        ]
        arr = np.array([[p.u, p.v] for p in pts])
        diff = arr[:, None, :] - arr[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        li, ci = np.nonzero(dist <= 300.0)
        used_l, used_c = set(), set()
        for cost, i, j in sorted(zip(dist[li, ci].tolist(), li.tolist(), ci.tolist())):
            if i in used_l or j in used_c:
                continue
            used_l.add(i)
            used_c.add(j)
            total += cost
        blocks: dict[tuple[int, int], list[_Point]] = {}
        for p in pts:
            blocks.setdefault((int(p.u // 384), int(p.v // 216)), []).append(p)
        total += len(blocks)
    return total


_RNG = np.random.default_rng(0)
_XY = _RNG.uniform(0.0, 100.0, (40, 2))
_UV = _RNG.uniform(0.0, 1000.0, (40, 2))
_J = _RNG.standard_normal((16, 8))
_H = np.array([[10.0, 0.1, 5.0], [0.2, 9.0, 3.0], [1e-4, 2e-4, 1.0]])


def numpy_kernel() -> float:
    """Fixed work; returns a checksum so nothing is optimized away."""
    total = 0.0
    for r in range(4):
        proj = np.column_stack([_XY, np.ones(len(_XY))]) @ (_H + r * 1e-6).T
        res = (proj[:, :2] / proj[:, 2:3] - _UV).ravel()
        total += float(np.linalg.norm(res)) + float(np.mean(np.abs(res)))
        a = np.zeros((8, 9))
        for k in range(4):
            (x, y), (u, v) = _XY[k], _UV[k]
            a[2 * k] = [-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u]
            a[2 * k + 1] = [0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v]
        total += float(np.linalg.svd(a)[2][-1, -1])
        total += float(np.linalg.solve(_J.T @ _J + np.eye(8), _J.T @ res[:16])[0])
    return total


class Monitor:
    """Samples the reference kernels from a ``SIGALRM`` timer while running.

    ``clock()`` is ``perf_counter()`` minus the time spent in the handler, so
    differences of it time the program alone. ``scale`` turns durations
    measured over raw ``perf_counter`` intervals into scaled seconds.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: dict[str, list[float]] = {"python": [], "numpy": []}
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            python_kernel()
            t1 = perf_counter()
            python_kernel()
            t2 = perf_counter()
            numpy_kernel()
            t3 = perf_counter()
            numpy_kernel()
            t4 = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.at.append(t2)
        self.took["python"].append(t2 - t1)
        self.took["numpy"].append(t4 - t3)
        self.busy += perf_counter() - t0

    def clock(self) -> float:
        return perf_counter() - self.busy

    def __enter__(self) -> "Monitor":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_times(self, kernel: str) -> np.ndarray:
        """Sampled times of kernel ``python``, ``numpy`` or ``mixed``."""
        if kernel == "mixed":
            return np.add(self.took["python"], self.took["numpy"])
        return np.asarray(self.took[kernel])

    def kernel_mean(self, start: np.ndarray, end: np.ndarray, kernel: str) -> np.ndarray:
        """Mean kernel time over the samples within ``WINDOW_S`` of each
        interval; the nearest sample when none is that close."""
        at = np.asarray(self.at)
        if at.size == 0:
            raise RuntimeError("the speed monitor took no sample")
        cum = np.concatenate(([0.0], np.cumsum(self.kernel_times(kernel))))
        lo = np.searchsorted(at, np.asarray(start) - WINDOW_S, side="left")
        hi = np.searchsorted(at, np.asarray(end) + WINDOW_S, side="right")
        empty = hi <= lo
        lo = np.where(empty, np.clip(lo - 1, 0, at.size - 1), lo)
        hi = np.where(empty, lo + 1, hi)
        return (cum[hi] - cum[lo]) / (hi - lo)

    def scale(self, timings: list[tuple[float, float, float]], kernel: str = "mixed") -> np.ndarray:
        """Scaled seconds of (raw start, raw end, seconds) timings."""
        t = np.asarray(timings, dtype=float).reshape(-1, 3)
        return t[:, 2] * REFERENCE_S[kernel] / self.kernel_mean(t[:, 0], t[:, 1], kernel)
