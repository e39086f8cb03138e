"""Machine-speed calibration for the end-to-end timings.

On a shared host each CPU runs faster or slower in phases of a second to
minutes: the same interpreted code swings by 35% to 90% with no change in
steal time, and the two CPUs of a 2-core sandbox swing independently.  Raw
wall times of the same code then spread wider than any useful bound.

So the benchmark measures the speed of the CPU it runs on *while* it times an
interval.  ``Speedometer.measure`` runs a short fixed burst of work (a
*probe*) at the start and at the end of the interval, and every ``PERIOD_S``
seconds inside it from a SIGALRM handler (Python runs signal handlers in the
main thread between bytecodes, so the probe runs on the same CPU as the
program, in the middle of it).  The time the probes inside the interval take
is subtracted from its wall time, and the rest is rescaled:

    scaled = (wall - probe time) * reference_s / mean(probe durations)

that is, the wall time the interval would have taken at the speed at which
one probe burst takes ``reference_s`` (about its median on a 2-core Intel
Xeon sandbox).

Different code slows by different amounts (interpreted scalar arithmetic far
more than numpy calls on arrays), so each workload has its own probe: a
frozen copy, owned by the benchmark, of the kernel that dominates its pass.
``step`` is the semi-implicit time step of ``decaylab.evolution`` (numpy
arithmetic and the LAPACK tridiagonal solve); ``shot`` is the scalar RK4
shooting of ``decaylab.bounds``.  Measured over minutes of drifting speed,
log wall time of each workload's configs against log probe time has slope
0.9 to 1.1 and correlation 0.95 to 0.99 with its own probe (against 0.5 to
1.9 with the other probes).  The probes never change with decaylab, so a
change to decaylab moves the scaled time as it moves the wall time at any
fixed speed.

The sampling assumes the timed code runs in the main thread only (decaylab's
default ``jobs=1``); the details line records the process's thread count.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
WARMUP_BURSTS = 5


def _step_probe(m: int, p: float, rounds: int):
    """``rounds`` semi-implicit steps of u_t = u^p (u_rr + u_r / r) on m
    nodes, from the same state on every burst."""
    # imported here so that the caller sets the BLAS thread count first
    import numpy as np
    from scipy.linalg.lapack import dgtsv

    h = 1.0 / (m - 1)
    r = np.linspace(0.0, 1.0, m)
    u0 = 1.0 + 0.5 * np.cos(np.pi * r)
    inv_h2 = 1.0 / (h * h)
    lower = inv_h2 - 0.5 / (h * r[1:-1])
    upper = inv_h2 + 0.5 / (h * r[1:-1])
    dl, d, du, b = np.empty(m - 1), np.empty(m), np.empty(m - 1), np.empty(m)

    def burst():
        u = u0
        for _ in range(rounds):
            c = 1e-6 * u**p
            ci = c[1:-1]
            d[0] = 1.0 + 4.0 * c[0] * inv_h2
            du[0] = -4.0 * c[0] * inv_h2
            d[1:-1] = 1.0 + 2.0 * ci * inv_h2
            du[1:] = -ci * upper
            dl[0:-1] = -ci * lower
            d[-1] = 1.0
            dl[-1] = 0.0
            b[:] = u
            b[-1] = 0.5
            _, _, _, out, _ = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                                    overwrite_du=1, overwrite_b=1)
            if out.min() < 0.0:
                np.maximum(out, 0.0, out=out)
            u = out.copy() if out is b else out
        return float(u[m // 2])

    return burst


def _shot_probe(p: float, n: int, steps: int):
    """One scalar RK4 shot of w'' + (n-1)/r w' = -w^(1-p)/p over ``steps``
    steps from w(0) = 1."""
    h = 1.0 / steps
    inv_p = 1.0 / p
    one_m_p = 1.0 - p

    def rhs(r, w, v):
        if w <= 0.0:
            return None
        src = -inv_p * w**one_m_p
        if r == 0.0:
            return v, src / n
        return v, -(n - 1) / r * v + src

    def burst():
        w, v, r = 1.0, 0.0, 0.0
        for _ in range(steps):
            k1 = rhs(r, w, v)
            k2 = rhs(r + 0.5 * h, w + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
            k3 = rhs(r + 0.5 * h, w + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
            k4 = rhs(r + h, w + h * k3[0], v + h * k3[1])
            w += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            v += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            r += h
        return w

    return burst


# name: (factory of the burst, seconds one burst takes at the reference speed)
PROBES = {
    "step_p1": (lambda: _step_probe(1001, 1.0, 40), 0.0020),
    "step_p4": (lambda: _step_probe(1001, 4.0, 40), 0.0022),
    "shot_p2": (lambda: _shot_probe(2.0, 1, 500), 0.0011),
}


class Speedometer:
    """Times intervals and rescales them to the reference speed of a probe."""

    def __init__(self, probe: str):
        factory, self.reference_s = PROBES[probe]
        self._work = factory()
        self._durations: list[float] = []
        self._busy = 0.0
        for _ in range(WARMUP_BURSTS):  # the first calls pay for caches
            self._burst()

    def _burst(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        value = self._work()
        t1 = time.perf_counter()
        if value != value:  # never true; keeps the result in use
            raise RuntimeError("speed probe produced NaN")
        self._durations.append(t1 - t0)
        self._busy += time.perf_counter() - t0

    def measure(self, fn):
        """Call ``fn()``; return (its result, wall seconds without the probe
        bursts, the same scaled to the reference speed, number of bursts)."""
        self._durations = []
        self._burst()
        self._busy = 0.0
        previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0 - self._busy
        self._burst()
        mean = sum(self._durations) / len(self._durations)
        return result, wall, wall * self.reference_s / mean, len(self._durations)
