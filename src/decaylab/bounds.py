"""Lower-bound machinery: steady states, separated subsolutions, decay envelopes.

The sharp lower bounds for u_t = u^p Lap(u) come from comparison with
separated subsolutions y(tau) * w_R(x) in the compensated frame
z(x, tau) = (t+1)^{1/p} u(x, t), tau = ln(t+1), where w_R solves the
degenerate Dirichlet steady problem

    -Lap(w) = (1/p) w^{1-p}  in B_R,   w = 0 on the boundary,

and y solves the logistic-type law y' = (y - y^{p+1})/p.  Envelopes
Lambda with Lambda(s)/ln(s) -> infinity encode pointwise lower bounds
u0 >= exp(-Lambda(|x|)) and drive the lower decay curves through their
inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import InputError, NumericError
from .evolution import EvolutionRun
from .radial import RadialProfile

__all__ = [
    "SteadyState",
    "solve_steady_state",
    "steady_state_residual",
    "evaluate_steady_state",
    "logistic_exact",
    "logistic_residual",
    "DecayEnvelope",
    "CompensatedFrame",
    "compensated_frame",
    "lower_bound_curve",
    "SubsolutionSpec",
    "build_subsolution",
    "SubsolutionReport",
    "subsolution_check",
]


@dataclass(frozen=True)
class SteadyState:
    """Positive radial solution w_1 of the unit-ball steady problem.

    ``derivative`` carries w' as integrated, which the flux-form residual
    oracle reuses; ``center_value`` is w_1(0).
    """

    p: float
    n: int
    r_nodes: np.ndarray
    w: np.ndarray
    derivative: np.ndarray
    center_value: float
    boundary_value: float
    sign_changes: int


def _integrate_shot(a: float, p: float, n: int, m: int, record: bool = False):
    """Classical fourth-order one-step integration of the radial steady ODE.

    State (w, v = w'); the first-order term (n-1)/r * v uses the symmetric
    limit value at r = 0.  Returns w(1) when w stays positive, otherwise the
    (negative) deficit -(1 - r_death) so root finders see a sign change.
    """
    h = 1.0 / (m - 1)
    inv_p = 1.0 / p
    one_m_p = 1.0 - p

    def rhs(r, w, v):
        if w <= 0.0:
            return None
        src = -inv_p * w**one_m_p
        if r == 0.0:
            return v, src / n
        return v, -(n - 1) / r * v + src

    w, v = a, 0.0
    r = 0.0
    ws = [w] if record else None
    vs = [v] if record else None
    for _ in range(m - 1):
        k1 = rhs(r, w, v)
        if k1 is None:
            break
        k2 = rhs(r + 0.5 * h, w + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        if k2 is None:
            break
        k3 = rhs(r + 0.5 * h, w + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        if k3 is None:
            break
        k4 = rhs(r + h, w + h * k3[0], v + h * k3[1])
        if k4 is None:
            break
        w += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        r += h
        if w <= 0.0 and r < 1.0 - 0.5 * h:
            break
        if record:
            ws.append(w)
            vs.append(v)
    else:
        if record:
            return w, np.array(ws), np.array(vs)
        return w
    # died before reaching r = 1: report the deficit as a negative residual
    if record:
        raise NumericError("steady-state trajectory died before the boundary")
    return -(1.0 - r)


def solve_steady_state(p: float, n: int, grid_m: int = 4001,
                       bracket: tuple = (1e-4, 50.0),
                       boundary_tol: float = 1e-10) -> SteadyState:
    """Shoot on the center value until the profile vanishes at r = 1.

    Bisection brackets the root of a -> w(1; a); secant steps accelerate the
    final digits (bisection fallback keeps the bracket valid).  The shot count
    tracks sign changes seen in the initial bracket scan, reported so callers
    can judge uniqueness of the crossing.
    """
    if p < 1 or n < 1:
        raise InputError("need p >= 1 and n >= 1")
    lo, hi = bracket
    f_lo = _integrate_shot(lo, p, n, grid_m)
    f_hi = _integrate_shot(hi, p, n, grid_m)
    if not (f_lo < 0.0 < f_hi):
        raise InputError(
            f"shooting bracket {bracket} does not straddle the boundary root "
            f"(f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}); widen the bracket")
    # coarse scan to count crossings inside the initial bracket
    scan = np.geomspace(lo, hi, 17)
    scan_vals = [_integrate_shot(a, p, n, 257) for a in scan]
    sign_changes = sum(1 for x, y in zip(scan_vals, scan_vals[1:])
                       if (x < 0) != (y < 0))

    a0, f0 = lo, f_lo
    a1, f1 = hi, f_hi
    a_best = None
    for _ in range(300):
        if abs(f1) <= boundary_tol:
            # take the surviving side: f >= 0 means the trajectory reached r = 1
            a_best = a1 if f1 >= 0.0 else hi
            break
        # secant proposal, clipped into the bracket; bisection fallback
        if f1 != f0:
            a2 = a1 - f1 * (a1 - a0) / (f1 - f0)
        else:
            a2 = 0.5 * (lo + hi)
        if not (lo < a2 < hi):
            a2 = 0.5 * (lo + hi)
        f2 = _integrate_shot(a2, p, n, grid_m)
        if f2 < 0.0:
            lo = a2
        else:
            hi = a2
        a0, f0, a1, f1 = a1, f1, a2, f2
        if hi - lo <= 1e-15 * hi:
            # degenerate touchdown (p > 1): the computed boundary value cannot
            # be driven below an h-scale floor; the collapsed bracket's
            # surviving endpoint is the answer
            a_best = hi
            break
    if a_best is None:
        raise NumericError("steady-state shooting did not converge")
    wb, ws, vs = _integrate_shot(a_best, p, n, grid_m, record=True)
    r_nodes = np.linspace(0.0, 1.0, grid_m)
    ws[-1] = max(ws[-1], 0.0)
    return SteadyState(p=float(p), n=int(n), r_nodes=r_nodes, w=ws, derivative=vs,
                       center_value=float(ws[0]), boundary_value=float(wb),
                       sign_changes=sign_changes)


def steady_state_residual(state: SteadyState, r_cap: float = 0.95) -> float:
    """Max flux-form residual | r^{n-1} w' + (1/p) int_0^r s^{n-1} w^{1-p} ds |.

    Evaluated on nodes with r <= r_cap: for p > 1 the source w^{1-p} blows up
    at the contact point r = 1, so the residual is meaningful only away from
    the boundary layer.  Cumulative Simpson keeps the quadrature error at the
    level of the integrator's own global error.
    """
    r, w, v = state.r_nodes, state.w, state.derivative
    mask = r <= r_cap
    src = r[mask] ** (state.n - 1) * w[mask] ** (1.0 - state.p) / state.p
    integral = cumulative_simpson(src, x=r[mask], initial=0.0)
    flux = r[mask] ** (state.n - 1) * v[mask]
    return float(np.max(np.abs(flux + integral)))


def evaluate_steady_state(state: SteadyState, R: float, r) -> np.ndarray:
    """w_R(r) by linear interpolation of w_1 at r/R; zero outside B_R."""
    rho = np.asarray(r, dtype=float) / R
    vals = np.interp(rho, state.r_nodes, state.w, right=0.0)
    return R ** (2.0 / state.p) * vals


def logistic_exact(tau, delta: float, p: float):
    """y(tau) = (delta^{-p} e^{-tau} + 1 - e^{-tau})^{-1/p}; y(0) = delta, y -> 1."""
    if delta <= 0:
        raise InputError("delta must be positive")
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0):
        raise InputError("tau must be nonnegative")
    decay = np.exp(-tau_arr)
    out = (delta ** (-p) * decay + 1.0 - decay) ** (-1.0 / p)
    return float(out) if np.isscalar(tau) or tau_arr.ndim == 0 else out


def logistic_residual(tau_grid, delta: float, p: float) -> float:
    """Max scaled residual |y'_fd - (y - y^{p+1})/p| / (1 + |rhs|) on a grid.

    The finite difference is the second-order three-point formula on a
    possibly nonuniform grid; scaling by the local rate keeps the oracle
    meaningful through the stiff initial transient of large delta.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.size < 3 or np.any(np.diff(tau) <= 0):
        raise InputError("tau_grid must be increasing with at least 3 points")
    y = logistic_exact(tau, delta, p)
    h1 = tau[1:-1] - tau[:-2]
    h2 = tau[2:] - tau[1:-1]
    fd = (-h2 / (h1 * (h1 + h2)) * y[:-2]
          + (h2 - h1) / (h1 * h2) * y[1:-1]
          + h1 / (h2 * (h1 + h2)) * y[2:])
    rhs = (y[1:-1] - y[1:-1] ** (p + 1.0)) / p
    return float(np.max(np.abs(fd - rhs) / (1.0 + np.abs(rhs))))


@dataclass(frozen=True)
class DecayEnvelope:
    """Strictly increasing envelope Lambda with u0 >= exp(-Lambda(|x|)).

    Kinds: ``StretchedExp`` (Lambda = alpha s^beta - ln c0) and ``DoubleExp``
    (Lambda = alpha exp(beta s^gamma) - ln c0).
    """

    kind: str
    c0: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("StretchedExp", "DoubleExp"):
            raise InputError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "DoubleExp" and self.gamma is None:
            raise InputError("DoubleExp envelope needs gamma")
        if not (self.c0 > 0 and self.alpha > 0 and self.beta > 0):
            raise InputError("envelope constants must be positive")

    def lam(self, s):
        s_arr = np.asarray(s, dtype=float)
        if self.kind == "StretchedExp":
            out = self.alpha * s_arr ** self.beta - math.log(self.c0)
        else:
            out = self.alpha * np.exp(self.beta * s_arr ** self.gamma) - math.log(self.c0)
        return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out

    def lam_inv(self, sigma):
        sig = np.asarray(sigma, dtype=float)
        lo = self.lam(0.0)
        if np.any(sig < lo - 1e-12):
            raise InputError(f"inverse argument below Lambda(0) = {lo}")
        if self.kind == "StretchedExp":
            out = ((np.maximum(sig + math.log(self.c0), 0.0)) / self.alpha) ** (1.0 / self.beta)
        else:
            arg = np.maximum((sig + math.log(self.c0)) / self.alpha, 1.0)
            out = (np.log(arg) / self.beta) ** (1.0 / self.gamma)
        return float(out) if np.isscalar(sigma) or sig.ndim == 0 else out

    def floor(self, r):
        """Pointwise lower bound exp(-Lambda(r)) for the initial datum.

        Evaluates c0 * exp(-alpha r^beta) or c0 * exp(-alpha exp(beta r^gamma))
        in that operation order rather than exp(-Lambda(r)): the two differ in
        the last bits when c0 != 1, and this function is also the CLI's initial
        datum and the GN family template.
        """
        r = np.asarray(r, dtype=float)
        if self.kind == "StretchedExp":
            return self.c0 * np.exp(-self.alpha * r ** self.beta)
        return self.c0 * np.exp(-self.alpha * np.exp(self.beta * r ** self.gamma))


@dataclass(frozen=True)
class CompensatedFrame:
    """A run transported to z = (t+1)^{1/p} u on logarithmic time tau = ln(t+1)."""

    taus: np.ndarray
    profiles: list
    sup_series: np.ndarray


def compensated_frame(run: EvolutionRun, p: Optional[float] = None) -> CompensatedFrame:
    """Rescale every snapshot by (t+1)^{1/p}; the round trip is exact."""
    p = run.spec.p if p is None else p
    taus = np.log1p(run.times)
    factors = (run.times + 1.0) ** (1.0 / p)
    profiles = [RadialProfile(prof.grid, f * prof.values)
                for f, prof in zip(factors, run.profiles)]
    sup = np.array([prof.values.max() for prof in profiles])
    return CompensatedFrame(taus, profiles, sup)


def lower_bound_curve(env: DecayEnvelope, p: float, c1: float, C: float,
                      t_grid) -> np.ndarray:
    """C * t^{-1/p} * (Lambda^{-1}(c1 ln t))^{2/p} on the given times.

    Requires p*c1 < 1 and c1*ln(t) inside the domain of the inverse envelope.
    """
    if p * c1 >= 1.0:
        raise InputError(f"need p*c1 < 1, got p*c1 = {p * c1}")
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 1.0):
        raise InputError("lower-bound curve needs t > 1")
    radii = env.lam_inv(c1 * np.log(t))
    return C * t ** (-1.0 / p) * radii ** (2.0 / p)


@dataclass(frozen=True)
class SubsolutionSpec:
    """Separated subsolution data pinned at an evaluation horizon tau0."""

    envelope: DecayEnvelope
    p: float
    c1: float
    tau0: float
    R_tau0: float
    delta: float
    c3: float


def build_subsolution(env: DecayEnvelope, p: float, steady: SteadyState,
                      tau0: float, c1: Optional[float] = None) -> SubsolutionSpec:
    """Fix c1 (default 1/(2p)), the ball radius Lambda^{-1}(c1 tau0) and the
    initial level delta = R^{-2/p} exp(-c1 tau0) / sup(w_1)."""
    c1 = 1.0 / (2.0 * p) if c1 is None else c1
    if p * c1 >= 1.0:
        raise InputError(f"need p*c1 < 1, got p*c1 = {p * c1}")
    if tau0 <= 0:
        raise InputError("tau0 must be positive")
    R_tau0 = float(env.lam_inv(c1 * tau0))
    if R_tau0 <= 0:
        raise InputError("envelope inverse returned a nonpositive radius")
    c3 = 1.0 / float(steady.w.max())
    # Lambda(R(tau0)) = c1*tau0 exactly by construction of R(tau0)
    delta = c3 * R_tau0 ** (-2.0 / p) * math.exp(-c1 * tau0)
    return SubsolutionSpec(env, float(p), float(c1), float(tau0), R_tau0,
                           float(delta), c3)


@dataclass(frozen=True)
class SubsolutionReport:
    min_margin: float
    initial_margin: float
    center_margin_at_tau0: float
    snapshots_checked: int
    resolution_warning: bool


def subsolution_check(run: EvolutionRun, spec: SubsolutionSpec,
                      steady: SteadyState) -> SubsolutionReport:
    """Verify z >= y(tau) * w_{R(tau0)} on B_{R(tau0)} for all tau <= tau0.

    The run's initial profile must dominate the envelope floor on the ball
    (checked); failure of the initial ordering z(.,0) >= zbar(.,0) signals a
    miscomputed delta and raises.  Returns the worst margin over checked
    snapshots together with the center margin at the horizon.
    """
    grid = run.grid
    mask = grid.nodes <= spec.R_tau0
    if not np.any(mask):
        raise InputError("run grid does not resolve the subsolution ball")
    r = grid.nodes[mask]

    u0_vals = run.profiles[0].values[mask]
    floor = spec.envelope.floor(r)
    if np.any(u0_vals < floor * (1.0 - 1e-12)):
        raise InputError("initial datum drops below the envelope floor on the ball")

    w_vals = evaluate_steady_state(steady, spec.R_tau0, r)
    frame = compensated_frame(run, spec.p)

    zbar0 = spec.delta * w_vals
    initial_margin = float((frame.profiles[0].values[mask] - zbar0).min())
    if initial_margin < 0.0:
        raise InputError(
            f"initial ordering violated (margin {initial_margin:.3e}): delta miscomputed")

    min_margin = math.inf
    center_margin = math.nan
    checked = 0
    for k, tau in enumerate(frame.taus):
        if tau > spec.tau0 * (1.0 + 1e-12):
            continue
        z_vals = frame.profiles[k].values[mask]
        zbar = logistic_exact(tau, spec.delta, spec.p) * w_vals
        margin = float((z_vals - zbar).min())
        min_margin = min(min_margin, margin)
        center_margin = float(z_vals[0] - zbar[0])
        checked += 1
    if checked == 0:
        raise InputError("no snapshots at or before tau0")
    return SubsolutionReport(min_margin, initial_margin, center_margin, checked,
                             bool(spec.R_tau0 > grid.R / 2.0))
