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

from .errors import InputError, NumericError
from .evolution import EvolutionRun

__all__ = [
    "SteadyState",
    "check_steady_problem",
    "solve_steady_state",
    "steady_state_residual",
    "evaluate_steady_state",
    "logistic_exact",
    "DecayEnvelope",
    "lower_c1",
    "lower_bound_curve",
    "check_envelope_floor",
    "SubsolutionSpec",
    "subsolution_radius",
    "build_subsolution",
    "SubsolutionReport",
    "subsolution_check",
]

BOUNDARY_TOL = 1e-10    # |w(1)| at which shooting stops
SHOT_CAP = 300          # root-finding shots before shooting gives up
SHOT_BRACKET = (1e-4, 50.0)   # center values w(0) that the root must lie between
RESIDUAL_R_CAP = 0.95   # the flux residual skips the boundary layer of p > 1
RESIDUAL_TOL = 1e-8     # the flux residual at or below which a steady state passes
STEADY_M = 4001         # nodes on [0, 1] of every steady state the CLI solves
FLOOR_RTOL = 1e-12      # relative shortfall of a datum below an envelope floor that passes


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


def _integrate_shot(a: float, p: float, n: int, m: int, record: bool = False):
    """Classical fourth-order one-step integration of the radial steady ODE.

    State (w, v = w'); the first-order term (n-1)/r * v uses the symmetric
    limit value at r = 0.  Returns (w(1), None) when w stays positive, and a
    value below 0 otherwise, so root finders see a sign change: for a death
    in the last step, (w + h*v3, None) with the stage value <= 0 that ended
    it (-5e-324 for a zero), which is linear in w(0) up to where the shots
    start to survive; for a death at the node r or in the step from it, one
    whose w^(1-p) overflows (only as w nears 0) included, (-(1 - r), r).
    With ``record`` a survivor returns w(1) and its w and w' at every node,
    and a death raises NumericError.

    The four stages are written out in local floats, since this loop is most
    of the time of a steady-state solve.  Stage i is k_i = (v_i, f_i) with
    f(r, w, v) = -(n-1)/r * v - w^(1-p)/p, and every float operation keeps
    the operands and order of the textbook form k_i = f(r_i, y + c h k_{i-1}):
    manifests and tests pin the results bit for bit.  In n = 1 the
    first-order term is a signed zero that leaves f unchanged (and the r = 0
    limit divides by 1), so that loop drops it; for n > 1 each factor
    -(n-1)/r is computed once per node: stages 2 and 3 share r + h/2, and
    stage 4's factor at r + h is the next step's stage 1.
    """
    h = 1.0 / (m - 1)
    hh = 0.5 * h
    h6 = h / 6.0
    neg_inv_p = -(1.0 / p)
    one_m_p = 1.0 - p
    neg_nm1 = -(n - 1)

    w, v = a, 0.0
    r = 0.0
    ws = [w] if record else None
    vs = [v] if record else None
    try:
        if n == 1:
            for _ in range(m - 1):
                if w <= 0.0:
                    break
                f1 = neg_inv_p * w**one_m_p
                w2 = w + hh * v
                if w2 <= 0.0:
                    break
                v2 = v + hh * f1
                f2 = neg_inv_p * w2**one_m_p
                w3 = w + hh * v2
                if w3 <= 0.0:
                    break
                v3 = v + hh * f2
                f3 = neg_inv_p * w3**one_m_p
                w4 = w + h * v3
                if w4 <= 0.0:
                    if r + h < 1.0 - hh or record:
                        break
                    return min(w4, -5e-324), None   # died in the last step
                v4 = v + h * f3
                f4 = neg_inv_p * w4**one_m_p
                w += h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
                v += h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
                r += h
                if w <= 0.0 and r < 1.0 - hh:
                    break
                if record:
                    ws.append(w)
                    vs.append(v)
        else:
            c1 = 0.0        # -(n-1)/r at the current node r > 0
            for _ in range(m - 1):
                if w <= 0.0:
                    break
                if r == 0.0:
                    f1 = neg_inv_p * w**one_m_p / n
                else:
                    f1 = c1 * v + neg_inv_p * w**one_m_p
                w2 = w + hh * v
                if w2 <= 0.0:
                    break
                cm = neg_nm1 / (r + hh)
                v2 = v + hh * f1
                f2 = cm * v2 + neg_inv_p * w2**one_m_p
                w3 = w + hh * v2
                if w3 <= 0.0:
                    break
                v3 = v + hh * f2
                f3 = cm * v3 + neg_inv_p * w3**one_m_p
                w4 = w + h * v3
                if w4 <= 0.0:
                    if r + h < 1.0 - hh or record:
                        break
                    return min(w4, -5e-324), None   # died in the last step
                v4 = v + h * f3
                c1 = neg_nm1 / (r + h)
                f4 = c1 * v4 + neg_inv_p * w4**one_m_p
                w += h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
                v += h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
                r += h
                if w <= 0.0 and r < 1.0 - hh:
                    break
                if record:
                    ws.append(w)
                    vs.append(v)
    except OverflowError:
        if record:
            raise NumericError(f"shot from w(0) = {a!r}: w^(1-p) overflows "
                               f"in the step from r = {r!r}") from None
    else:
        if r >= 1.0 - hh:       # no break: the loop ran to r = 1
            return (w, np.array(ws), np.array(vs)) if record else (w, None)
        if record:
            raise NumericError("steady-state trajectory died before the boundary")
    # died before reaching r = 1: report the deficit as a negative residual
    return -(1.0 - r), r


def check_steady_problem(p: float, n: int):
    """The steady state's preconditions: p >= 1 and n >= 1."""
    if p < 1:
        raise InputError(f"p >= 1 required, got {p}")
    if n < 1:
        raise InputError(f"n >= 1 required, got {n}")


def solve_steady_state(p: float, n: int, grid_m: int = STEADY_M) -> SteadyState:
    """Shoot on the center value until the profile vanishes at r = 1.

    Every positive radial solution is a rescaling a * w_1(r * a^{-p/2}) of
    one, so a -> w(1; a) has exactly one root, which SHOT_BRACKET must
    straddle (an InputError otherwise), and a shot from a that dies at radius
    rho puts the root near a * rho^(-2/p).  The shot after one that died is
    that proposal when it died at a node 0 < r <= 1 - 3h before its last step
    (rho = r + 7h/8), or in its last step right after a shot that died
    earlier (rho = 1 - 3h/4): a secant step on the staircase of deficits, or
    through a deficit and a stage value, creeps.  For p > 1, when a survivor
    follows a death, w(1; a) has jumped from 0 to a positive floor between
    them, so the next shot is the zero of the line through the last two
    last-step deaths, or half the stop tolerance below ``hi`` when that zero
    lies at or above ``hi``.  Otherwise it is a secant step through the last
    two shots; one shorter than 16 ulps from two shots on one side of the
    root goes that far toward the other end of the bracket (Brent's minimum
    step).  The rules read a death's node as ``_integrate_shot`` returns it.
    A proposal outside the open bracket yields to the next rule, and a secant
    step outside it to bisection.  The fractions 7/8 and 3/4 were chosen on
    the grid of (p, n) named below, on which no point takes more shots than
    by secant steps alone.

    For p > 1 the shots just below the touchdown die in their last step, and
    the stage value ``_integrate_shot`` reports for them is linear in a, so
    the secant lands where the shots start to survive.  While the bracket has
    not halved over the last six shots, the next shot is the midpoint (the
    safeguard of Dekker and Brent).  A shot whose w^(1-p) overflows returns a
    death in the step where it overflowed: that happens only as w nears 0,
    and for p > 78 at the bracket's lower end, whose shot dies at r = 0.
    Shooting stops on a shot with 0 <= w(1) <= BOUNDARY_TOL or when the
    bracket collapses, and records the profile from its upper end ``hi``, the
    last shot with w(1) >= 0.  At m = 4001 the root takes at most 30 shots
    for p in {1, 1.25, 1.5, 2, 3, 4, 6, 8} and n = 1, 2, 3 (14 at (2, 1), and
    354 over the 21 with p <= 6, against 471 by secant steps alone); at
    m = 1001 at most 30 (336 against 443).  After SHOT_CAP shots shooting
    fails with NumericError.
    """
    check_steady_problem(p, n)
    h = 1.0 / (grid_m - 1)
    rtol = 1e-15        # the bracket is collapsed at hi - lo <= rtol * hi
    lo, hi = SHOT_BRACKET
    # the last two shots: center, value and the node of a death before the last step
    a0, f0, r0 = lo, *_integrate_shot(lo, p, n, grid_m)
    a1, f1, r1 = hi, *_integrate_shot(hi, p, n, grid_m)
    if not (f0 < 0.0 < f1):
        raise InputError(
            f"shooting bracket {SHOT_BRACKET} does not straddle the boundary root "
            f"at p = {p!r}, n = {n!r} (f(lo)={f0:.3e}, f(hi)={f1:.3e})")
    last_step = []          # (a, stage value) of the shots that died in their last step
    widths = [hi - lo]      # the bracket width after each shot
    stalled = False
    while not 0.0 <= f1 <= BOUNDARY_TOL and hi - lo > rtol * hi:
        if len(widths) > SHOT_CAP:
            # the two bracket shots, then one per iteration
            raise NumericError(
                f"steady-state shooting did not converge at p = {p!r}, n = {n!r}: "
                f"{len(widths) + 1} shots at m = {grid_m}, last bracket [{lo!r}, {hi!r}]")
        proposals = []
        if not stalled:
            if r1 is not None and 0.0 < r1 <= 1.0 - 3.0 * h:
                proposals.append(a1 * (r1 + 0.875 * h) ** (-2.0 / p))
            elif f1 < 0.0 and r1 is None and r0 is not None:
                proposals.append(a1 * (1.0 - 0.75 * h) ** (-2.0 / p))
            if p > 1.0 and f0 < 0.0 <= f1 and len(last_step) >= 2:
                (d0, s0), (d1, s1) = last_step[-2:]
                if s1 != s0:
                    zero = d1 - s1 * (d1 - d0) / (s1 - s0)
                    proposals.append(zero if zero < hi else hi * (1.0 - 0.5 * rtol))
            if f1 != f0:
                secant = a1 - f1 * (a1 - a0) / (f1 - f0)
                step = 16.0 * math.ulp(a1)      # Brent's minimum step
                if abs(secant - a1) < step and (f0 < 0.0) == (f1 < 0.0):
                    secant = a1 + step if a1 == lo else a1 - step
                proposals.append(secant)
        a2 = next((a for a in proposals if lo < a < hi), 0.5 * (lo + hi))
        f2, r2 = _integrate_shot(a2, p, n, grid_m)
        if f2 < 0.0:
            lo = a2
            if r2 is None:
                last_step.append((a2, f2))
        else:
            hi = a2
        a0, f0, r0, a1, f1, r1 = a1, f1, r1, a2, f2, r2
        # a bracket that has not halved in the last six shots means the secant
        # is creeping up to a jump of w(1; a): bisect until it has (Dekker
        # 1969, Brent 1973)
        widths.append(hi - lo)
        stalled = len(widths) > 6 and widths[-1] > 0.5 * widths[-7]
    wb, ws, vs = _integrate_shot(hi, p, n, grid_m, record=True)
    r_nodes = np.linspace(0.0, 1.0, grid_m)
    return SteadyState(p=float(p), n=int(n), r_nodes=r_nodes, w=ws, derivative=vs,
                       center_value=float(ws[0]), boundary_value=float(wb))


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """The integral of y from its first node to each node x_k, nodes spaced h,
    by Simpson's rule: h/12 (5, 8, -1) on the interval's nodes and the next
    for the intervals 0, 2, 4, ..., and h/12 (-1, 8, 5) on the node before
    and the interval's for the others and the last, as scipy's
    cumulative_simpson; the trapezoid with fewer than 3 nodes."""
    if y.size < 3:
        sub = h * (y[1:] + y[:-1]) / 2.0
    else:
        ahead = h / 12.0 * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:])    # [x_i, x_i+1]
        behind = h / 12.0 * (-y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:])  # [x_i+1, x_i+2]
        sub = np.empty(y.size - 1)
        sub[:-1:2] = ahead[::2]
        sub[1::2] = behind[::2]
        sub[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(sub)))


def steady_state_residual(state: SteadyState) -> float:
    """Max flux-form residual | r^{n-1} w' + (1/p) int_0^r s^{n-1} w^{1-p} ds |.

    Evaluated on nodes with r <= RESIDUAL_R_CAP, away from the boundary layer
    of p > 1.  Cumulative Simpson on the grid's spacing keeps the quadrature
    error at the level of the integrator's own global error.
    """
    r, w, v = state.r_nodes, state.w, state.derivative
    mask = r <= RESIDUAL_R_CAP
    src = r[mask] ** (state.n - 1) * w[mask] ** (1.0 - state.p) / state.p
    integral = _cumulative_simpson(src, 1.0 / (r.size - 1))    # r = linspace(0, 1, m)
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
        if self.kind == "DoubleExp" and not (self.gamma is not None and self.gamma > 0):
            raise InputError(f"DoubleExp envelope needs gamma > 0, got {self.gamma}")
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
        """exp(-Lambda(r)): the datum's lower bound, the CLI's datum, the GN template."""
        return np.exp(-self.lam(r))


def lower_c1(p: float) -> float:
    """c1 = 1/(2p), the rate in Lambda^{-1}(c1 ln t) of every lower bound
    (any c1 with p c1 < 1 would do): the certificate's, and the lower curve's."""
    return 1.0 / (2.0 * p)


def lower_bound_curve(env: DecayEnvelope, p: float, C: float, t_grid) -> np.ndarray:
    """C * t^{-1/p} * (Lambda^{-1}(c1 ln t))^{2/p} on the given times, c1 = lower_c1(p).

    Requires c1*ln(t) inside the domain of the inverse envelope.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 1.0):
        raise InputError("lower-bound curve needs t > 1")
    radii = env.lam_inv(lower_c1(p) * np.log(t))
    return C * t ** (-1.0 / p) * radii ** (2.0 / p)


def check_envelope_floor(env: DecayEnvelope, r: np.ndarray, u0: np.ndarray):
    """Raise InputError unless the datum u0 on the nodes r lies above
    ``env.floor(r)``, up to a relative FLOOR_RTOL."""
    low = np.flatnonzero(u0 < env.floor(r) * (1.0 - FLOOR_RTOL))
    if low.size:
        raise InputError("initial datum drops below the envelope floor on the ball, "
                         f"first at r = {r[low[0]]:g}")


@dataclass(frozen=True)
class SubsolutionSpec:
    """Separated subsolution data pinned at an evaluation horizon tau0."""

    envelope: DecayEnvelope
    p: float
    tau0: float
    R_tau0: float
    delta: float


def subsolution_radius(env: DecayEnvelope, p: float, tau0: float) -> float:
    """The ball radius R(tau0) = Lambda^{-1}(c1 tau0), c1 = lower_c1(p)."""
    if tau0 <= 0:
        raise InputError("tau0 must be positive")
    R_tau0 = float(env.lam_inv(lower_c1(p) * tau0))
    if R_tau0 <= 0:
        raise InputError("envelope inverse returned a nonpositive radius")
    return R_tau0


def build_subsolution(env: DecayEnvelope, p: float, steady: SteadyState,
                      tau0: float) -> SubsolutionSpec:
    """Fix the ball radius ``subsolution_radius`` and the initial level
    delta = R^{-2/p} exp(-c1 tau0) / sup(w_1), c1 = lower_c1(p)."""
    c1 = lower_c1(p)
    R_tau0 = subsolution_radius(env, p, tau0)
    # Lambda(R(tau0)) = c1*tau0 exactly by construction of R(tau0)
    delta = 1.0 / float(steady.w.max()) * R_tau0 ** (-2.0 / p) * math.exp(-c1 * tau0)
    return SubsolutionSpec(env, float(p), float(tau0), R_tau0, float(delta))


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

    The run's initial profile (``EvolutionRun.datum``, its snapshot at t = 0)
    must dominate the envelope floor on the ball (``check_envelope_floor``);
    failure of the initial ordering z(.,0) >= zbar(.,0) signals a miscomputed
    delta and raises.  Returns the worst margin over the snapshots at
    tau <= tau0, of which one at least must lie past t = 0 (an InputError
    otherwise), together with the center margin at the horizon.
    """
    grid = run.grid
    mask = grid.nodes <= spec.R_tau0
    if not np.any(mask):
        raise InputError("run grid does not resolve the subsolution ball")
    r = grid.nodes[mask]

    u = run.values[:, mask]
    check_envelope_floor(spec.envelope, r, run.datum[mask])

    w_vals = evaluate_steady_state(steady, spec.R_tau0, r)
    taus = np.log1p(run.times)
    z = ((run.times + 1.0) ** (1.0 / spec.p))[:, None] * u

    initial_margin = float((z[0] - spec.delta * w_vals).min())
    if initial_margin < 0.0:
        raise InputError(
            f"initial ordering violated (margin {initial_margin:.3e}): delta miscomputed")

    checked = taus <= spec.tau0 * (1.0 + 1e-12)
    if not checked[run.times > 0.0].any():  # the datum alone checks nothing of the run
        raise InputError("no snapshots with t > 0 at or before tau0")
    y = logistic_exact(taus[checked], spec.delta, spec.p)
    margins = z[checked] - y[:, None] * w_vals
    return SubsolutionReport(float(margins.min()), initial_margin,
                             float(margins[-1, 0]), int(checked.sum()),
                             bool(spec.R_tau0 > grid.R / 2.0))
