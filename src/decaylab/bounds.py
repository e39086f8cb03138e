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
    "solve_steady_state",
    "steady_state_residual",
    "evaluate_steady_state",
    "logistic_exact",
    "logistic_residual",
    "DecayEnvelope",
    "lower_c1",
    "lower_bound_curve",
    "SubsolutionSpec",
    "build_subsolution",
    "SubsolutionReport",
    "subsolution_check",
]

BOUNDARY_TOL = 1e-10    # |w(1)| at which shooting stops
SHOT_CAP = 300          # root-finding shots before shooting gives up
SHOT_BRACKET = (1e-4, 50.0)   # center values w(0) that the root must lie between
RESIDUAL_R_CAP = 0.95   # the flux residual skips the boundary layer of p > 1


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
    limit value at r = 0.  Returns w(1) when w stays positive, and a value
    below 0 otherwise, so root finders see a sign change: for a death in the
    last step, the stage value w + h*v3 <= 0 that ended it (-5e-324 for a
    zero), which is linear in w(0) up to where the shots start to survive;
    for an earlier death, the deficit -(1 - r_death).

    The four stages are written out in local floats, since this loop is most
    of the time of a steady-state solve.  Stage i is k_i = (v_i, f_i) with
    f(r, w, v) = -(n-1)/r * v - w^(1-p)/p, and every float operation keeps
    the operands and order of the textbook form k_i = f(r_i, y + c h k_{i-1}):
    manifests and tests pin the results bit for bit.
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
        for _ in range(m - 1):
            if w <= 0.0:
                break
            if r == 0.0:
                f1 = neg_inv_p * w**one_m_p / n
            else:
                f1 = neg_nm1 / r * v + neg_inv_p * w**one_m_p
            rm = r + hh
            w2 = w + hh * v
            if w2 <= 0.0:
                break
            v2 = v + hh * f1
            f2 = neg_nm1 / rm * v2 + neg_inv_p * w2**one_m_p
            w3 = w + hh * v2
            if w3 <= 0.0:
                break
            v3 = v + hh * f2
            f3 = neg_nm1 / rm * v3 + neg_inv_p * w3**one_m_p
            w4 = w + h * v3
            if w4 <= 0.0:
                if r + h < 1.0 - hh or record:
                    break
                return min(w4, -5e-324)     # died in the last step
            v4 = v + h * f3
            f4 = neg_nm1 / (r + h) * v4 + neg_inv_p * w4**one_m_p
            w += h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
            v += h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            r += h
            if w <= 0.0 and r < 1.0 - hh:
                break
            if record:
                ws.append(w)
                vs.append(v)
        else:
            if record:
                return w, np.array(ws), np.array(vs)
            return w
    except OverflowError:
        raise NumericError(f"shot from w(0) = {a!r}: w^(1-p) overflows "
                           f"in the step from r = {r!r}") from None
    # died before reaching r = 1: report the deficit as a negative residual
    if record:
        raise NumericError("steady-state trajectory died before the boundary")
    return -(1.0 - r)


def solve_steady_state(p: float, n: int, grid_m: int = 4001) -> SteadyState:
    """Shoot on the center value until the profile vanishes at r = 1.

    Every positive radial solution is a rescaling a * w_1(r * a^{-p/2}) of
    one, so a -> w(1; a) has exactly one root, which SHOT_BRACKET must
    straddle (an InputError otherwise).  Clipped secant steps close the
    bracket (bisection fallback keeps it valid); a secant step shorter than
    16 ulps from two shots on one side of the root goes that far toward the
    other end of the bracket (Brent's minimum step).  For p > 1 the shots
    just below the touchdown die in their last step, and the stage value
    ``_integrate_shot`` reports for them is linear in a, so the secant lands
    where the shots start to survive.  While the bracket has not halved over
    the last six shots, the next shot is the midpoint (the safeguard of
    Dekker and Brent).  Shooting stops on a shot with
    0 <= w(1) <= BOUNDARY_TOL or when the bracket collapses, and records the
    profile from its upper end ``hi``, the last shot with w(1) >= 0.  At
    m = 4001 the root takes at most 37 shots on a grid of p from 1 to 8,
    n = 1, 2, 3 (22 at (p, n) = (2, 1)), and at m = 1001 at most 36, well
    inside the SHOT_CAP shots after which shooting fails with NumericError.
    """
    if p < 1 or n < 1:
        raise InputError("need p >= 1 and n >= 1")
    lo, hi = SHOT_BRACKET
    f_lo = _integrate_shot(lo, p, n, grid_m)
    f_hi = _integrate_shot(hi, p, n, grid_m)
    if not (f_lo < 0.0 < f_hi):
        raise InputError(
            f"shooting bracket {SHOT_BRACKET} does not straddle the boundary root "
            f"at p = {p!r}, n = {n!r} (f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e})")
    a0, f0 = lo, f_lo
    a1, f1 = hi, f_hi
    widths = [hi - lo]      # the bracket width after each shot
    stalled = False
    while not 0.0 <= f1 <= BOUNDARY_TOL and hi - lo > 1e-15 * hi:
        if len(widths) > SHOT_CAP:
            # the two bracket shots, then one per iteration
            raise NumericError(
                f"steady-state shooting did not converge at p = {p!r}, n = {n!r}: "
                f"{len(widths) + 1} shots at m = {grid_m}, last bracket [{lo!r}, {hi!r}]")
        # secant proposal, clipped into the bracket; bisection fallback
        if f1 != f0 and not stalled:
            a2 = a1 - f1 * (a1 - a0) / (f1 - f0)
            step = 16.0 * math.ulp(a1)      # Brent's minimum step
            if abs(a2 - a1) < step and (f0 < 0.0) == (f1 < 0.0):
                a2 = a1 + step if a1 == lo else a1 - step
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
        # a bracket that has not halved in the last six shots means the secant
        # is creeping up to a jump of w(1; a): bisect until it has (Dekker
        # 1969, Brent 1973)
        widths.append(hi - lo)
        stalled = len(widths) > 6 and widths[-1] > 0.5 * widths[-7]
    wb, ws, vs = _integrate_shot(hi, p, n, grid_m, record=True)
    r_nodes = np.linspace(0.0, 1.0, grid_m)
    ws[-1] = max(ws[-1], 0.0)
    return SteadyState(p=float(p), n=int(n), r_nodes=r_nodes, w=ws, derivative=vs,
                       center_value=float(ws[0]), boundary_value=float(wb))


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x[0]}^{x[k]} y for every k, by Simpson's rule on unequal intervals.

    Each interval's integral is eqn (8) of Cartwright (J. Math. Sci. Math.
    Educ. 12(2), 2017) on the interval and the next two nodes, and the last
    interval's on the two nodes before it; with fewer than 3 nodes it is the
    trapezoid.  The numpy operations and their order are those of
    scipy.integrate.cumulative_simpson(y, x=x, initial=0.0), so the result
    has its bits (tests compare the two); the module needs no scipy import.
    """
    dx = np.diff(x)
    if y.size < 3:
        sub = dx * (y[1:] + y[:-1]) / 2.0
    else:
        def forward(f, h):
            # the integral over [x_i, x_i+1] from the nodes i, i+1 and i+2
            x21, x32 = h[:-1], h[1:]
            x21_x31 = x21 / (x21 + x32)
            x21x21_x31x32 = x21_x31 * (x21 / x32)
            return x21 / 6 * ((3 - x21_x31) * f[:-2]
                              + (3 + x21x21_x31x32 + x21_x31) * f[1:-1]
                              + (-x21x21_x31x32) * f[2:])

        ahead = forward(y, dx)
        behind = forward(y[::-1], dx[::-1])[::-1]
        sub = np.empty(dx.size)
        sub[:-1:2] = ahead[::2]
        sub[1::2] = behind[::2]
        sub[-1] = behind[-1]
    # + 0.0 turns a -0.0 sum into 0.0, as adding scipy's initial value does
    return np.concatenate(([0.0], np.cumsum(sub) + 0.0))


def steady_state_residual(state: SteadyState) -> float:
    """Max flux-form residual | r^{n-1} w' + (1/p) int_0^r s^{n-1} w^{1-p} ds |.

    Evaluated on nodes with r <= RESIDUAL_R_CAP, away from the boundary layer
    of p > 1.  Cumulative Simpson keeps the quadrature error at the
    level of the integrator's own global error; ``_cumulative_simpson``
    gives scipy's bits without importing scipy.integrate.
    """
    r, w, v = state.r_nodes, state.w, state.derivative
    mask = r <= RESIDUAL_R_CAP
    src = r[mask] ** (state.n - 1) * w[mask] ** (1.0 - state.p) / state.p
    integral = _cumulative_simpson(src, r[mask])
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


@dataclass(frozen=True)
class SubsolutionSpec:
    """Separated subsolution data pinned at an evaluation horizon tau0."""

    envelope: DecayEnvelope
    p: float
    tau0: float
    R_tau0: float
    delta: float


def build_subsolution(env: DecayEnvelope, p: float, steady: SteadyState,
                      tau0: float) -> SubsolutionSpec:
    """Fix the ball radius Lambda^{-1}(c1 tau0), c1 = lower_c1(p), and the
    initial level delta = R^{-2/p} exp(-c1 tau0) / sup(w_1)."""
    c1 = lower_c1(p)
    if tau0 <= 0:
        raise InputError("tau0 must be positive")
    R_tau0 = float(env.lam_inv(c1 * tau0))
    if R_tau0 <= 0:
        raise InputError("envelope inverse returned a nonpositive radius")
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
    must dominate the envelope floor on the ball (checked); failure of the
    initial ordering z(.,0) >= zbar(.,0) signals a miscomputed delta and
    raises.  Returns the worst margin over checked
    snapshots together with the center margin at the horizon.
    """
    grid = run.grid
    mask = grid.nodes <= spec.R_tau0
    if not np.any(mask):
        raise InputError("run grid does not resolve the subsolution ball")
    r = grid.nodes[mask]

    u = run.values[:, mask]
    if np.any(run.datum[mask] < spec.envelope.floor(r) * (1.0 - 1e-12)):
        raise InputError("initial datum drops below the envelope floor on the ball")

    w_vals = evaluate_steady_state(steady, spec.R_tau0, r)
    taus = np.log1p(run.times)
    z = ((run.times + 1.0) ** (1.0 / spec.p))[:, None] * u

    initial_margin = float((z[0] - spec.delta * w_vals).min())
    if initial_margin < 0.0:
        raise InputError(
            f"initial ordering violated (margin {initial_margin:.3e}): delta miscomputed")

    checked = taus <= spec.tau0 * (1.0 + 1e-12)
    if not checked.any():
        raise InputError("no snapshots at or before tau0")
    # y(tau) one scalar at a time: numpy's array power can differ from the
    # scalar one in the last bit, and the margins are written to artifacts
    y = np.array([logistic_exact(tau, spec.delta, spec.p) for tau in taus[checked]])
    margins = z[checked] - y[:, None] * w_vals
    return SubsolutionReport(float(margins.min()), initial_margin,
                             float(margins[-1, 0]), int(checked.sum()),
                             bool(spec.R_tau0 > grid.R / 2.0))
