"""Semi-implicit radial solver for the degenerate diffusion u_t = u^p Lap(u).

The continuum problem is approximated on balls B_R with the boundary held at a
level eps in (0, 1) and the initial datum lifted by eps; letting eps decrease
and R increase produces a monotone ladder whose limit is the minimal solution
of the whole-space problem.  Each time step freezes the degenerate factor at
the old time level and solves the linear tridiagonal system

    (I - dt * u_old^p * Lap_h) u_new = u_old,

with the symmetric stencil at r = 0 and the Dirichlet value eps at r = R.
The matrix is an M-matrix for n <= 3, so u_new >= eps is preserved exactly up
to linear-solve roundoff; larger undershoots abort the step.

Although the scheme is unconditionally stable, dt is capped by
safety * h^2 / max(u^p) so the linearization error cannot contaminate
measured decay rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import InputError, LadderError, NumericError, SchemeError
from .radial import RadialGrid, RadialProfile, lq_quasinorm
from .steepness import SteepnessFunction, check_convexity_condition

__all__ = [
    "ProblemSpec",
    "ApproxParams",
    "EvolutionRun",
    "LadderResult",
    "evolve",
    "minimal_solution_ladder",
    "lyapunov_series",
    "semiconvexity_check",
    "linfty_from_lq_check",
    "observer_lq",
    "observer_lyapunov",
]

UNDERSHOOT_TOL = 1e-13
MAX_DT_HALVINGS = 40
DT_INIT = 1e-4   # cap on the first adaptive step
DT_MAX = 1.0


@dataclass(frozen=True)
class ProblemSpec:
    """Cauchy data: degeneracy exponent p >= 1, dimension n, radial datum u0."""

    p: float
    n: int
    u0: Callable

    def __post_init__(self):
        if self.p < 1:
            raise InputError(f"p >= 1 required, got {self.p}")


@dataclass(frozen=True)
class ApproxParams:
    """Truncation and discretization knobs for one regularized run."""

    R: float
    eps: float
    m: int
    safety: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise InputError(f"eps must lie in (0, 1), got {self.eps}")
        if not (0.0 < self.safety < 1.0):
            raise InputError(f"safety must lie in (0, 1), got {self.safety}")


@dataclass
class EvolutionRun:
    """Snapshots and observer series of one regularized trajectory."""

    spec: ProblemSpec
    params: ApproxParams
    grid: RadialGrid
    times: np.ndarray
    profiles: list
    series: dict
    dts: Optional[np.ndarray] = None


def initial_profile(spec: ProblemSpec, params: ApproxParams, grid: RadialGrid) -> np.ndarray:
    """Truncated datum u0 * cutoff + eps; the cutoff ramps to zero on the last 10% of [0, R]."""
    r = grid.nodes
    cutoff = np.clip((params.R - r) / (0.1 * params.R), 0.0, 1.0)
    vals = np.asarray(spec.u0(r), dtype=float) * cutoff + params.eps
    if not np.all(vals >= params.eps):  # NaN fails too
        raise InputError("initial datum must be nonnegative and not NaN")
    return vals


class _Stepper:
    """Preassembled geometry for the tridiagonal step on one grid."""

    def __init__(self, grid: RadialGrid, p: float, eps: float):
        self.grid = grid
        self.p = p
        self.eps = eps
        h, n, r = grid.h, grid.n, grid.nodes
        self.inv_h2 = 1.0 / h**2
        # interior geometric factors of -Lap_h split by neighbor
        self.geo_lower = self.inv_h2 - (n - 1) / (2.0 * h * r[1:-1])
        self.geo_upper = self.inv_h2 + (n - 1) / (2.0 * h * r[1:-1])
        self.center_coeff = 2.0 * n * self.inv_h2
        m = grid.m
        self._dl = np.empty(m - 1)
        self._d = np.empty(m)
        self._du = np.empty(m - 1)
        self._b = np.empty(m)

    def step(self, u: np.ndarray, dt: float) -> np.ndarray:
        c = dt * u**self.p
        ci = c[1:-1]
        dl, d, du, b = self._dl, self._d, self._du, self._b
        d[0] = 1.0 + c[0] * self.center_coeff
        du[0] = -c[0] * self.center_coeff
        d[1:-1] = 1.0 + 2.0 * ci * self.inv_h2
        du[1:] = -ci * self.geo_upper
        dl[0:-1] = -ci * self.geo_lower
        d[-1] = 1.0     # pinned Dirichlet row
        dl[-1] = 0.0
        b[:] = u
        b[-1] = self.eps
        _, _, _, out, info = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                                   overwrite_du=1, overwrite_b=1)
        if info != 0:
            raise SchemeError(f"tridiagonal solve failed (info={info})")
        undershoot = self.eps - out.min()
        if not undershoot <= 0.0:  # so that a NaN anywhere in out raises too
            if not undershoot <= UNDERSHOOT_TOL:
                raise SchemeError(
                    f"boundary-level undershoot {undershoot:.3e} exceeds {UNDERSHOOT_TOL}")
            np.maximum(out, self.eps, out=out)
        # out may alias the work buffer; hand the caller an independent array
        # so a retried step never sees a clobbered state.
        return out.copy() if out is b else out


def _normalize_snapshots(snapshot_times: Sequence[float], t_end: float) -> np.ndarray:
    snaps = np.unique(np.asarray(list(snapshot_times), dtype=float))
    if np.any(snaps < 0):
        raise InputError("snapshot times must be nonnegative")
    snaps = snaps[snaps <= t_end]
    if snaps.size == 0 or snaps[-1] < t_end * (1.0 - 1e-12):
        snaps = np.append(snaps, t_end)
    else:
        snaps[-1] = t_end  # pin a near-endpoint snapshot onto t_end exactly
    return snaps


def evolve(spec: ProblemSpec, params: ApproxParams, t_end: float,
           snapshot_times: Sequence[float],
           observers: Optional[Mapping[str, Callable]] = None,
           dt_schedule: Optional[np.ndarray] = None,
           record_dts: bool = False) -> EvolutionRun:
    """March the regularized problem to t_end, recording observers at snapshots.

    ``observers`` maps series names to functions of a RadialProfile; sup-norm
    and center-value series are always recorded.  When ``dt_schedule`` is
    given the recorded step sequence of an earlier run is replayed verbatim
    (used by ladders so all members share one time discretization).
    """
    if t_end <= 0:
        raise InputError(f"t_end must be positive, got {t_end}")
    grid = RadialGrid(spec.n, params.R, params.m)
    u = initial_profile(spec, params, grid)
    sup_bound = float(u.max()) + 1e-10

    obs: dict = {"sup_norm": lambda prof: float(prof.values.max()),
                 "center_value": lambda prof: float(prof.values[0])}
    if observers:
        obs.update(observers)

    snaps = _normalize_snapshots(snapshot_times, t_end)
    times, profiles = [], []
    series = {name: [] for name in obs}
    stepper = _Stepper(grid, spec.p, params.eps)
    dts: list = []

    def record(t: float, vals: np.ndarray):
        if not (vals.min() >= params.eps - 1e-10 and vals.max() <= sup_bound):
            raise SchemeError("discrete maximum principle violated at a snapshot")
        prof = RadialProfile(grid, vals.copy())
        times.append(t)
        profiles.append(prof)
        for name, fn in obs.items():
            series[name].append(fn(prof))

    i_snap = 0
    if snaps[0] <= 0.0:
        record(0.0, u)
        i_snap = 1

    t = 0.0
    first = True
    schedule = iter(dt_schedule) if dt_schedule is not None else None
    while t < t_end * (1.0 - 1e-14):
        if schedule is not None:
            try:
                dt = float(next(schedule))
            except StopIteration:
                raise NumericError("dt schedule exhausted before t_end") from None
            u = stepper.step(u, dt)
        else:
            cap = params.safety * grid.h**2 / max(float(u.max()) ** spec.p, 1e-300)
            dt = min(DT_MAX, cap)
            if first:
                dt = min(dt, DT_INIT)
            dt = min(dt, snaps[i_snap] - t)
            for _ in range(MAX_DT_HALVINGS + 1):
                try:
                    u = stepper.step(u, dt)
                    break
                except SchemeError:
                    dt *= 0.5
            else:
                raise SchemeError(
                    f"step failed after {MAX_DT_HALVINGS} dt halvings at t = {t:.6g}")
        first = False
        if record_dts:
            dts.append(dt)
        t += dt
        if i_snap < snaps.size and t >= snaps[i_snap] * (1.0 - 1e-14):
            t = float(snaps[i_snap])
            record(t, u)
            i_snap += 1

    return EvolutionRun(spec, params, grid, np.array(times), profiles,
                        {k: np.array(v) for k, v in series.items()},
                        np.array(dts) if record_dts else None)


def observer_lq(q: float) -> Callable:
    return lambda prof: lq_quasinorm(prof, q)


def observer_lyapunov(L: SteepnessFunction, p: float, q: float) -> Callable:
    exponent = (p + q) / 2.0
    return lambda prof: prof.grid.volume_integral(L.value(prof.values ** exponent))


@dataclass
class LadderResult:
    """Runs of the (eps, R) ladder plus monotonicity and convergence evidence."""

    runs: dict
    proxy: EvolutionRun
    eps_violation: float
    R_violation: float
    eps_cauchy: list
    R_cauchy: list

    def report(self) -> dict:
        return {
            "members": [{"eps": e, "R": R} for (e, R) in self.runs],
            "eps_monotonicity_violation": self.eps_violation,
            "R_monotonicity_violation": self.R_violation,
            "eps_cauchy_sup_reldiff": self.eps_cauchy,
            "R_cauchy_sup_reldiff": self.R_cauchy,
        }


def minimal_solution_ladder(spec: ProblemSpec, eps_list: Sequence[float],
                            R_list: Sequence[float], m_for_R: Mapping[float, int],
                            t_end: float, snapshot_times: Sequence[float],
                            observers: Optional[Mapping[str, Callable]] = None,
                            monotonicity_tol: float = 1e-8,
                            cauchy_t_min: float = 1.0) -> LadderResult:
    """Run the (eps, R) grid of regularized problems and verify the ladder.

    eps_list must decrease, R_list increase, and all grids must share one
    spacing so profiles compare node-by-node.  Every member replays the dt
    sequence of the (max eps, max R) member, whose cap is the binding one, so
    ladder differences are not polluted by differing time discretizations.
    Solutions must decrease along eps and increase along R up to
    ``monotonicity_tol``; the proxy for the minimal solution is the member at
    (min eps, max R).
    """
    eps_list = list(eps_list)
    R_list = list(R_list)
    if sorted(eps_list, reverse=True) != eps_list or len(set(eps_list)) != len(eps_list):
        raise InputError("eps_list must be strictly decreasing")
    if sorted(R_list) != R_list or len(set(R_list)) != len(R_list):
        raise InputError("R_list must be strictly increasing")
    h_ref = R_list[-1] / (m_for_R[R_list[-1]] - 1)
    for R in R_list:
        h = R / (m_for_R[R] - 1)
        if abs(h - h_ref) > 1e-9 * h_ref:
            raise InputError("all ladder grids must share one spacing")

    def params_for(eps, R):
        return ApproxParams(R=R, eps=eps, m=m_for_R[R])

    lead = evolve(spec, params_for(eps_list[0], R_list[-1]), t_end, snapshot_times,
                  observers, record_dts=True)
    runs = {(eps_list[0], R_list[-1]): lead}
    for eps in eps_list:
        for R in R_list:
            if (eps, R) not in runs:
                runs[(eps, R)] = evolve(spec, params_for(eps, R), t_end, snapshot_times,
                                        observers, dt_schedule=lead.dts)

    def max_gap(low_run, high_run):
        """Largest violation of high >= low on the shared nodes and times."""
        m_low = low_run.grid.m
        worst = 0.0
        for k in range(len(low_run.times)):
            gap = low_run.profiles[k].values - high_run.profiles[k].values[:m_low]
            worst = max(worst, float(gap.max()))
        return worst

    eps_violation = 0.0
    for R in R_list:
        for e_big, e_small in zip(eps_list, eps_list[1:]):
            gap = max_gap(runs[(e_small, R)], runs[(e_big, R)])
            if gap > monotonicity_tol:
                raise LadderError(
                    f"eps ladder violated at R={R}: eps {e_big} vs {e_small}, gap {gap:.3e}")
            eps_violation = max(eps_violation, gap)
    R_violation = 0.0
    for eps in eps_list:
        for R_small, R_big in zip(R_list, R_list[1:]):
            gap = max_gap(runs[(eps, R_small)], runs[(eps, R_big)])
            if gap > monotonicity_tol:
                raise LadderError(
                    f"R ladder violated at eps={eps}: R {R_small} vs {R_big}, gap {gap:.3e}")
            R_violation = max(R_violation, gap)

    def sup_reldiff(run_a, run_b):
        mask = run_a.times >= cauchy_t_min
        a = run_a.series["sup_norm"][mask]
        b = run_b.series["sup_norm"][mask]
        return float(np.max(np.abs(a - b) / b))

    R_max = R_list[-1]
    eps_cauchy = [sup_reldiff(runs[(e1, R_max)], runs[(e2, R_max)])
                  for e1, e2 in zip(eps_list, eps_list[1:])]
    eps_min = eps_list[-1]
    R_cauchy = [sup_reldiff(runs[(eps_min, r1)], runs[(eps_min, r2)])
                for r1, r2 in zip(R_list, R_list[1:])]

    return LadderResult(runs, runs[(eps_min, R_max)], eps_violation, R_violation,
                        eps_cauchy, R_cauchy)


def lyapunov_series(run: EvolutionRun, L: SteepnessFunction, q: float,
                    tol_scale: float = 1e-8) -> np.ndarray:
    """Time series of int_{B_R} L(u^{(p+q)/2}), verified nonincreasing.

    Preconditions: L passes the descent conditions for (p, q) on its smooth
    branch, and sup u0^{(p+q)/2} stays below the cutoff s0.  A violation of
    monotonicity beyond the per-step tolerance tol_scale * (1 + |value|)
    raises, since descent is an exact property of the scheme's continuum
    limit.
    """
    p = run.spec.p
    s_hi = min(L.s0, 1e6)  # power-law gauges have no cutoff
    s_probe = np.geomspace(min(s_hi, 1.0) * 1e-10, s_hi * (1.0 - 1e-9), 512)
    conv = check_convexity_condition(L, p, q, s_probe)
    if not conv.passed:
        raise InputError(
            "steepness function fails the descent (convexity) condition for "
            f"p={p}, q={q}: weak viol {conv.weak.max_violation:.3e}, "
            f"strong viol {conv.strong.max_violation:.3e}")
    exponent = (p + q) / 2.0
    sup0 = float(run.profiles[0].values.max())
    if sup0 ** exponent >= L.s0:
        raise InputError(
            f"sup u0^((p+q)/2) = {sup0**exponent:.6g} must stay below s0 = {L.s0}")
    grid = run.grid
    values = np.array([grid.volume_integral(L.value(prof.values ** exponent))
                       for prof in run.profiles])
    for k in range(len(values) - 1):
        if values[k + 1] > values[k] + tol_scale * (1.0 + abs(values[k])):
            raise NumericError(
                f"descent functional increased between t={run.times[k]:.6g} and "
                f"t={run.times[k+1]:.6g}: {values[k]:.12g} -> {values[k+1]:.12g}")
    return values


def semiconvexity_check(run: EvolutionRun, p: Optional[float] = None) -> float:
    """min over nodes and snapshot pairs of u_t/u + 1/(p t).

    u_t uses forward differences between consecutive snapshots, evaluated at
    the earlier time; pairs starting at t = 0 are skipped.
    """
    if len(run.profiles) < 2:
        raise InputError("need at least two snapshots")
    p = run.spec.p if p is None else p
    worst = math.inf
    for k in range(len(run.times) - 1):
        t = run.times[k]
        if t <= 0.0:
            continue
        dt = run.times[k + 1] - t
        u = run.profiles[k].values
        ut = (run.profiles[k + 1].values - u) / dt
        worst = min(worst, float((ut / u).min()) + 1.0 / (p * t))
    return worst


def linfty_from_lq_check(run: EvolutionRun, q: float):
    """Worst ratio of sup u to its L^q-based bound over positive-time snapshots.

    The bound is (2^{q + n(p-1)/2} n / (p^{n/2} omega_n))^{2/(np+2q)}
    * t^{-n/(np+2q)} * ||u||_{L^q(B_R)}^{2q/(np+2q)}, valid for radially
    nonincreasing data; the returned worst ratio should not exceed 1.
    """
    if q <= 0:
        raise InputError("q must be positive")
    p, n = run.spec.p, run.grid.n
    omega = run.grid.omega_n
    expo = 2.0 / (n * p + 2.0 * q)
    const = (2.0 ** (q + n * (p - 1.0) / 2.0) * n / (p ** (n / 2.0) * omega)) ** expo
    worst, worst_t = -math.inf, math.nan
    for k, t in enumerate(run.times):
        if t <= 0.0:
            continue
        prof = run.profiles[k]
        rhs = const * t ** (-n * expo / 2.0) * lq_quasinorm(prof, q) ** (q * expo)
        ratio = float(prof.values.max()) / rhs
        if ratio > worst:
            worst, worst_t = ratio, t
    return worst, worst_t
