"""Semi-implicit radial solver for the degenerate diffusion u_t = u^p Lap(u).

The continuum problem is approximated on balls B_R with the boundary held at a
level eps in (0, 1) and the initial datum lifted by eps; letting eps decrease
and R increase produces a monotone ladder whose limit is the minimal solution
of the whole-space problem.  Each time step freezes the degenerate factor at
the old time level and solves the linear tridiagonal system

    (I - dt * u_old^p * Lap_h) u_new = u_old,

with the symmetric stencil at r = 0 and the Dirichlet value eps at r = R.
The matrix is an M-matrix for n <= 3, so u_new >= eps is preserved exactly up
to linear-solve roundoff; an undershoot larger than FLOOR_TOL * eps fails the
step, and an adaptive run retries it at half the dt.

The solve is LAPACK's dgtsv, held in the module name ``dgtsv``.  That name is
bound from scipy.linalg when the first ``_Stepper`` is made, or when it is
first read from outside the module (PEP 562), so importing this module, and a
run that takes no time step, loads no scipy.

The scheme is unconditionally stable, so dt is chosen for accuracy alone.  The
local error of backward Euler, dt^2/2 * u_tt, is estimated at no extra solve
from the last two accepted steps,

    lte = dt/(dt + dt_prev) * ((u_new - u) - (dt/dt_prev) * (u - u_prev)),

and a step is accepted when err = max|lte| / (tol * max u_new) <= 1;
otherwise it is retried from u with a smaller dt.  The next step is
dt * clamp(0.9 * err^(-1/2), 0.2, 2) (Hairer & Wanner, Solving ODEs II,
Sec. IV.8).  An undershoot is one more rejection,
retried at dt/2; both kinds draw on one budget of MAX_REJECTIONS retries per
step.  The first step is DT_INIT, since no estimate exists before it, and a
step shortened to land on a snapshot does not shrink the step after it.

The tolerance tol is TOL for the passes a ladder compares and PROXY_TOL for
the judged trajectory's own pass.  TOL's bound is the ladder's: its
backward-Euler Cauchy differences lie 1.9e-3 relative from those of
extrapolated members on ``configs/ladder.json``, a distance that grows as
TOL^(1/2) and that a test holds within 2e-3.  PROXY_TOL is set from the time
error of sigma, which the rate verdicts read: on the shipped rate problem
(m = 4001) sigma lies 2.0e-4 from its value at PROXY_TOL/16 (2 * half - full
at TOL lies 3.0e-4 from its own limit, for 60% more solves), against the
2e-3 to which the benchmark holds sigma and the 0.14 by which eps = 1e-5
moves it; every rate verdict reports a bound of that error,
``sigma_time_term`` (``rates.sandwich_report``).

Every run of ``evolve`` is three backward-Euler passes: the schedule above at
PROXY_TOL (or a replayed one), then the same schedule with each step halved,
then with each step in thirds.  Each pass is checked on its own for the
floor eps and the maximum principle, so positivity and the comparison
principle are properties of unchanged backward-Euler trajectories.  The
global error of a one-step method under a step schedule scaled as a whole
has an expansion in the step size (Hairer, Norsett & Wanner, Solving ODEs I,
Sec. II.8-9), so E2 = 2 * half - full is second order in time and
E3 = full/2 - 4 half + 9/2 third, the harmonic-sequence extrapolation of the
linearly implicit Euler method (Deuflhard, SIAM Review 27, 1985), third
order; the snapshots and observers read E3.  max|E3 - E2| / max E3 is the
run's measured time error, and the same maximum over one snapshot's own
max E3 its error at that snapshot.  An extrapolated value below eps by more
than FLOOR_TOL * eps, or above sup u0, fails the run; one within that
roundoff is raised to eps and counted.

A ladder (``minimal_solution_ladder``) judges its ordering and Cauchy
differences on the members' backward-Euler passes at TOL alone, all on one
schedule, where monotonicity holds because each step's matrix has a
nonnegative inverse (Varga, Matrix Iterative Analysis).  Its proxy is the
(min eps, max R) member's own ``evolve`` run: in a ladder of one member,
that run's passes are the only passes.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import InputError, LadderError, NumericError, SchemeError
from .radial import RadialGrid, laplacian_stencil, lq_quasinorm
from .steepness import SteepnessFunction, check_convexity_condition

__all__ = [
    "ProblemSpec",
    "ApproxParams",
    "EvolutionRun",
    "LadderResult",
    "evolve",
    "normalize_snapshots",
    "ladder_params",
    "minimal_solution_ladder",
    "lyapunov_series",
    "semiconvexity_check",
    "linfty_from_lq_check",
    "observer_lq",
    "observer_lyapunov",
]

FLOOR_TOL = 1e-12   # undershoot of eps allowed as roundoff, relative to eps
MAX_REJECTIONS = 40   # retries of one step, by the error control or on an undershoot
DT_INIT = 1e-4   # first adaptive step
TOL = 2.5e-5     # local error per step of a ladder's passes, relative to max u (module docstring)
PROXY_TOL = 3e-4   # the same for the judged trajectory's own pass, extrapolated to third order
LADDER_MONOTONICITY_TOL = 1e-8
CAUCHY_T_MIN = 1.0     # Cauchy differences of a ladder compare snapshots from here on
DESCENT_TOL = 1e-8     # rise of the descent functional allowed per snapshot, relative


@dataclass(frozen=True)
class ProblemSpec:
    """Cauchy data: degeneracy exponent p >= 1, dimension 1 <= n <= 3, radial datum u0.

    The step's matrix is an M-matrix only for n <= 3: its lower band at r = h
    is (3 - n)/(2h^2).
    """

    p: float
    n: int
    u0: Callable

    def __post_init__(self):
        if self.p < 1:
            raise InputError(f"p >= 1 required, got {self.p}")
        if not 1 <= self.n <= 3:
            raise InputError(f"1 <= n <= 3 required (the step is an M-matrix only for "
                             f"n <= 3), got {self.n}")


@dataclass(frozen=True)
class ApproxParams:
    """Truncation and discretization knobs for one regularized run."""

    R: float
    eps: float
    m: int

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise InputError(f"eps must lie in (0, 1), got {self.eps}")


@dataclass
class EvolutionRun:
    """Snapshots and observer series of one regularized trajectory.

    ``values`` has shape ``(len(times), grid.m)``: row k is u(., times[k]) on
    ``grid.nodes``.  ``series`` maps observer names to arrays over ``times``.
    ``dts`` holds every accepted step of the full pass, also of a replayed
    run; replaying it reproduces the run.  ``stats`` counts the ``rejected``
    and undershoot ``halvings`` retries of the full pass, the ``solves`` of
    all three passes (retries included) and the extrapolated values raised to
    eps (``clamps``); ``time_error`` is max|E3 - E2| / max E3 over the
    snapshots, and ``snapshot_time_error`` the list of each snapshot's
    max|E3 - E2| over its own max E3 (module docstring).
    ``second_order_sup`` is the sup series of E2 = 2 * half - full at
    ``times``, against which ``rates.sandwich_report`` measures sigma's time
    term.
    """

    spec: ProblemSpec
    params: ApproxParams
    grid: RadialGrid
    times: np.ndarray
    values: np.ndarray
    series: dict
    dts: np.ndarray
    stats: dict = field(default_factory=dict)
    second_order_sup: Optional[np.ndarray] = None

    @property
    def datum(self) -> np.ndarray:
        """The snapshot at t = 0, which a check that starts from the datum reads."""
        if self.times[0] != 0.0:
            raise InputError(f"the run's first snapshot is at t = {self.times[0]:g}, "
                             "not at t = 0, so it does not record the initial datum")
        return self.values[0]


def initial_profile(spec: ProblemSpec, params: ApproxParams, grid: RadialGrid) -> np.ndarray:
    """Truncated datum u0 * cutoff + eps; the cutoff ramps to zero on the last 10% of [0, R]."""
    r = grid.nodes
    cutoff = np.clip((params.R - r) / (0.1 * params.R), 0.0, 1.0)
    vals = np.asarray(spec.u0(r), dtype=float) * cutoff + params.eps
    if not np.all(vals >= params.eps):  # NaN fails too
        raise InputError("initial datum must be nonnegative and not NaN")
    return vals


def _bind_dgtsv():
    """The module's ``dgtsv``: LAPACK's, imported on first need, unless a
    wrapper (a tracer's, a test's) is already installed under that name."""
    if "dgtsv" not in globals():
        from scipy.linalg.lapack import dgtsv
        globals()["dgtsv"] = dgtsv
    return globals()["dgtsv"]


def __getattr__(name):
    # PEP 562: reads of evolution.dgtsv before any step bind it here
    if name == "dgtsv":
        return _bind_dgtsv()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Stepper:
    """Preassembled geometry and reused buffers for the tridiagonal step on one grid.

    ``step`` writes ``c = dt * u**p`` and the diagonals in place, into buffers
    and interior views made once here, from stencil factors folded once:
    ``c_i * (2 inv_h2)`` is ``(2 c_i) * inv_h2`` and ``c_i * (-g_i)`` is
    ``-(c_i * g_i)`` bit for bit, since doubling and negation are exact;
    ``u**p * dt`` is ``dt * u**p``, and ``u**1`` is ``u``.  ``dgtsv``
    overwrites the three diagonals, so every step writes all of them.  The
    right-hand side is a fresh copy of u that the solve overwrites and the step
    returns, so a retried step never sees a clobbered state and no returned
    array shares memory with a buffer.  Tests pin the step's bits against the
    unfolded assembly.

    ``__init__`` binds the module's ``dgtsv`` (``_bind_dgtsv``), so LAPACK is
    imported when the first stepper is made; ``step`` looks the name up in the
    module on every solve, so a wrapper installed there sees every solve.
    """

    def __init__(self, grid: RadialGrid, p: float, eps: float):
        _bind_dgtsv()
        self.grid = grid
        self.p = p
        self.eps = eps
        self.solves = 0
        # -Lap_h: the r = 0 row and the interior rows split by neighbor
        (self.center_coeff, inv_h2, geo_lower, geo_upper) = laplacian_stencil(grid)
        self.two_inv_h2 = 2.0 * inv_h2
        self.neg_lower = -geo_lower
        self.neg_upper = -geo_upper
        m = grid.m
        self._c = np.empty(m)
        self._dl = np.empty(m - 1)
        self._d = np.empty(m)
        self._du = np.empty(m - 1)
        # the interior rows: c at the nodes 1..m-2 and the bands it fills
        self._c_in = self._c[1:-1]
        self._d_in = self._d[1:-1]
        self._du_in = self._du[1:]
        self._dl_in = self._dl[:-1]

    def step(self, u: np.ndarray, dt: float) -> np.ndarray:
        c, dl, d, du = self._c, self._dl, self._d, self._du
        if self.p == 1.0:
            np.multiply(u, dt, out=c)
        else:
            np.power(u, self.p, out=c)
            c *= dt
        c0 = float(c[0])
        d[0] = 1.0 + c0 * self.center_coeff
        du[0] = -c0 * self.center_coeff
        c_in, d_in = self._c_in, self._d_in
        np.multiply(c_in, self.two_inv_h2, out=d_in)
        d_in += 1.0
        np.multiply(c_in, self.neg_upper, out=self._du_in)
        np.multiply(c_in, self.neg_lower, out=self._dl_in)
        d[-1] = 1.0     # pinned Dirichlet row
        dl[-1] = 0.0
        b = u.copy()
        b[-1] = self.eps
        self.solves += 1
        _, _, _, out, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
        if info != 0:
            raise SchemeError(f"tridiagonal solve failed (info={info})")
        undershoot = self.eps - np.minimum.reduce(out)
        if not undershoot <= 0.0:  # so that a NaN anywhere in out raises too
            if not undershoot <= FLOOR_TOL * self.eps:
                raise SchemeError(f"boundary-level undershoot {undershoot:.3e} exceeds "
                                  f"{FLOOR_TOL:g} * eps")
            np.maximum(out, self.eps, out=out)
        return out


def normalize_snapshots(snapshot_times: Sequence[float], t_end: float) -> np.ndarray:
    """The times at which ``evolve`` records a run: sorted, unique, ending at t_end > 0."""
    if t_end <= 0:
        raise InputError(f"t_end must be positive, got {t_end}")
    snaps = np.unique(np.asarray(list(snapshot_times), dtype=float))
    if np.any(snaps < 0):
        raise InputError("snapshot times must be nonnegative")
    snaps = snaps[snaps <= t_end]
    if snaps.size == 0 or snaps[-1] < t_end * (1.0 - 1e-12):
        snaps = np.append(snaps, t_end)
    else:
        snaps[-1] = t_end  # pin a near-endpoint snapshot onto t_end exactly
    return snaps


def _march(stepper: _Stepper, u: np.ndarray, snaps: np.ndarray,
           schedule: Optional[np.ndarray] = None, halves: int = 1,
           tol: Optional[float] = None):
    """One backward-Euler pass from u to snaps[-1]; row k of the result is u(snaps[k]).

    Without ``schedule`` the error controller chooses each step, at the local
    error tolerance ``tol`` (TOL when None).  With it, each
    scheduled dt is taken as ``halves`` steps of dt / halves, and the clock
    advances by whole scheduled steps, so a halved replay lands on the same
    snapshots as its schedule.  Returns the recorded rows, the scheduled or
    accepted steps and the retry counts.
    """
    values = np.empty((snaps.size, u.size))
    dts = array("d")
    times = snaps.tolist()
    i_snap = 0
    if times[0] <= 0.0:
        values[0] = u
        i_snap = 1

    retries = {"rejected": 0, "halvings": 0}
    tol = TOL if tol is None else tol
    t, t_end = 0.0, times[-1]
    # the change over the step tried and over the last accepted one, |lte| and
    # the last accepted dt (0 before the first)
    du, du_prev, lte = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    dt_prev = 0.0
    dt_next = DT_INIT
    scheduled = iter(schedule.tolist()) if schedule is not None else None
    while t < t_end * (1.0 - 1e-14):
        if scheduled is not None:
            try:
                dt = next(scheduled)
            except StopIteration:
                raise NumericError("dt schedule exhausted before t_end") from None
            u_new = u
            for _ in range(halves):
                u_new = stepper.step(u_new, dt / halves)
        else:
            gap = times[i_snap] - t
            dt = min(dt_next, gap)
            for _ in range(MAX_REJECTIONS + 1):
                try:
                    u_new = stepper.step(u, dt)
                except SchemeError:
                    retries["halvings"] += 1
                    dt *= 0.5
                    continue
                np.subtract(u_new, u, out=du)
                if dt_prev == 0.0:
                    factor = 1.0
                    break
                # |du - (dt/dt_prev) du_prev|: the sign flip is exact
                np.multiply(du_prev, dt / dt_prev, out=lte)
                lte -= du
                np.abs(lte, out=lte)
                err = (dt / (dt + dt_prev) * float(np.maximum.reduce(lte))
                       / (tol * float(np.maximum.reduce(u_new))))
                factor = min(2.0, max(0.2, 0.9 / math.sqrt(err))) if err > 0.0 else 2.0
                if err <= 1.0:
                    break
                retries["rejected"] += 1
                dt *= factor
            else:
                raise SchemeError(f"step retried {MAX_REJECTIONS} times (error control "
                                  f"or undershoot) at t = {t:.6g}")
            dt_next = dt * factor if dt < gap else max(dt_next, dt * factor)
            du, du_prev = du_prev, du
            dt_prev = dt
        u = u_new
        dts.append(dt)
        t += dt
        if i_snap < len(times) and t >= times[i_snap] * (1.0 - 1e-14):
            t = times[i_snap]
            values[i_snap] = u
            i_snap += 1
    return values[:i_snap], np.array(dts), retries


@dataclass
class _Pass:
    """One backward-Euler pass: the stepper that took it (its grid and solve
    count), the lifted datum, the snapshot rows, the steps and the retries."""

    stepper: _Stepper
    u0: np.ndarray
    rows: np.ndarray
    dts: np.ndarray
    retries: dict


def _in_range(rows: np.ndarray, eps: float, u0: np.ndarray) -> bool:
    """Whether every value lies in [eps, sup u0] up to roundoff; a NaN does not."""
    return bool(rows.min() >= eps * (1.0 - FLOOR_TOL) and rows.max() <= float(u0.max()) + 1e-10)


def _be_pass(spec: ProblemSpec, params: ApproxParams, snaps: np.ndarray,
             schedule: Optional[np.ndarray] = None, tol: Optional[float] = None) -> _Pass:
    """The backward-Euler pass from the lifted datum through ``snaps``, adaptive
    at ``tol`` or replaying ``schedule``, checked for the floor eps and sup u0."""
    grid = RadialGrid(spec.n, params.R, params.m)
    u0 = initial_profile(spec, params, grid)
    stepper = _Stepper(grid, spec.p, params.eps)
    rows, dts, retries = _march(stepper, u0, snaps, schedule, tol=tol)
    if not _in_range(rows, params.eps, u0):
        raise SchemeError("discrete maximum principle violated at a snapshot")
    return _Pass(stepper, u0, rows, dts, retries)


def _extrapolate(spec: ProblemSpec, params: ApproxParams, snaps: np.ndarray, full: _Pass,
                 observers: Optional[Mapping[str, Callable]]) -> EvolutionRun:
    """The run whose snapshots are full/2 - 4 half + 9/2 third: ``full`` replayed
    with each step halved and in thirds, extrapolated and observed; ``full`` is
    left unchanged."""
    half, _, _ = _march(full.stepper, full.u0, snaps, full.dts, halves=2)
    values, _, _ = _march(full.stepper, full.u0, snaps, full.dts, halves=3)
    if not (_in_range(half, params.eps, full.u0) and _in_range(values, params.eps, full.u0)):
        raise SchemeError("discrete maximum principle violated at a snapshot")

    # the Aitken-Neville table on the step counts 1, 2, 3, formed row by row in
    # the third pass's rows, so that no other array of snapshots is made:
    # T21 = half + (half - full), T31 = third + 2 (third - half) and
    # T32 = T31 + (T31 - T21)/2, which is full/2 - 4 half + 9/2 third;
    # T32 - T21 is 3 (T31 - T21)/2
    second = np.empty(values.shape[1])
    diff = np.empty(values.shape[1])
    second_sup = np.empty(len(values))
    gap_max = np.empty(len(values))
    for k, (full_row, half_row, row) in enumerate(zip(full.rows, half, values)):
        np.subtract(half_row, full_row, out=second)
        second += half_row
        second_sup[k] = second.max()
        np.subtract(row, half_row, out=diff)
        diff *= 2.0
        row += diff
        np.subtract(row, second, out=diff)
        diff *= 0.5
        row += diff
        gap_max[k] = 3.0 * max(float(diff.max()), -float(diff.min()))
    del half
    if not _in_range(values, params.eps, full.u0):
        raise SchemeError(f"extrapolated snapshot leaves [eps, sup u0]: min {values.min():.6e} "
                          f"against eps = {params.eps:g}, max {values.max():.6e}")
    clamps = int(np.count_nonzero(values < params.eps))
    np.maximum(values, params.eps, out=values)

    grid = full.stepper.grid
    series = {"sup_norm": values.max(axis=1)}
    for name, fn in (observers or {}).items():
        series[name] = np.array([fn(grid, row) for row in values])
    sup = series["sup_norm"]
    stats = {**full.retries, "solves": full.stepper.solves, "clamps": clamps,
             "time_error": float(gap_max.max()) / float(sup.max()),
             "snapshot_time_error": (gap_max / sup).tolist()}
    return EvolutionRun(spec, params, grid, snaps[:len(values)], values, series, full.dts,
                        stats, second_sup)


def evolve(spec: ProblemSpec, params: ApproxParams, t_end: float,
           snapshot_times: Sequence[float],
           observers: Optional[Mapping[str, Callable]] = None,
           dt_schedule: Optional[np.ndarray] = None) -> EvolutionRun:
    """March the regularized problem to t_end, recording observers at snapshots.

    ``observers`` maps series names to functions of (grid, row); the
    sup-norm series is always recorded, and so is ``dts``.  Without
    ``dt_schedule`` the pass is adaptive at PROXY_TOL.  When ``dt_schedule``
    is given, the ``dts`` of an earlier run is replayed verbatim; an entry
    that is not positive and finite fails the run before its first step.  The
    snapshots and series are the extrapolation full/2 - 4 half + 9/2 third of
    that pass and of its replays in halves and in thirds (module docstring).
    """
    snaps = normalize_snapshots(snapshot_times, t_end)
    if dt_schedule is not None:
        dt_schedule = np.asarray(dt_schedule, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(dt_schedule) & (dt_schedule > 0.0)))
        if bad.size:
            k = int(bad[0])
            raise SchemeError(f"dt_schedule[{k}] = {dt_schedule[k]:g} is not a positive, "
                              "finite step")
    full = _be_pass(spec, params, snaps, dt_schedule, tol=PROXY_TOL)
    return _extrapolate(spec, params, snaps, full, observers)


def observer_lq(q: float) -> Callable:
    return lambda grid, values: lq_quasinorm(grid, values, q)


def observer_lyapunov(L: SteepnessFunction, p: float, q: float) -> Callable:
    exponent = (p + q) / 2.0
    return lambda grid, values: grid.volume_integral(L.value(values ** exponent))


@dataclass
class LadderResult:
    """The (eps, R) ladder: each member's backward-Euler pass, the extrapolated
    proxy, and the monotonicity and convergence evidence read off the passes.

    ``members`` maps (eps, R) to the snapshot rows of that member's
    backward-Euler pass at ``proxy.times``, on the member's own grid (the
    first nodes of the largest ball's); in a ladder of one member, its row is
    the proxy's own pass at PROXY_TOL.  ``proxy`` is the (min eps, max R)
    member as ``evolve`` returns it: its own adaptive pass at PROXY_TOL,
    replayed in halves and in thirds, extrapolated and observed.  ``solves``
    counts every solve of the ladder, retries included.
    """

    members: dict
    proxy: EvolutionRun
    solves: int
    eps_violation: float
    R_violation: float
    eps_cauchy: list
    R_cauchy: list

    def report(self) -> dict:
        return {
            "members": [{"eps": e, "R": R} for (e, R) in self.members],
            "eps_monotonicity_violation": self.eps_violation,
            "R_monotonicity_violation": self.R_violation,
            "eps_cauchy_sup_reldiff": self.eps_cauchy,
            "R_cauchy_sup_reldiff": self.R_cauchy,
        }


def ladder_params(eps_list: Sequence[float], R_list: Sequence[float], m: int) -> dict:
    """The checked ``ApproxParams`` of each (eps, R) member of a ladder: every
    grid has the spacing of the largest ball, which has ``m`` nodes, so each
    radius must be a whole number (at least 2) of spacings."""
    eps_list, R_list = list(eps_list), list(R_list)
    if not eps_list or sorted(set(eps_list), reverse=True) != eps_list:
        raise InputError("eps_list must be non-empty and strictly decreasing")
    if not R_list or R_list[0] <= 0.0 or sorted(set(R_list)) != R_list:
        raise InputError("R_list must be non-empty, positive and strictly increasing")
    h = R_list[-1] / (m - 1)
    if any(abs(R / h - round(R / h)) > 1e-9 * R / h or round(R / h) < 2 for R in R_list):
        raise InputError(f"every radius in R_list must be a whole number of spacings h = {h:g}, "
                         "at least 2")
    return {(eps, R): ApproxParams(R=R, eps=eps, m=round(R / h) + 1)
            for eps in eps_list for R in R_list}


def minimal_solution_ladder(spec: ProblemSpec, eps_list: Sequence[float],
                            R_list: Sequence[float], m: int,
                            t_end: float, snapshot_times: Sequence[float],
                            observers: Optional[Mapping[str, Callable]] = None) -> LadderResult:
    """Run the (eps, R) grid of regularized problems and verify the ladder.

    ``ladder_params`` checks every member before any step.  The lead,
    (max eps, max R), takes its one adaptive backward-Euler pass at TOL, and
    every other member takes one pass that replays the lead's steps, so
    ladder differences are not polluted by differing time discretizations.
    On those passes, solutions must decrease along eps and increase along R
    up to LADDER_MONOTONICITY_TOL, and the Cauchy differences compare their
    sup norms.  The proxy for the minimal solution, (min eps, max R), is also
    run on its own schedule as ``evolve`` runs it (adaptive at PROXY_TOL,
    replayed in halves and in thirds, extrapolated and observed), so the
    proxy is that member's ``evolve`` run, bit for bit.  A ladder of one
    member takes the proxy's passes alone.
    """
    params = ladder_params(eps_list, R_list, m)
    snaps = normalize_snapshots(snapshot_times, t_end)
    eps_min, R_max = eps_list[-1], R_list[-1]
    # the proxy first, so that its passes are freed before the members' are made
    own = _be_pass(spec, params[eps_min, R_max], snaps, tol=PROXY_TOL)
    proxy = _extrapolate(spec, params[eps_min, R_max], snaps, own, observers)
    if len(params) == 1:
        passes = {}
        members = {(eps_min, R_max): own.rows}
    else:
        lead_key = (eps_list[0], R_max)
        lead = _be_pass(spec, params[lead_key], snaps)
        passes = {lead_key: lead, **{key: _be_pass(spec, par, snaps, lead.dts)
                                     for key, par in params.items() if key != lead_key}}
        members = {key: full.rows for key, full in passes.items()}
    del own

    def max_gap(pairs, ladder: str) -> float:
        """Largest violation of high >= low over (low, high) members, on the shared nodes."""
        worst = 0.0
        for low, high in pairs:
            rows = members[low]
            gap = max(0.0, float((rows - members[high][:, :rows.shape[1]]).max()))
            if gap > LADDER_MONOTONICITY_TOL:
                raise LadderError(f"{ladder} ladder violated: (eps, R) = {low} exceeds "
                                  f"{high} by {gap:.3e}")
            worst = max(worst, gap)
        return worst

    eps_violation = max_gap([((e_small, R), (e_big, R)) for R in R_list
                             for e_big, e_small in zip(eps_list, eps_list[1:])], "eps")
    R_violation = max_gap([((eps, R_small), (eps, R_big)) for eps in eps_list
                           for R_small, R_big in zip(R_list, R_list[1:])], "R")

    late = snaps >= CAUCHY_T_MIN

    def sup_reldiff(key_a, key_b):
        a = members[key_a].max(axis=1)[late]
        b = members[key_b].max(axis=1)[late]
        return float(np.max(np.abs(a - b) / b))

    eps_cauchy = [sup_reldiff((e1, R_max), (e2, R_max))
                  for e1, e2 in zip(eps_list, eps_list[1:])]
    R_cauchy = [sup_reldiff((eps_min, r1), (eps_min, r2))
                for r1, r2 in zip(R_list, R_list[1:])]

    solves = proxy.stats["solves"] + sum(full.stepper.solves for full in passes.values())
    return LadderResult(members, proxy, solves, eps_violation, R_violation,
                        eps_cauchy, R_cauchy)


def lyapunov_series(run: EvolutionRun, L: SteepnessFunction, q: float) -> np.ndarray:
    """Time series of int_{B_R} L(u^{(p+q)/2}), verified nonincreasing.

    Preconditions: the run records t = 0 (``EvolutionRun.datum``), q > 0, L
    passes ``check_convexity_condition`` on its smooth branch, and
    sup u0^{(p+q)/2} stays below the cutoff s0.  A violation of monotonicity
    beyond the per-snapshot tolerance DESCENT_TOL * (1 + |value|) raises,
    since descent is an exact property of the scheme's continuum limit.
    """
    sup0 = float(run.datum.max())
    p = run.spec.p
    if not q > 0:
        raise InputError(f"q > 0 required, got {q}")
    s_hi = min(L.s0, 1e6)  # power-law gauges have no cutoff
    s_probe = np.geomspace(min(s_hi, 1.0) * 1e-10, s_hi * (1.0 - 1e-9), 512)
    conv = check_convexity_condition(L, s_probe)
    if not conv.passed:
        raise InputError(
            "steepness function fails the descent (convexity) condition "
            f"d/ds (s L') >= 0: violation {conv.max_violation:.3e} at s = {conv.worst_s:.3e}")
    exponent = (p + q) / 2.0
    if sup0 ** exponent >= L.s0:
        raise InputError(
            f"sup u0^((p+q)/2) = {sup0**exponent:.6g} must stay below s0 = {L.s0}")
    descent = observer_lyapunov(L, p, q)
    values = np.array([descent(run.grid, row) for row in run.values])
    rises = values[1:] > values[:-1] + DESCENT_TOL * (1.0 + np.abs(values[:-1]))
    if rises.any():
        k = int(np.argmax(rises))
        raise NumericError(
            f"descent functional increased between t={run.times[k]:.6g} and "
            f"t={run.times[k+1]:.6g}: {values[k]:.12g} -> {values[k+1]:.12g}")
    return values


def semiconvexity_check(run: EvolutionRun) -> float:
    """min over nodes and snapshot pairs of u_t/u + 1/(p t).

    u_t uses forward differences between consecutive snapshots, evaluated at
    the earlier time; pairs starting at t = 0 are skipped.
    """
    if len(run.times) < 2:
        raise InputError("need at least two snapshots")
    t = run.times[:-1]
    pos = t > 0.0
    u = run.values[:-1][pos]
    ut = np.diff(run.values, axis=0)[pos] / np.diff(run.times)[pos, None]
    return float(np.min((ut / u).min(axis=1) + 1.0 / (run.spec.p * t[pos]),
                        initial=math.inf))


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
    pos = run.times > 0.0
    t, u = run.times[pos], run.values[pos]
    if t.size == 0:
        return -math.inf, math.nan
    lq = np.array([lq_quasinorm(run.grid, row, q) for row in u])
    ratios = u.max(axis=1) / (const * t ** (-n * expo / 2.0) * lq ** (q * expo))
    k = int(np.argmax(ratios))
    return float(ratios[k]), float(t[k])
