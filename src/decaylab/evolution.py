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

A step solves only where the solution moves.  Data that decay fast leave
most of B_R in the floor band [eps, eps * (1 + FLOOR_TOL)] for the whole run,
so each step solves the rows [0, k) of a window: the last node above the band,
then a margin of M rows, the last of which, row k - 1, is pinned to eps as a
Dirichlet row; the rows from k on are set to eps.  M is the least integer with
(sup u - eps) * rho^M <= FLOOR_TOL * eps, where rho = a/(1 + a) and
a = dt * (eps * (1 + FLOOR_TOL))^p / h^2: on the band, (sup u - eps) * rho^j
is a supersolution of the full step's equation for u_new - eps at j rows past
the last moving node, so the full step exceeds eps at row k - 1 by at most
(sup u - eps) * rho^M + FLOOR_TOL * eps <= 2 * FLOOR_TOL * eps.  A windowed
step is exactly the step on the ball B_{r_{k-1}} with boundary value eps, the
problem a smaller-R ladder member solves, so positivity, the floor eps and the
maximum principle hold as before, and by the comparison principle it lies
below the full step by at most that bound, within the roundoff band that
FLOOR_TOL already allows at eps.  When k would reach m (a large dt * eps^p /
h^2, or a NaN in u) the window spans the grid and the step is the full-grid
step, bit for bit; a window has at least the two rows r = 0 and its pinned
row.

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

The tolerance is PROXY_TOL, set from the time error of sigma, which the
rate verdicts read: on the shipped rate problem (m = 4001) sigma lies 2.0e-4
from its value at PROXY_TOL/16, against the 2e-3 to which the benchmark holds
sigma and the 0.14 by which eps = 1e-5 moves it; every rate verdict reports a
bound of that error, ``sigma_time_term`` (``rates.sandwich_report``).

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
order; the snapshots and observers read E3.  A snapshot's time error is its
max|E3 - E2| over its own max E3 (Hairer, Norsett & Wanner, Solving ODEs I,
Sec. II.4), and the run's is the largest.  An extrapolated value below eps
by more than FLOOR_TOL * eps, or above sup u0, fails the run; one within
that roundoff is raised to eps and counted.

A ladder (``minimal_solution_ladder``) judges its ordering and Cauchy
differences on the members' backward-Euler passes on one schedule, its proxy's
steps in thirds, where monotonicity holds because each step's matrix has a
nonnegative inverse (Varga, Matrix Iterative Analysis).  The proxy is the (min
eps, max R) member's ``evolve`` run, and its pass in thirds is that member's.
The largest-ball member of each eps comes first, and a member (eps, R') on m'
nodes is not run when its rows provably equal the big ball's first m' columns:
when every window of the big ball's stepper (for the proxy, of all three
passes) has k <= m' - 1, the lifted data agree on [0, m') and the grids' h and
nodes do, all bit for bit.  Then at every step the small grid's window has the
same k, because need < decay * (m' - 1 - last) follows from last + 1 +
ceil(need/decay) <= m' - 1 (the full-grid fallback k = m never passes), and a
windowed step is the step on the ball at its pinned row, so the member's pass
would solve the same systems.  A ladder of one member has only the proxy's.
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
PROXY_TOL = 3e-4   # local error per step of a run's adaptive pass, relative to max u
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
    all three passes (retries included), the ``rows`` those solves solved
    (each solve's window, module docstring) and the extrapolated values
    raised to eps (``clamps``); ``snapshot_time_error`` is the list of each
    snapshot's max|E3 - E2| over its own max E3, and ``time_error`` the
    largest of them (module docstring).
    ``second_order_sup`` is the sup series of E2 = 2 * half - full at
    ``times``, against which ``rates.sandwich_report`` measures sigma's time
    term.  ``third_pass`` is the pass in thirds as the extrapolation left it
    (with the stepper of all three passes), a ladder's (min eps, max R) row.
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
    third_pass: Optional[_Pass] = None

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

    ``step`` solves the rows [0, k) that ``window`` picks (module docstring)
    and sets the rest to eps.  It writes ``c = dt * u**p`` and the diagonals
    of those rows in place, into buffers made once here, from stencil factors
    folded once: ``c_i * (2 inv_h2)`` is ``(2 c_i) * inv_h2`` and
    ``c_i * (-g_i)`` is ``-(c_i * g_i)`` bit for bit, since doubling and
    negation are exact; ``u**p * dt`` is ``dt * u**p``, and ``u**1`` is ``u``.
    ``dgtsv`` overwrites the three diagonals, so every step writes all of
    them.  The ten views of the buffers and of the stencil factors that a
    step on k rows reads and writes are kept with the last k and sliced again
    only when ``window`` returns another: most steps take the window of the
    step before (``_window_views``).  The right-hand side is a fresh copy of
    u that the solve overwrites and the step returns, so a retried step never
    sees a clobbered state and no returned array shares memory with a buffer.  When the window spans the
    grid the step is the full-grid step; tests pin its bits against the
    unfolded assembly, on the window's rows when it does not.  ``solves``
    and ``rows`` count the solves and the rows they solved, and ``widest``
    the largest k of any of them.

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
        self.rows = 0
        self.widest = 0
        # -Lap_h: the r = 0 row and the interior rows split by neighbor
        (self.center_coeff, inv_h2, geo_lower, geo_upper) = laplacian_stencil(grid)
        self.two_inv_h2 = 2.0 * inv_h2
        self.neg_lower = -geo_lower
        self.neg_upper = -geo_upper
        # the top of the floor band, and dt * band**p / h**2 per unit dt
        self.band = eps * (1.0 + FLOOR_TOL)
        self.band_coeff = self.band ** p * inv_h2
        m = grid.m
        self._c = np.empty(m)
        self._dl = np.empty(m - 1)
        self._d = np.empty(m)
        self._du = np.empty(m - 1)
        self._k = 0
        self._views = ()

    def _window_views(self, k: int) -> tuple:
        """The ten views of the buffers and stencil factors that a step on k
        rows writes and reads; sliced again only when k changes."""
        if k != self._k:
            c, dl, d, du = self._c[:k], self._dl[:k - 1], self._d[:k], self._du[:k - 1]
            self._views = (c, dl, d, du, c[1:-1], d[1:-1], du[1:], dl[:-1],
                           self.neg_upper[:k - 2], self.neg_lower[:k - 2])
            self._k = k
        return self._views

    def window(self, u: np.ndarray, dt: float) -> int:
        """The number k of rows, at least 2, that a step of dt from u solves.

        k is the last node above the floor band eps * (1 + FLOOR_TOL), plus
        one, plus the least margin M >= 1 with (sup u - eps) * rho**M <=
        FLOOR_TOL * eps, rho = a/(1 + a), a = dt * band**p / h**2; k = m,
        the full grid, when that reaches m or u holds a NaN, and k = 2 when
        no node lies above the band.
        """
        m = u.size
        excess = float(np.maximum.reduce(u)) - self.eps
        if not excess > FLOOR_TOL * self.eps:
            return 2 if excess == excess else m  # the band alone, or a NaN
        above = (u > self.band).nonzero()[0]
        last = int(above[-1]) if above.size else m - 1
        a = dt * self.band_coeff
        decay = math.log1p(1.0 / a) if a > 0.0 else math.inf  # -log(rho)
        need = math.log(excess / (FLOOR_TOL * self.eps))
        if not need < decay * (m - 1 - last):
            return m
        return last + 1 + max(1, math.ceil(need / decay))

    def step(self, u: np.ndarray, dt: float) -> np.ndarray:
        k = self.window(u, dt)
        c, dl, d, du, c_in, d_in, du_in, dl_in, neg_upper, neg_lower = self._window_views(k)
        if self.p == 1.0:
            np.multiply(u[:k], dt, out=c)
        else:
            np.power(u[:k], self.p, out=c)
            c *= dt
        c0 = float(c[0])
        d[0] = 1.0 + c0 * self.center_coeff
        du[0] = -c0 * self.center_coeff
        np.multiply(c_in, self.two_inv_h2, out=d_in)
        d_in += 1.0
        np.multiply(c_in, neg_upper, out=du_in)
        np.multiply(c_in, neg_lower, out=dl_in)
        d[-1] = 1.0     # pinned Dirichlet row
        dl[-1] = 0.0
        b = u.copy()
        b[k - 1:] = self.eps
        self.solves += 1
        self.rows += k
        if k > self.widest:
            self.widest = k
        # b[:k] is contiguous float64, so the solve overwrites it in place and
        # out is that view of b
        _, _, _, out, info = dgtsv(dl, d, du, b[:k], 1, 1, 1, 1)
        if info != 0:
            raise SchemeError(f"tridiagonal solve failed (info={info})")
        undershoot = self.eps - np.minimum.reduce(out)
        if not undershoot <= 0.0:  # so that a NaN anywhere in out raises too
            if not undershoot <= FLOOR_TOL * self.eps:
                raise SchemeError(f"boundary-level undershoot {undershoot:.3e} exceeds "
                                  f"{FLOOR_TOL:g} * eps")
            np.maximum(out, self.eps, out=out)
        return b


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
           tol: float = PROXY_TOL):
    """One backward-Euler pass from u to snaps[-1]; row k of the result is u(snaps[k]).

    Without ``schedule`` the error controller chooses each step, at the local
    error tolerance ``tol``.  With it, each
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
             schedule: Optional[np.ndarray] = None, halves: int = 1) -> _Pass:
    """The backward-Euler pass from the lifted datum through ``snaps``, adaptive
    at PROXY_TOL or replaying ``schedule`` with each step in ``halves``,
    checked for the floor eps and sup u0."""
    grid = RadialGrid(spec.n, params.R, params.m)
    u0 = initial_profile(spec, params, grid)
    stepper = _Stepper(grid, spec.p, params.eps)
    rows, dts, retries = _march(stepper, u0, snaps, schedule, halves, tol=PROXY_TOL)
    if not _in_range(rows, params.eps, u0):
        raise SchemeError("discrete maximum principle violated at a snapshot")
    return _Pass(stepper, u0, rows, dts, retries)


def _extrapolate(spec: ProblemSpec, params: ApproxParams, snaps: np.ndarray, full: _Pass,
                 observers: Optional[Mapping[str, Callable]]) -> EvolutionRun:
    """The run whose snapshots are full/2 - 4 half + 9/2 third: ``full`` replayed
    with each step halved and in thirds, extrapolated and observed; ``full``
    and the pass in thirds, the run's ``third_pass``, are left unchanged."""
    values, _, _ = _march(full.stepper, full.u0, snaps, full.dts, halves=2)
    third, _, retries = _march(full.stepper, full.u0, snaps, full.dts, halves=3)
    if not (_in_range(values, params.eps, full.u0) and _in_range(third, params.eps, full.u0)):
        raise SchemeError("discrete maximum principle violated at a snapshot")

    # the Aitken-Neville table on the step counts 1, 2, 3, formed row by row in
    # the half pass's rows, so that no other array of snapshots is made:
    # T21 = half + (half - full), T31 = third + 2 (third - half) and
    # T32 = T31 + (T31 - T21)/2, which is full/2 - 4 half + 9/2 third;
    # T32 - T21 is 3 (T31 - T21)/2
    second = np.empty(values.shape[1])
    diff = np.empty(values.shape[1])
    second_sup = np.empty(len(values))
    gap_max = np.empty(len(values))
    for k, (full_row, row, third_row) in enumerate(zip(full.rows, values, third)):
        np.subtract(row, full_row, out=second)
        second += row
        second_sup[k] = second.max()
        np.subtract(third_row, row, out=diff)
        diff *= 2.0
        np.add(third_row, diff, out=row)
        np.subtract(row, second, out=diff)
        diff *= 0.5
        row += diff
        gap_max[k] = 3.0 * max(float(diff.max()), -float(diff.min()))
    if not _in_range(values, params.eps, full.u0):
        raise SchemeError(f"extrapolated snapshot leaves [eps, sup u0]: min {values.min():.6e} "
                          f"against eps = {params.eps:g}, max {values.max():.6e}")
    clamps = int(np.count_nonzero(values < params.eps))
    np.maximum(values, params.eps, out=values)

    grid = full.stepper.grid
    series = {"sup_norm": values.max(axis=1)}
    for name, fn in (observers or {}).items():
        series[name] = np.array([fn(grid, row) for row in values])
    snapshot_error = gap_max / series["sup_norm"]
    stats = {**full.retries, "solves": full.stepper.solves, "rows": full.stepper.rows,
             "clamps": clamps, "time_error": float(snapshot_error.max()),
             "snapshot_time_error": snapshot_error.tolist()}
    return EvolutionRun(spec, params, grid, snaps[:len(values)], values, series, full.dts,
                        stats, second_sup, _Pass(full.stepper, full.u0, third, full.dts, retries))


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
    full = _be_pass(spec, params, snaps, dt_schedule)
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
    backward-Euler pass at ``proxy.times`` with each step of ``proxy.dts`` in
    thirds, on the member's own grid (the first nodes of the largest ball's);
    the (min eps, max R) row is ``proxy.third_pass.rows``.  A ladder of one
    member compares no passes, so its one row is the proxy's extrapolated
    snapshots, ``proxy.values``.  ``proxy`` is the (min eps, max R) member as
    ``evolve`` returns it.  A member the ladder did not run
    (``minimal_solution_ladder``) has as its row a view of the first columns
    of its eps's largest-ball rows, the array its own pass gives.  ``solves``
    counts every solve the ladder took, retries included, and ``rows`` the
    rows those solves solved.
    """

    members: dict
    proxy: EvolutionRun
    solves: int
    rows: int
    eps_violation: float
    R_violation: float
    eps_cauchy: list
    R_cauchy: list

    def report(self) -> dict:
        return {
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


def _rows_of_bigger_ball(spec: ProblemSpec, params: ApproxParams,
                         big: _Pass) -> Optional[np.ndarray]:
    """The snapshot rows of the member ``params`` on m' nodes as a view of the
    first m' columns of ``big``, the pass of the same eps on a bigger ball and
    the same schedule, when the module docstring's conditions prove them the
    rows of the member's own pass: every window of ``big``'s stepper (retries
    and the proxy's other passes included) has k <= m' - 1, and the lifted
    data, h and the nodes agree on [0, m') bit for bit.  None when the member must run.  The rows are checked as the
    member's pass checks its own.
    """
    m = params.m
    grid = RadialGrid(spec.n, params.R, m)
    big_grid = big.stepper.grid
    if not (big.stepper.widest <= m - 1 and grid.h == big_grid.h
            and np.array_equal(grid.nodes, big_grid.nodes[:m])):
        return None
    u0 = initial_profile(spec, params, grid)
    if not np.array_equal(u0, big.u0[:m]):
        return None
    rows = big.rows[:, :m]
    if not _in_range(rows, params.eps, u0):
        raise SchemeError("discrete maximum principle violated at a snapshot")
    return rows


def minimal_solution_ladder(spec: ProblemSpec, eps_list: Sequence[float],
                            R_list: Sequence[float], m: int,
                            t_end: float, snapshot_times: Sequence[float],
                            observers: Optional[Mapping[str, Callable]] = None) -> LadderResult:
    """Run the (eps, R) grid of regularized problems and verify the ladder.

    ``ladder_params`` checks every member, and a ladder of more than one
    member a t_end that reaches CAUCHY_T_MIN, before any step.  The proxy for
    the minimal solution, (min eps, max R), runs first, by ``evolve``
    (adaptive at PROXY_TOL, replayed in halves and in thirds, extrapolated and
    observed).  Its pass in thirds is that member's row, and every other
    member replays the proxy's steps in thirds, so ladder differences are not
    polluted by differing time discretizations.  For each eps the (eps, max R)
    pass comes first, and a smaller ball is not run when
    ``_rows_of_bigger_ball`` proves that its pass would give the big pass's
    rows on the shared nodes; then its row is a view of those.  On those
    passes, solutions must decrease along eps and increase along R up to
    LADDER_MONOTONICITY_TOL, and the Cauchy differences compare their sup
    norms from CAUCHY_T_MIN on.  A ladder of one member has the proxy's alone.
    """
    params = ladder_params(eps_list, R_list, m)
    snaps = normalize_snapshots(snapshot_times, t_end)
    if len(params) > 1 and not t_end >= CAUCHY_T_MIN:
        raise InputError(f"t_end = {t_end:g} lies before CAUCHY_T_MIN = {CAUCHY_T_MIN:g}, "
                         "from which a ladder's Cauchy differences compare snapshots")
    eps_min, R_max = eps_list[-1], R_list[-1]
    proxy = evolve(spec, params[eps_min, R_max], t_end, snaps, observers)
    passes = []
    if len(params) == 1:
        members = {(eps_min, R_max): proxy.values}
    else:
        members = {}

        def replay(key) -> _Pass:
            passes.append(_be_pass(spec, params[key], snaps, proxy.dts, halves=3))
            return passes[-1]

        for eps in eps_list:
            big = proxy.third_pass if eps == eps_min else replay((eps, R_max))
            members[eps, R_max] = big.rows
            for R in R_list[:-1]:
                rows = _rows_of_bigger_ball(spec, params[eps, R], big)
                members[eps, R] = replay((eps, R)).rows if rows is None else rows

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

    solves = proxy.stats["solves"] + sum(full.stepper.solves for full in passes)
    rows = proxy.stats["rows"] + sum(full.stepper.rows for full in passes)
    return LadderResult(members, proxy, solves, rows, eps_violation, R_violation,
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
