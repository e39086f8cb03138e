import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv

from decaylab import bounds, evolution
from decaylab.errors import InputError, LadderError, SchemeError
from decaylab.evolution import (DT_INIT, FLOOR_TOL, MAX_REJECTIONS, PROXY_TOL,
                                ApproxParams, ProblemSpec,
                                evolve, linfty_from_lq_check, lyapunov_series,
                                minimal_solution_ladder, observer_lq,
                                semiconvexity_check)
from decaylab.radial import RadialGrid, laplacian_stencil, lq_quasinorm
from decaylab.rates import RATIO_SLACK
from decaylab.steepness import SteepnessFunction


def gaussian_spec(p=1.0, n=1):
    return ProblemSpec(p=p, n=n, u0=lambda r: np.exp(-r**2))


def one_step(spec, params, dt=1e-3):
    """Initial and stepped profile of a single replayed step of size dt."""
    run = evolve(spec, params, dt, [0.0, dt], dt_schedule=np.array([dt]))
    return run.values[0], run.values[1]


def test_step_stationary_at_boundary_level():
    # zero interior datum: u = eps solves the scheme exactly
    spec = ProblemSpec(p=1.0, n=2, u0=lambda r: np.zeros_like(r))
    _, out = one_step(spec, ApproxParams(R=5.0, eps=0.1, m=101))
    np.testing.assert_allclose(out, 0.1, rtol=0, atol=1e-14)


def test_step_sup_nonincreasing_on_bump():
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: 0.5 * np.exp(-r**2))
    before, out = one_step(spec, ApproxParams(R=8.0, eps=0.01, m=201))
    assert out.max() <= before.max()
    assert out.min() >= 0.01 - 1e-13


def test_nan_datum_fails_closed():
    # NaN on r < 1 used to give an all-NaN run with no error
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: np.where(r < 1.0, np.nan, 0.0))
    with pytest.raises(InputError):
        evolve(spec, ApproxParams(R=5.0, eps=0.1, m=101), 1.0, [0.0, 1.0])


def test_nan_replayed_step_fails_closed():
    # a NaN dt used to turn t into NaN, end the loop and return only t = 0
    with pytest.raises(SchemeError):
        evolve(gaussian_spec(), ApproxParams(R=5.0, eps=0.1, m=101), 1.0, [0.0, 1.0],
               dt_schedule=np.array([np.nan]))


@pytest.mark.parametrize("bad", [-0.05, 0.0, math.inf])
def test_bad_replay_schedule_fails_closed(monkeypatch, bad):
    # a negative entry used to step backward in time with a matrix that is not
    # an M-matrix and report success, and a zero entry was taken as a step
    calls = failing_steps(monkeypatch, 0)
    with pytest.raises(SchemeError, match=r"dt_schedule\[1\]"):
        evolve(gaussian_spec(), ApproxParams(R=5.0, eps=0.1, m=101), 1.0, [0.0, 1.0],
               dt_schedule=[0.1, bad] + [0.05] * 30)
    assert calls == []


class ReferenceStepper(evolution._Stepper):
    """The step as it was before its numpy calls were fused, kept verbatim as
    the oracle of the lean step.  Given ``rows`` = k, it solves the first k
    rows of that assembly with row k - 1 pinned to eps, and sets the rest to
    eps: the windowed step (evolution module docstring)."""

    def __init__(self, grid, p, eps):
        super().__init__(grid, p, eps)
        (self.center_coeff, self.inv_h2, self.geo_lower,
         self.geo_upper) = evolution.laplacian_stencil(grid)
        self._b = np.empty(grid.m)

    def step(self, u: np.ndarray, dt: float, rows=None) -> np.ndarray:
        k = self.grid.m if rows is None else rows
        c = dt * u**self.p
        ci = c[1:-1]
        dl, d, du, b = self._dl, self._d, self._du, self._b
        d[0] = 1.0 + c[0] * self.center_coeff
        du[0] = -c[0] * self.center_coeff
        d[1:-1] = 1.0 + 2.0 * ci * self.inv_h2
        du[1:] = -ci * self.geo_upper
        dl[0:-1] = -ci * self.geo_lower
        d[k - 1] = 1.0     # pinned Dirichlet row
        dl[k - 2] = 0.0
        b[:] = u
        b[k - 1:] = self.eps
        self.solves += 1
        _, _, _, out, info = dgtsv(dl[:k - 1], d[:k], du[:k - 1], b[:k], overwrite_dl=1,
                                   overwrite_d=1, overwrite_du=1, overwrite_b=1)
        if info != 0:
            raise SchemeError(f"tridiagonal solve failed (info={info})")
        undershoot = self.eps - out.min()
        if not undershoot <= 0.0:  # so that a NaN anywhere in out raises too
            if not undershoot <= FLOOR_TOL * self.eps:
                raise SchemeError(f"boundary-level undershoot {undershoot:.3e} exceeds "
                                  f"{FLOOR_TOL:g} * eps")
            np.maximum(out, self.eps, out=out)
        # out is a view of the work buffer; hand the caller an independent array
        # so a retried step never sees a clobbered state.
        return b.copy()


def window_rows(u, dt, p, eps, h):
    """The window's row count by its definition: the last node above the floor
    band, plus one, plus the least M with (sup u - eps) rho**M <= FLOOR_TOL *
    eps, counted up one by one; at least 2 rows and at most m."""
    band = eps * (1.0 + FLOOR_TOL)
    above = np.flatnonzero(u > band)
    if above.size == 0:
        return 2
    a = dt * band**p / h**2
    rho = a / (1.0 + a)
    margin = 0
    while (u.max() - eps) * rho**margin > FLOOR_TOL * eps and above[-1] + 1 + margin < u.size:
        margin += 1
    return min(above[-1] + 1 + margin, u.size)


def kept_arrays(stepper):
    """Every array the step keeps, by name: its buffers, the folded stencil
    factors and, held in a tuple, the views of its last window."""
    kept = {}
    for name, a in vars(stepper).items():
        if isinstance(a, tuple):
            kept.update((f"{name}[{i}]", v) for i, v in enumerate(a) if isinstance(v, np.ndarray))
        elif isinstance(a, np.ndarray):
            kept[name] = a
    return kept


def test_lean_step_matches_reference_bit_for_bit(monkeypatch):
    # the step equals the unfolded assembly bit for bit: on the full grid when
    # the window spans it, and on the window's rows, row k - 1 pinned, when not
    raw_undershoots = []

    def solve(*args):
        result = dgtsv(*args)
        raw_undershoots.append(eps - result[3].min())
        return result

    monkeypatch.setattr(evolution, "dgtsv", solve)
    clamped = 0
    windows = []
    for p in (1.0, 1.5, 2.0, 4.0):
        for n in (1, 2, 3):
            for m in (3, 5, 101, 1001):
                grid = RadialGrid(n, 5.0, m)
                for eps in (1e-3, 1e-8):
                    lean = evolution._Stepper(grid, p, eps)
                    ref = ReferenceStepper(grid, p, eps)
                    # flat at eps near the boundary, where roundoff can undershoot,
                    # and held at eps, where the window is its least, 2 rows
                    bump = np.where(grid.nodes < 4.0, np.exp(-grid.nodes**2), 0.0) + eps
                    for u, dt in itertools.product((bump, np.full(m, eps)),
                                                   (1e-4, 1e-2, 1.0, 1e4)):
                        u_before = u.copy()
                        raw_undershoots.clear()
                        k = lean.window(u, dt)
                        assert k == window_rows(u, dt, p, eps, grid.h), (p, n, m, eps, dt)
                        rows = lean.rows
                        out = lean.step(u, dt)
                        assert lean.rows - rows == k
                        expected = ref.step(u, dt) if k == m else ref.step(u, dt, rows=k)
                        assert out.tobytes() == expected.tobytes(), (p, n, m, eps, dt)
                        assert np.all(out[k - 1:] == eps)
                        assert out.min() >= eps
                        clamped += raw_undershoots[0] > 0.0
                        windows.append("least" if k == 2 else "full" if k == m else "inner")
                        kept = kept_arrays(lean)
                        assert {"_c", "_dl", "_d", "_du", "neg_lower", "neg_upper",
                                *(f"_views[{i}]" for i in range(10))} <= kept.keys()
                        assert not any(np.shares_memory(out, a) for a in [u, *kept.values()])
                        assert u.tobytes() == u_before.tobytes()
    # several of these steps undershoot eps by roundoff and are clamped, and
    # the windows take every kind of size
    assert clamped >= 5
    assert set(windows) == {"least", "inner", "full"}


@pytest.mark.parametrize("p, n", [(1.0, 1), (2.0, 3)])
def test_kept_window_views_match_reference_bit_for_bit(p, n):
    # one stepper keeps the views of its last window: steps through windows
    # that grow, shrink, repeat and return to an earlier k, and retries from
    # an older state as the adaptive pass does, each equal to the unfolded
    # assembly bit for bit
    eps, m = 1e-3, 201
    grid = RadialGrid(n, 10.0, m)
    lean, ref = evolution._Stepper(grid, p, eps), ReferenceStepper(grid, p, eps)
    narrow = np.where(grid.nodes < 2.0, np.exp(-grid.nodes**2), 0.0) + eps
    wide = np.where(grid.nodes < 6.0, np.exp(-(grid.nodes / 3.0)**2), 0.0) + eps
    states = [(narrow, 1e-3), (narrow, 1e-3), (wide, 1e-3), (narrow, 1e-3),
              (np.full(m, eps), 1e-3), (wide, 1e5), (narrow, 1e-2), (narrow, 1e-3)]
    ks = []

    def check(u, dt):
        k = lean.window(u, dt)
        views = lean._views
        out = lean.step(u, dt)
        assert (lean._views is views) == (k == (ks[-1] if ks else 0))
        expected = ref.step(u, dt) if k == m else ref.step(u, dt, rows=k)
        assert out.tobytes() == expected.tobytes(), (len(ks), k)
        assert not any(np.shares_memory(out, a) for a in kept_arrays(lean).values())
        ks.append(k)
        return out

    for u, dt in states:
        check(u, dt)
    u = narrow
    for _ in range(6):
        u_prev, u = u, check(u, 1e-3)
    # the last step rejected: retried from its input at a shorter dt, then on
    check(check(u_prev, 1e-5), 1e-3)
    changes = [b - a for a, b in zip(ks, ks[1:]) if b != a]
    assert min(changes) < 0 < max(changes)            # windows shrink and grow
    assert ks.count(ks[0]) >= 3 and 2 in ks and m in ks    # an earlier k returns
    assert len(changes) < len(ks) - 1, ks             # and repeats keep their views


def test_step_with_a_nan_beyond_the_window_fails_closed():
    # the window would leave a NaN in the far field out of the solve, and the
    # step would overwrite it with eps; a NaN anywhere makes it the full-grid
    # step instead, whose solve carries the NaN to the undershoot check
    grid = RadialGrid(1, 5.0, 101)
    stepper = evolution._Stepper(grid, 1.0, 1e-3)
    for u in (np.exp(-grid.nodes**2) + 1e-3, np.full(101, 1e-3)):
        u[-2] = np.nan
        assert stepper.window(u, 1e-2) == 101
        with pytest.raises(SchemeError, match="undershoot nan"):
            stepper.step(u, 1e-2)


@pytest.mark.parametrize("p, n", [(1.0, 1), (1.0, 3), (2.0, 2), (4.0, 1)])
def test_windowed_step_lies_below_the_full_one_at_a_sharp_front(p, n):
    # a plateau that drops to eps in one node, at a = dt eps^p / h^2 from 0.1
    # to 10, where the margin M spans 15 to 363 rows: the windowed step lies
    # below the full-grid one by at most 2 FLOOR_TOL eps (measured at most
    # 0.0074 FLOOR_TOL eps), and a margin of one row would not
    eps = 1e-3
    grid = RadialGrid(n, 10.0, 1001)
    u = np.where(grid.nodes < 2.0, 1.0, 0.0) + eps
    for a in (0.1, 1.0, 10.0):
        dt = a * grid.h**2 / (eps * (1.0 + FLOOR_TOL)) ** p
        windowed = evolution._Stepper(grid, p, eps)
        assert windowed.window(u, dt) < grid.m
        gap = ReferenceStepper(grid, p, eps).step(u, dt) - windowed.step(u, dt)
        assert gap.min() >= 0.0
        assert gap.max() <= 2.0 * FLOOR_TOL * eps, (a, gap.max())


@pytest.mark.parametrize("p, n", [(1.0, 1), (2.0, 2), (4.0, 3)])
def test_windowed_trajectory_lies_below_the_full_grid_one(p, n):
    # a windowed step is the step on the ball of its pinned row, so by the
    # comparison principle it lies below the full-grid step, by at most
    # (sup u - eps) rho**M + FLOOR_TOL * eps; along a whole pass, replayed on
    # the full grid, the gap stays below FLOOR_TOL * eps (measured 2.7e-13,
    # 4.5e-13 and 7.4e-13 times eps at 862, 780 and 614 steps)
    eps = 1e-5
    spec = ProblemSpec(p, n, lambda r: np.exp(-r**2))
    params = ApproxParams(R=20.0, eps=eps, m=501)
    grid = RadialGrid(n, params.R, params.m)
    u0 = evolution.initial_profile(spec, params, grid)
    snaps = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 9)])
    windowed = evolution._Stepper(grid, p, eps)
    rows, dts, _ = evolution._march(windowed, u0, snaps, tol=2.5e-5)
    full, _, _ = evolution._march(ReferenceStepper(grid, p, eps), u0, snaps, dts)
    assert windowed.rows < 0.4 * params.m * windowed.solves    # measured 0.32
    gap = full - rows
    assert gap.min() >= 0.0
    assert gap.max() <= FLOOR_TOL * eps


def test_window_spans_the_grid_at_large_dt_bit_for_bit():
    # at eps = 0.1 and h = 0.01 a step of dt = 0.5 has a = dt eps^p / h^2 near
    # 500, so the margin M exceeds m and every step is the full-grid step
    eps, m = 0.1, 4001
    spec = gaussian_spec()
    params = ApproxParams(R=40.0, eps=eps, m=m)
    grid = RadialGrid(1, params.R, m)
    u0 = evolution.initial_profile(spec, params, grid)
    stepper = evolution._Stepper(grid, 1.0, eps)
    assert stepper.window(u0, 1e-4) < m     # a = 0.1: a window of a few hundred rows
    snaps = np.array([0.0, 5.0, 20.0])
    schedule = np.full(40, 0.5)
    rows, _, _ = evolution._march(stepper, u0, snaps, schedule)
    full, _, _ = evolution._march(ReferenceStepper(grid, 1.0, eps), u0, snaps, schedule)
    assert stepper.rows == m * stepper.solves == m * schedule.size
    assert rows.tobytes() == full.tobytes()


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_step_retried_after_failed_solve_matches_fresh_stepper(monkeypatch, p):
    # a failed solve leaves the reused buffers overwritten by the factorization;
    # the retry from the same u, as _march makes it, must not see them
    def failing_solve(*args):
        *result, _ = dgtsv(*args)
        return (*result, 1)

    grid = RadialGrid(2, 5.0, 101)
    eps = 1e-3
    u = np.exp(-grid.nodes**2) + eps
    u_before = u.copy()
    for dt in (1e-2, 1.0):
        stepper = evolution._Stepper(grid, p, eps)
        stepper.step(u, dt)      # buffers hold the state of one good step
        monkeypatch.setattr(evolution, "dgtsv", failing_solve)
        with pytest.raises(SchemeError, match="info=1"):
            stepper.step(u, dt)
        monkeypatch.setattr(evolution, "dgtsv", dgtsv)
        for retry_dt in (dt, 0.5 * dt):
            fresh = evolution._Stepper(grid, p, eps).step(u, retry_dt)
            assert stepper.step(u, retry_dt).tobytes() == fresh.tobytes(), (dt, retry_dt)
        assert u.tobytes() == u_before.tobytes()


# sha256 of each pinned trajectory's snapshots and steps, keyed by (p, n) so
# that a re-pin keeps the test ids
TRAJECTORY_SHAS = {
    (4.0, 1): "5d4df646f81e0b45b6311f6f744685268799deddfe8c36514935565e7bff7b39",
    (2.0, 2): "71015722ba9e9a210295a8780b3bdd8503d8cc6927408b6dd8dd59035ca41985",
    (1.5, 3): "953619650c2daf37a956264288ca378a5b663739941dfb3b088a235c28c9d1d9",
}


@pytest.mark.parametrize("p, n", TRAJECTORY_SHAS)
def test_adaptive_trajectories_pinned(p, n):
    # a change to the step's or the controller's arithmetic moves these bits
    run = evolve(gaussian_spec(p, n), ApproxParams(R=5.0, eps=1e-3, m=51), 2.0,
                 [0.0, 0.5, 2.0])
    digest = hashlib.sha256(run.values.tobytes() + run.dts.tobytes()).hexdigest()
    assert digest == TRAJECTORY_SHAS[p, n]


def test_linearized_heat_decay_rate(monkeypatch):
    # p=1 on a flat background eps: u_t ~ eps * Lap(u'); a small mode decays
    # like exp(-eps * lambda1 * t) with lambda1 the discrete operator's lowest
    # Dirichlet/Neumann eigenvalue, computed independently below
    R, m, eps0, amp = 3.0, 301, 0.5, 1e-4
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: amp * np.cos(np.pi * r / (2 * R)))
    params = ApproxParams(R=R, eps=eps0, m=m)
    monkeypatch.setattr(evolution, "PROXY_TOL", PROXY_TOL / 4)
    run = evolve(spec, params, 2.0, np.linspace(0.25, 2.0, 8))
    amps = run.values.max(axis=1) - eps0
    rate = -np.polyfit(run.times, np.log(amps), 1)[0]

    h = R / (m - 1)
    main = np.full(m - 1, 2.0 / h**2)
    off = np.full(m - 2, -1.0 / h**2)
    main[0] = 2.0 / h**2  # ghost symmetry at r=0 halves the first row couple
    off_l = off.copy()
    A = np.diag(main) + np.diag(off, 1) + np.diag(off_l, -1)
    A[0, 1] = -2.0 / h**2
    lam1 = np.min(np.linalg.eigvals(A).real)
    assert rate == pytest.approx(eps0 * lam1, rel=0.05)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_separable_solution_at_p_1(n):
    # u = (R^2 - r^2)/(2n(t+1)) solves the semi-discrete problem exactly (the
    # stencil is exact on quadratics), and the frozen-coefficient step maps
    # a*q to a/(1 + a dt)*q, the exact solution at t + dt; so both passes and
    # their extrapolation reproduce it to roundoff, over some 3,000 steps
    eps, R = 1e-30, 10.0
    grid = RadialGrid(n, R, 101)
    q = (R**2 - grid.nodes**2) / (2.0 * n)
    snaps = np.array([0.0, 1.0, 10.0, 100.0, 1e3, 1e4])
    stepper = evolution._Stepper(grid, 1.0, eps)
    full, dts, _ = evolution._march(stepper, q + eps, snaps, tol=2.5e-5)
    half, _, _ = evolution._march(stepper, q + eps, snaps, dts, halves=2)
    exact = q / (snaps[:, None] + 1.0) + eps
    for vals in (full, half, 2.0 * half - full):
        assert np.max(np.abs(vals - exact) / exact) <= 1e-12


def discrete_steady_state(p, m):
    """W on m nodes of [0, 1] in n = 1 with -Lap_h W = W^(1-p)/p at every node
    but the last and W(1) = 0: Newton on the stencil, from the shooting solution."""
    grid = RadialGrid(1, 1.0, m)
    center, inv_h2, lower, upper = laplacian_stencil(grid)
    w = bounds.solve_steady_state(p, 1, m).w[:-1].copy()
    for _ in range(20):
        wb = np.append(w, 0.0)
        lap = np.empty_like(w)
        lap[0] = center * (wb[1] - wb[0])
        lap[1:] = lower * wb[:-2] - 2.0 * inv_h2 * wb[1:-1] + upper * wb[2:]
        # the Jacobian of -Lap_h W - W^(1-p)/p in banded form
        bands = np.zeros((3, w.size))
        bands[0, 1] = -center
        bands[0, 2:] = -upper[:-1]
        bands[1] = (p - 1.0) / p * w**-p
        bands[1, 0] += center
        bands[1, 1:] += 2.0 * inv_h2
        bands[2, :-1] = -lower
        delta = scipy.linalg.solve_banded((1, 1), bands, lap + w ** (1.0 - p) / p)
        w += delta
        if np.abs(delta).max() <= 1e-14 * w.max():
            return grid, np.append(w, 0.0)
    raise AssertionError("Newton did not converge")


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_exact_separable_solution_at_p_above_1(p):
    # u = a(t) W solves the semi-discrete problem when a' = -a^(p+1)/p, so
    # a = (1+t)^(-1/p) from a(0) = 1; the frozen-coefficient step maps a W to
    # a/(1 + dt a^p/p) W, backward Euler on that law.  Against this truth, on
    # fixed schedules to t = 10, the pass is first order in dt, 2 * half - full
    # second order and the run's full/2 - 4 half + 9/2 third third order; and
    # the run's reported time term |E3 - E2| is at least E3's true error
    eps = 1e-30
    grid, w = discrete_steady_state(p, 101)
    stepper = evolution._Stepper(grid, p, eps)
    for a, dt in ((1.0, 0.1), (0.3, 1.0), (2.0, 0.01)):
        out = stepper.step(a * w, dt)
        np.testing.assert_allclose(out[:-1], a / (1.0 + dt * a**p / p) * w[:-1], rtol=1e-13)
    snaps = np.array([0.0, 1.0, 10.0])
    exact = (1.0 + snaps) ** (-1.0 / p)
    spec = ProblemSpec(p, 1, lambda r: np.interp(r, grid.nodes, w))
    params = ApproxParams(R=1.0, eps=eps, m=101)
    errors = []
    for dt in (0.05, 0.025, 0.0125):
        schedule = np.full(round(10.0 / dt), dt)
        full, _, _ = evolution._march(stepper, w + eps, snaps, schedule)
        half, _, _ = evolution._march(stepper, w + eps, snaps, schedule, halves=2)
        amplitude = full[:, 0] / w[0]
        np.testing.assert_allclose(full[:, :-1], amplitude[:, None] * w[:-1], rtol=1e-12)
        run = evolution._extrapolate(spec, params, snaps,
                                     evolution._Pass(stepper, w + eps, full, schedule, {}), None)
        errors.append([np.abs(amplitude - exact).max(),
                       np.abs((2.0 * half - full)[:, 0] / w[0] - exact).max(),
                       np.abs(run.values[:, 0] / w[0] - exact).max()])
        true_error = np.abs(run.values - exact[:, None] * w - eps).max(axis=1)[1:]
        term = (np.array(run.stats["snapshot_time_error"]) * run.series["sup_norm"])[1:]
        assert np.all(term >= true_error), (dt, term / true_error)  # measured 151-1124 times
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(np.abs(ratios[:, 0] - 2.0) <= 0.05), ratios     # measured 2.008-2.016
    assert np.all(np.abs(ratios[:, 1] - 4.0) <= 0.15), ratios     # measured 4.022-4.061
    assert np.all(np.abs(ratios[:, 2] - 8.0) <= 0.3), ratios      # measured 8.043-8.152


def test_evolve_records_snapshots_and_series():
    spec = gaussian_spec()
    params = ApproxParams(R=10.0, eps=1e-3, m=251)
    snaps = [0.0, 0.5, 1.0, 2.0]
    run = evolve(spec, params, 2.0, snaps, observers={"lq1": observer_lq(1.0)})
    np.testing.assert_allclose(run.times, snaps)
    assert run.values.shape == (4, params.m)
    assert set(run.series) == {"sup_norm", "lq1"}
    assert np.all(np.diff(run.series["sup_norm"]) <= 0)


def test_step_stats_count_recorded_and_replayed_steps():
    spec = gaussian_spec()
    params = ApproxParams(R=10.0, eps=1e-3, m=251)
    lead = evolve(spec, params, 2.0, [0.0, 1.0, 2.0])
    assert 0.0 < lead.dts.min() <= lead.dts.max() <= 2.0
    replay = evolve(spec, params, 2.0, [0.0, 1.0, 2.0], dt_schedule=lead.dts)
    assert replay.stats["rejected"] == 0 and replay.stats["halvings"] == 0
    # a replay reproduces its run bit for bit, and records the same steps
    assert np.array_equal(replay.values, lead.values)
    assert np.array_equal(replay.dts, lead.dts)
    # every attempt of the full pass is one solve, the halved pass takes two a
    # step and the pass in thirds three
    stats = lead.stats
    assert stats["solves"] == 6 * len(lead.dts) + stats["rejected"] + stats["halvings"]
    assert replay.stats["solves"] == 6 * len(lead.dts)
    # each solve, retries included, solves its window's rows: at least 2, and
    # fewer than m while the far field sits at eps
    for run in (lead, replay):
        assert 2 * run.stats["solves"] <= run.stats["rows"] < params.m * run.stats["solves"]
    assert 0.0 < stats["time_error"] < 1e-3


def test_extrapolated_roundoff_undershoot_is_clamped_and_counted(lift_half_pass):
    params = ApproxParams(R=10.0, eps=1e-3, m=251)
    plain = evolve(gaussian_spec(), params, 1.0, [0.0, 0.5, 1.0])
    lift_half_pass(0.1 * evolution.FLOOR_TOL)
    run = evolve(gaussian_spec(), params, 1.0, [0.0, 0.5, 1.0])
    assert run.values.min() == params.eps
    assert run.stats["clamps"] == plain.stats["clamps"] + len(run.times)


def test_extrapolated_undershoot_fails_closed(lift_half_pass):
    lift_half_pass(10.0 * evolution.FLOOR_TOL)
    with pytest.raises(SchemeError, match="extrapolated"):
        evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=251), 1.0, [0.0, 1.0])


def failing_steps(monkeypatch, failures):
    """Make the first ``failures`` calls of _Stepper.step raise SchemeError."""
    real_step = evolution._Stepper.step
    calls = []

    def step(self, u, dt):
        calls.append(dt)
        if len(calls) <= failures:
            raise SchemeError("undershoot")
        return real_step(self, u, dt)

    monkeypatch.setattr(evolution._Stepper, "step", step)
    return calls


def test_undershoot_retries_at_half_step(monkeypatch):
    failing_steps(monkeypatch, 1)
    run = evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=251), 1.0, [0.0, 1.0])
    assert run.stats["halvings"] == 1
    assert run.dts[0] == DT_INIT / 2
    assert run.times[-1] == 1.0


def test_failing_step_exhausts_the_retry_budget(monkeypatch):
    calls = failing_steps(monkeypatch, math.inf)
    with pytest.raises(SchemeError):
        evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=251), 1.0, [0.0, 1.0])
    assert len(calls) == MAX_REJECTIONS + 1


@pytest.fixture(scope="module")
def tol_runs():
    """One trajectory at evolution.PROXY_TOL = PROXY_TOL, PROXY_TOL/4 and PROXY_TOL/16."""
    spec = gaussian_spec()
    snaps = np.concatenate([[0.0], np.geomspace(0.1, 100.0, 33)])
    runs = []
    for tol in (PROXY_TOL, PROXY_TOL / 4, PROXY_TOL / 16):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evolution, "PROXY_TOL", tol)
            runs.append(evolve(spec, ApproxParams(R=20.0, eps=1e-3, m=1001), 100.0, snaps))
    return runs


def test_time_self_convergence(tol_runs):
    # the step control's error, measured: quartering tol must move the
    # sup-norm series by less than the rate verdicts' slack
    a, b = (run.series["sup_norm"] for run in tol_runs[:2])
    assert np.max(np.abs(a - b) / b) < RATIO_SLACK


def test_time_error_is_first_order(tol_runs):
    # the time error max|E3 - E2| estimates the error of E2 = 2 * half - full,
    # which is second order in dt, and dt scales as tol^(1/2): so it is first
    # order in tol, and quartering tol quarters it (measured 3.61 and 3.79 on
    # the largest snapshot error relative to its own sup)
    errors = [run.stats["time_error"] for run in tol_runs]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.2 <= coarse / fine <= 4.8


def test_extrapolation_is_second_order(tol_runs):
    # the extrapolated series converges at least at second order: each
    # quartering of tol moves it at least 3 times less than the one before
    # (about 8 at third order in dt; measured 6.9)
    a, b, c = (run.series["sup_norm"] for run in tol_runs)
    assert np.max(np.abs(b - c)) * 3.0 <= np.max(np.abs(a - b))


def test_evolve_maximum_principle_and_floor():
    spec = gaussian_spec()
    params = ApproxParams(R=10.0, eps=1e-2, m=251)
    run = evolve(spec, params, 5.0, np.linspace(0.0, 5.0, 6))
    assert run.values.min() >= params.eps - 1e-12
    assert run.values.max() <= run.values[0].max() + 1e-12


def test_evolve_preserves_radial_monotonicity():
    spec = gaussian_spec(n=3)
    params = ApproxParams(R=10.0, eps=1e-3, m=251)
    run = evolve(spec, params, 3.0, np.geomspace(0.1, 3.0, 6))
    assert np.all(np.diff(run.values, axis=1) <= 1e-12)


def test_discrete_comparison_on_random_monotone_pairs(rng):
    # ordered initial data stay ordered under a shared time discretization
    grid_m, R = 101, 5.0
    r = np.linspace(0.0, R, grid_m)
    snaps = [0.0, 0.2, 0.5, 1.0]
    for _ in range(5):
        low_steps = np.sort(rng.uniform(0.0, 0.3, grid_m))[::-1]
        bump = np.sort(rng.uniform(0.0, 0.4, grid_m))[::-1]
        u_low = np.interp(r, r, low_steps)
        u_high = u_low + bump
        spec_hi = ProblemSpec(1.0, 1, lambda rr: np.interp(rr, r, u_high))
        spec_lo = ProblemSpec(1.0, 1, lambda rr: np.interp(rr, r, u_low))
        params = ApproxParams(R=R, eps=1e-3, m=grid_m)
        hi = evolve(spec_hi, params, 1.0, snaps)
        lo = evolve(spec_lo, params, 1.0, snaps, dt_schedule=hi.dts)
        assert np.all(hi.values >= lo.values - 1e-10)


KNOT_RADII = np.linspace(0.0, 4.0, 6)


@settings(max_examples=30)
@given(low=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
       bump=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
       p=st.sampled_from([1.0, 2.0, 4.0]), n=st.sampled_from([1, 2, 3]))
def test_comparison_principle_under_controlled_schedule(low, bump, p, n):
    # ordered, radially nonincreasing data stay ordered when the lower datum
    # replays the step sequence the controller chose for the higher one
    low_k = np.sort(low)[::-1]
    high_k = low_k + np.sort(bump)[::-1]
    params = ApproxParams(R=4.0, eps=1e-3, m=41)
    snaps = [0.0, 0.1, 0.5, 1.0]
    hi = evolve(ProblemSpec(p, n, lambda r: np.interp(r, KNOT_RADII, high_k)),
                params, 1.0, snaps)
    lo = evolve(ProblemSpec(p, n, lambda r: np.interp(r, KNOT_RADII, low_k)),
                params, 1.0, snaps, dt_schedule=hi.dts)
    assert np.all(lo.values <= hi.values + 1e-10)


def test_epsilon_ordering_of_paired_runs():
    spec = gaussian_spec()
    snaps = [0.0, 0.5, 1.0, 3.0]
    big = evolve(spec, ApproxParams(R=10.0, eps=0.1, m=251), 3.0, snaps)
    small = evolve(spec, ApproxParams(R=10.0, eps=0.01, m=251), 3.0, snaps,
                   dt_schedule=big.dts)
    assert np.all(big.values >= small.values - 1e-12)


def test_ladder_monotone_and_cauchy():
    spec = ProblemSpec(p=4.0, n=1, u0=lambda r: 2.0 * np.exp(-(r / 2.0) ** 2))
    snaps = np.concatenate([[0.0], np.geomspace(1.0, 20.0, 7)])
    ladder = minimal_solution_ladder(spec, [1e-2, 1e-3], [10.0, 20.0], 501, 20.0, snaps)
    assert ladder.eps_violation <= 1e-8
    assert ladder.R_violation <= 1e-8
    assert ladder.proxy.params.eps == 1e-3
    assert ladder.proxy.params.R == 20.0
    report = ladder.report()
    assert len(report["eps_cauchy_sup_reldiff"]) == 1
    assert report["eps_cauchy_sup_reldiff"][0] < 0.05


@pytest.mark.parametrize("eps_list, R_list",
                         [([1e-2, 1e-3], [20.0]), ([1e-3], [10.0, 20.0]),
                          ([1e-2, 1e-3, 1e-4], [20.0]), ([1e-3], [20.0])],
                         ids=["two_eps", "two_R", "three_eps", "one_member"])
def test_ladder_proxy_is_its_members_own_run(eps_list, R_list, monkeypatch):
    # the proxy is the one run the ladder asks of the module's evolve, that of
    # the (min eps, max R) member on its own adaptive pass at PROXY_TOL; its
    # pass in thirds is that member's row in the ladder's ordering and Cauchy
    # checks, and every other member replays the proxy's steps in thirds.  The
    # R = 10 member of two_R runs too: its datum differs from the R = 20 one's
    # on the shared nodes and the windows pass r = 10.  A ladder of one member
    # has the proxy's passes alone, and its members row is the proxy's
    # extrapolated snapshots
    calls = []
    monkeypatch.setattr(evolution, "evolve",
                        lambda *args, **kwargs: calls.append(args[1]) or evolve(*args, **kwargs))
    spec = ProblemSpec(p=4.0, n=1, u0=lambda r: 2.0 * np.exp(-(r / 2.0) ** 2))
    snaps = np.concatenate([[0.0], np.geomspace(1.0, 20.0, 7)])
    obs = {"lq_1": observer_lq(1.0)}
    ladder = minimal_solution_ladder(spec, eps_list, R_list, 501, 20.0, snaps, obs)
    proxy_params = ApproxParams(R=20.0, eps=eps_list[-1], m=501)
    assert calls == [proxy_params]
    ref = evolve(spec, proxy_params, 20.0, snaps, obs)
    proxy = ladder.proxy
    assert proxy.params == ref.params
    assert np.array_equal(proxy.times, ref.times)
    assert np.array_equal(proxy.values, ref.values)
    assert proxy.series.keys() == ref.series.keys()
    assert all(np.array_equal(proxy.series[k], ref.series[k]) for k in ref.series)
    assert np.array_equal(proxy.second_order_sup, ref.second_order_sup)
    assert np.array_equal(proxy.dts, ref.dts)
    assert proxy.stats == ref.stats
    assert np.array_equal(proxy.third_pass.rows, ref.third_pass.rows)

    proxy_key = (eps_list[-1], 20.0)
    if len(ladder.members) == 1:
        assert ladder.members[proxy_key] is proxy.values
        assert ladder.solves == ref.stats["solves"]
        assert ladder.rows == ref.stats["rows"]
        return
    # bit for bit, every member's row is its own pass on the proxy's steps in
    # thirds, and the proxy's member's row is the proxy's own pass in thirds
    own = {key: evolution._be_pass(spec, par, proxy.times, proxy.dts, halves=3)
           for key, par in evolution.ladder_params(eps_list, R_list, 501).items()}
    for key, member in own.items():
        assert np.array_equal(ladder.members[key], member.rows), key
    assert ladder.members[proxy_key] is proxy.third_pass.rows
    # the proxy's three passes (6 solves a step) with its retries, and three
    # solves a step for every other member
    replayed = (len(ladder.members) - 1) * 3 * proxy.dts.size
    assert ladder.solves == ref.stats["solves"] + replayed
    # and the rows of those solves, which the members' windows make fewer
    # than m each
    assert ladder.rows == ref.stats["rows"] + sum(member.stepper.rows for key, member
                                                  in own.items() if key != proxy_key)
    assert ladder.rows < 501 * ladder.solves
    assert ref.stats["solves"] == (6 * ref.dts.size + ref.stats["rejected"]
                                   + ref.stats["halvings"])


def test_ladder_single_member_trivial():
    spec = gaussian_spec()
    snaps = [0.0, 1.0]
    ladder = minimal_solution_ladder(spec, [1e-2], [5.0], 101, 1.0, snaps)
    assert ladder.eps_cauchy == [] and ladder.R_cauchy == []
    assert (1e-2, 5.0) in ladder.members


def test_ladder_input_validation(monkeypatch):
    spec = gaussian_spec()
    with pytest.raises(InputError):
        minimal_solution_ladder(spec, [1e-3, 1e-2], [5.0], 101, 1.0, [1.0])
    with pytest.raises(InputError):
        minimal_solution_ladder(spec, [1e-2], [10.0, 5.0], 101, 1.0, [1.0])
    for eps_list, R_list in (([], [5.0]), ([1e-2], [])):
        with pytest.raises(InputError, match="non-empty"):
            minimal_solution_ladder(spec, eps_list, R_list, 101, 1.0, [1.0])
    with pytest.raises(InputError, match="whole number of spacings"):
        # spacing 10/7: the radius 5 is 3.5 spacings
        minimal_solution_ladder(spec, [1e-2], [5.0, 10.0], 8, 1.0, [1.0])
    with pytest.raises(InputError, match="at least 2"):
        # spacing 1: the radius 1 is a grid of 2 nodes
        minimal_solution_ladder(spec, [1e-2], [1.0, 10.0], 11, 1.0, [1.0])

    def no_pass(*args, **kwargs):
        raise AssertionError("a ladder member stepped before every member was checked")

    monkeypatch.setattr(evolution, "_be_pass", no_pass)
    with pytest.raises(InputError, match="eps must lie in"):
        minimal_solution_ladder(spec, [1e-2, -1.0], [5.0], 101, 1.0, [1.0])
    # a ladder of more than one member whose snapshots all lie before
    # CAUCHY_T_MIN has no Cauchy difference to take; it used to fail on an
    # empty reduction after all of its time stepping
    for eps_list, R_list in (([1e-2, 1e-3], [5.0]), ([1e-2], [2.5, 5.0])):
        with pytest.raises(InputError, match="before CAUCHY_T_MIN = 1"):
            minimal_solution_ladder(spec, eps_list, R_list, 101, 0.5, [0.1, 0.3])


def test_lyapunov_series_descends_for_log_gauge():
    spec = gaussian_spec()
    params = ApproxParams(R=10.0, eps=1e-3, m=251)
    run = evolve(spec, params, 20.0, np.concatenate([[0.0], np.geomspace(0.5, 20.0, 12)]))
    L = SteepnessFunction.log_type(2.0, 4.0)
    series = lyapunov_series(run, L, 1.0)
    assert series.shape == run.times.shape
    assert np.all(np.diff(series) <= 1e-8 * (1.0 + np.abs(series[:-1])))


def test_lyapunov_series_power_gauge():
    # power gauges with r >= 1 descend as well: this is the L^r control
    spec = gaussian_spec()
    params = ApproxParams(R=10.0, eps=1e-3, m=251)
    run = evolve(spec, params, 10.0, np.concatenate([[0.0], np.geomspace(0.5, 10.0, 8)]))
    L = SteepnessFunction.power_law(1.0)
    series = lyapunov_series(run, L, 1.0)
    assert np.all(np.diff(series) <= 1e-8 * (1.0 + np.abs(series[:-1])))


def test_lyapunov_series_constant_for_stationary_run():
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: np.zeros_like(r))
    params = ApproxParams(R=5.0, eps=0.1, m=101)
    run = evolve(spec, params, 2.0, [0.0, 1.0, 2.0])
    L = SteepnessFunction.log_type(2.0, 4.0)
    series = lyapunov_series(run, L, 1.0)
    assert np.max(np.abs(series - series[0])) < 1e-12


def test_lyapunov_preconditions():
    spec = gaussian_spec()
    params = ApproxParams(R=5.0, eps=1e-3, m=101)
    run = evolve(spec, params, 1.0, [0.0, 1.0])
    # sup u0 = 1 + eps exceeds s0 = 1/2 for M = 1... use M=2 to violate level
    L_small = SteepnessFunction.log_type(2.0, 2.0)
    with pytest.raises(InputError):
        lyapunov_series(run, L_small, 1.0)
    # the datum is the snapshot at t = 0; a run without one has none
    late = evolve(spec, params, 1.0, [0.5, 1.0])
    with pytest.raises(InputError, match="not at t = 0"):
        lyapunov_series(late, SteepnessFunction.log_type(2.0, 4.0), 1.0)
    # the descent condition implies the one for (p, q) only at q > 0
    with pytest.raises(InputError, match="q > 0 required, got 0.0"):
        lyapunov_series(run, SteepnessFunction.log_type(2.0, 4.0), 0.0)


def test_semiconvexity_stationary_run():
    spec = ProblemSpec(p=2.0, n=1, u0=lambda r: np.zeros_like(r))
    params = ApproxParams(R=5.0, eps=0.1, m=101)
    run = evolve(spec, params, 4.0, [1.0, 2.0, 4.0])
    # u_t = 0, so the check reduces to min over pairs of 1/(p t), attained at
    # the start of the last snapshot pair
    assert semiconvexity_check(run) == pytest.approx(1.0 / (2.0 * 2.0), rel=1e-12)


def test_semiconvexity_gaussian_run():
    run = evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=251), 20.0,
                 np.concatenate([[0.0], np.geomspace(0.2, 20.0, 12)]))
    assert semiconvexity_check(run) >= -0.05


def test_semiconvexity_improves_under_refinement(monkeypatch):
    snaps = np.concatenate([[0.0], np.geomspace(0.2, 10.0, 10)])
    coarse = evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=126), 10.0, snaps)
    monkeypatch.setattr(evolution, "PROXY_TOL", PROXY_TOL / 4)
    fine = evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=501), 10.0, snaps)
    m_c = semiconvexity_check(coarse)
    m_f = semiconvexity_check(fine)
    assert max(0.0, -m_f) <= max(0.0, -m_c) + 1e-9


def test_linfty_from_lq_bound():
    # n=2 surface factor sanity plus the bound itself on a gaussian run
    assert RadialGrid(2, 1.0, 3).omega_n == pytest.approx(2.0 * math.pi)
    run = evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=251), 20.0,
                 np.concatenate([[0.0], np.geomspace(1.0, 20.0, 10)]))
    worst, worst_t = linfty_from_lq_check(run, 1.0)
    assert worst <= 1.0 + 1e-6
    assert worst_t > 0


def test_run_checks_match_per_snapshot_loops():
    # reference: the per-snapshot loops the array forms replaced
    run = evolve(gaussian_spec(p=2.0, n=2), ApproxParams(R=10.0, eps=1e-3, m=251), 5.0,
                 np.concatenate([[0.0], np.geomspace(0.2, 5.0, 8)]))
    t, u = run.times, run.values
    semi = min(float(((u[k + 1] - u[k]) / (t[k + 1] - t[k]) / u[k]).min()) + 1.0 / (2.0 * t[k])
               for k in range(1, len(t) - 1))
    assert semiconvexity_check(run) == semi
    expo = 2.0 / (2 * 2.0 + 2.0)
    const = (2.0 ** (1.0 + 2 * 1.0 / 2.0) * 2 / (2.0 * 2.0 * math.pi)) ** expo
    ratios = [u[k].max() / (const * t[k] ** (-expo)
                            * lq_quasinorm(run.grid, u[k], 1.0) ** expo)
              for k in range(1, len(t))]
    worst, worst_t = linfty_from_lq_check(run, 1.0)
    assert worst == pytest.approx(max(ratios), rel=1e-14)
    assert worst_t == t[1 + int(np.argmax(ratios))]
