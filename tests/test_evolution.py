import math

import numpy as np
import pytest
import scipy.linalg

from decaylab.errors import InputError, LadderError, SchemeError
from decaylab.evolution import (ApproxParams, ProblemSpec, evolve,
                                linfty_from_lq_check, lyapunov_series,
                                minimal_solution_ladder, observer_lq,
                                semiconvexity_check)
from decaylab.radial import RadialGrid
from decaylab.steepness import SteepnessFunction


def gaussian_spec(p=1.0, n=1):
    return ProblemSpec(p=p, n=n, u0=lambda r: np.exp(-r**2))


def one_step(spec, params, dt=1e-3):
    """Initial and stepped profile of a single replayed step of size dt."""
    run = evolve(spec, params, dt, [0.0, dt], dt_schedule=np.array([dt]))
    return run.profiles[0].values, run.profiles[1].values


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


def test_linearized_heat_decay_rate():
    # p=1 on a flat background eps: u_t ~ eps * Lap(u'); a small mode decays
    # like exp(-eps * lambda1 * t) with lambda1 the discrete operator's lowest
    # Dirichlet/Neumann eigenvalue, computed independently below
    R, m, eps0, amp = 3.0, 301, 0.5, 1e-4
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: amp * np.cos(np.pi * r / (2 * R)))
    params = ApproxParams(R=R, eps=eps0, m=m, safety=0.25)
    run = evolve(spec, params, 2.0, np.linspace(0.25, 2.0, 8))
    amps = np.array([prof.values.max() - eps0 for prof in run.profiles])
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


def test_evolve_records_snapshots_and_series():
    spec = gaussian_spec()
    params = ApproxParams(R=10.0, eps=1e-3, m=251)
    snaps = [0.0, 0.5, 1.0, 2.0]
    run = evolve(spec, params, 2.0, snaps, observers={"lq1": observer_lq(1.0)})
    np.testing.assert_allclose(run.times, snaps)
    assert len(run.profiles) == 4
    assert set(run.series) == {"sup_norm", "center_value", "lq1"}
    assert np.all(np.diff(run.series["sup_norm"]) <= 0)


def test_evolve_maximum_principle_and_floor():
    spec = gaussian_spec()
    params = ApproxParams(R=10.0, eps=1e-2, m=251)
    run = evolve(spec, params, 5.0, np.linspace(0.0, 5.0, 6))
    top = run.profiles[0].values.max()
    for prof in run.profiles:
        assert prof.values.min() >= params.eps - 1e-12
        assert prof.values.max() <= top + 1e-12


def test_evolve_preserves_radial_monotonicity():
    spec = gaussian_spec(n=3)
    params = ApproxParams(R=10.0, eps=1e-3, m=251)
    run = evolve(spec, params, 3.0, np.geomspace(0.1, 3.0, 6))
    for prof in run.profiles:
        assert prof.is_nonincreasing(tol=1e-12)


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
        hi = evolve(spec_hi, params, 1.0, snaps, record_dts=True)
        lo = evolve(spec_lo, params, 1.0, snaps, dt_schedule=hi.dts)
        for ph, pl in zip(hi.profiles, lo.profiles):
            assert np.all(ph.values >= pl.values - 1e-10)


def test_epsilon_ordering_of_paired_runs():
    spec = gaussian_spec()
    snaps = [0.0, 0.5, 1.0, 3.0]
    big = evolve(spec, ApproxParams(R=10.0, eps=0.1, m=251), 3.0, snaps,
                 record_dts=True)
    small = evolve(spec, ApproxParams(R=10.0, eps=0.01, m=251), 3.0, snaps,
                   dt_schedule=big.dts)
    for pb, ps in zip(big.profiles, small.profiles):
        assert np.all(pb.values >= ps.values - 1e-12)


def test_ladder_monotone_and_cauchy():
    spec = ProblemSpec(p=4.0, n=1, u0=lambda r: 2.0 * np.exp(-(r / 2.0) ** 2))
    snaps = np.concatenate([[0.0], np.geomspace(1.0, 20.0, 7)])
    ladder = minimal_solution_ladder(spec, [1e-2, 1e-3], [10.0, 20.0],
                                     {10.0: 251, 20.0: 501}, 20.0, snaps)
    assert ladder.eps_violation <= 1e-8
    assert ladder.R_violation <= 1e-8
    assert ladder.proxy.params.eps == 1e-3
    assert ladder.proxy.params.R == 20.0
    report = ladder.report()
    assert len(report["eps_cauchy_sup_reldiff"]) == 1
    assert report["eps_cauchy_sup_reldiff"][0] < 0.05


def test_ladder_single_member_trivial():
    spec = gaussian_spec()
    snaps = [0.0, 1.0]
    ladder = minimal_solution_ladder(spec, [1e-2], [5.0], {5.0: 101}, 1.0, snaps)
    assert ladder.eps_cauchy == [] and ladder.R_cauchy == []
    assert (1e-2, 5.0) in ladder.runs


def test_ladder_input_validation():
    spec = gaussian_spec()
    with pytest.raises(InputError):
        minimal_solution_ladder(spec, [1e-3, 1e-2], [5.0], {5.0: 101}, 1.0, [1.0])
    with pytest.raises(InputError):
        minimal_solution_ladder(spec, [1e-2], [10.0, 5.0], {10.0: 201, 5.0: 101},
                                1.0, [1.0])
    with pytest.raises(InputError):
        # mismatched spacings
        minimal_solution_ladder(spec, [1e-2], [5.0, 10.0], {5.0: 101, 10.0: 101},
                                1.0, [1.0])


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


def test_semiconvexity_improves_under_refinement():
    snaps = np.concatenate([[0.0], np.geomspace(0.2, 10.0, 10)])
    coarse = evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=126), 10.0, snaps)
    fine = evolve(gaussian_spec(), ApproxParams(R=10.0, eps=1e-3, m=501, safety=0.25),
                  10.0, snaps)
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
