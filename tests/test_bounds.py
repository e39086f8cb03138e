import math

import numpy as np
import pytest

from decaylab.bounds import (DecayEnvelope, build_subsolution, compensated_frame,
                             evaluate_steady_state, logistic_exact,
                             logistic_residual, lower_bound_curve,
                             solve_steady_state, steady_state_residual,
                             subsolution_check)
from decaylab.errors import InputError
from decaylab.evolution import ApproxParams, ProblemSpec, evolve


@pytest.mark.parametrize("n", [1, 2, 3])
def test_steady_state_poisson_oracle(n):
    # p = 1 turns the problem into -Lap(w) = 1, solved by (1 - r^2)/(2n)
    state = solve_steady_state(1.0, n, 4001)
    exact = (1.0 - state.r_nodes**2) / (2.0 * n)
    assert np.max(np.abs(state.w - exact)) < 1e-6
    assert state.center_value == pytest.approx(1.0 / (2.0 * n), abs=1e-10)
    assert steady_state_residual(state) < 1e-8
    assert state.sign_changes == 1


def test_steady_state_degenerate_touchdown():
    state = solve_steady_state(2.0, 1, 4001)
    assert np.all(np.diff(state.w) <= 1e-12)        # symmetric decreasing
    assert state.w[0] > 0 and state.boundary_value < 1e-4
    assert steady_state_residual(state) < 1e-8


def test_steady_state_bracket_error():
    with pytest.raises(InputError):
        solve_steady_state(1.0, 1, 501, bracket=(5.0, 50.0))


def test_evaluate_steady_state_interpolation():
    state = solve_steady_state(1.0, 1, 2001)
    r = np.array([0.0, 0.5, 1.2, 4.0])
    vals = evaluate_steady_state(state, 2.0, r)
    exact = np.where(r <= 2.0, 4.0 * (1.0 - (r / 2.0) ** 2) / 2.0, 0.0)
    np.testing.assert_allclose(vals, exact, atol=1e-7)


def test_logistic_fixed_point_and_initial_value():
    taus = np.array([0.0, 0.5, 3.0, 40.0])
    np.testing.assert_allclose(logistic_exact(taus, 1.0, 3.0), 1.0, atol=0)
    assert logistic_exact(0.0, 0.37, 2.0) == pytest.approx(0.37, rel=1e-15)


def test_logistic_monotone_toward_one():
    taus = np.geomspace(1e-3, 30.0, 200)
    rising = logistic_exact(taus, 0.2, 1.0)
    falling = logistic_exact(taus, 5.0, 2.0)
    assert np.all(np.diff(rising) > 0) and rising[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(falling) < 0) and falling[-1] == pytest.approx(1.0, abs=1e-9)


def test_logistic_residual_small_on_uniform_grid():
    # the mild case from the contract: p=1, delta=0.5, tau step 1e-3
    assert logistic_residual(np.arange(0.0, 10.0, 1e-3), 0.5, 1.0) < 1e-6


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("delta", [0.1, 1.0, 10.0])
def test_logistic_residual_all_regimes(p, delta):
    # geometric grid resolves the stiff initial transient of large delta
    grid = np.unique(np.concatenate([[0.0], np.geomspace(1e-5, 10.0, 46000)]))
    assert logistic_residual(grid, delta, p) < 1e-6


def test_envelope_stretched_exp():
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    assert env.lam(2.0) == pytest.approx(4.0)
    assert env.lam_inv(4.0) == pytest.approx(2.0)
    assert env.floor(1.0) == pytest.approx(math.exp(-1.0))


def test_envelope_double_exp_inverse():
    env = DecayEnvelope(kind="DoubleExp", c0=1.0, alpha=2.0, beta=1.0, gamma=1.0)
    sigma = env.lam(3.0)
    assert env.lam_inv(sigma) == pytest.approx(3.0, rel=1e-12)


def test_compensated_frame_roundtrip_and_growth():
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: np.exp(-r**2))
    run = evolve(spec, ApproxParams(R=10.0, eps=1e-4, m=251), 50.0,
                 np.concatenate([[0.0], np.geomspace(0.5, 50.0, 10)]))
    frame = compensated_frame(run)
    # z = (t+1)^{1/p} u reverses to machine precision
    k = 5
    back = frame.profiles[k].values / (run.times[k] + 1.0)
    np.testing.assert_allclose(back, run.profiles[k].values, rtol=1e-15)
    # compensated sup grows once the decay sets in
    assert frame.sup_series[-1] > frame.sup_series[1]


def test_compensated_frame_constant_profile_formula():
    spec = ProblemSpec(p=2.0, n=1, u0=lambda r: np.zeros_like(r))
    run = evolve(spec, ApproxParams(R=5.0, eps=0.25, m=101), 3.0, [0.0, 1.0, 3.0])
    frame = compensated_frame(run)
    np.testing.assert_allclose(frame.sup_series,
                               0.25 * (run.times + 1.0) ** 0.5, rtol=1e-12)


def test_lower_bound_curve_specializations():
    t = np.geomspace(10.0, 1e4, 30)
    # stretched exponential, beta=2, p=1: curve = C t^-1 (c1 ln t)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    np.testing.assert_allclose(lower_bound_curve(env, 1.0, 0.5, 2.0, t),
                               2.0 * t**-1.0 * (0.5 * np.log(t)), rtol=1e-12)
    # doubly exponential, gamma=1, p=1: curve = C t^-1 ln(c1 ln t)^2
    envd = DecayEnvelope(kind="DoubleExp", c0=1.0, alpha=1.0, beta=1.0, gamma=1.0)
    td = np.geomspace(100.0, 1e4, 10)
    np.testing.assert_allclose(lower_bound_curve(envd, 1.0, 0.5, 1.0, td),
                               td**-1.0 * np.log(0.5 * np.log(td)) ** 2, rtol=1e-12)
    with pytest.raises(InputError):
        lower_bound_curve(env, 1.0, 1.0, 1.0, t)  # p c1 >= 1


def test_subsolution_boundary_and_initial_structure():
    state = solve_steady_state(1.0, 1, 2001)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    spec = build_subsolution(env, 1.0, state, tau0=3.0)
    assert spec.c1 == 0.5
    assert spec.R_tau0 == pytest.approx(math.sqrt(1.5))
    assert spec.c3 == pytest.approx(1.0 / state.w.max())
    # the comparison profile vanishes at the ball boundary
    assert evaluate_steady_state(state, spec.R_tau0, spec.R_tau0) == pytest.approx(0.0, abs=1e-12)
    # and starts strictly below the envelope floor inside
    r = np.linspace(0.0, spec.R_tau0, 50)
    zbar0 = spec.delta * evaluate_steady_state(state, spec.R_tau0, r)
    assert np.all(zbar0 < env.floor(r))


def test_subsolution_check_margin_nonnegative():
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: np.exp(-r**2))
    run = evolve(spec, ApproxParams(R=15.0, eps=1e-4, m=376), 100.0,
                 np.concatenate([[0.0], np.geomspace(0.5, 100.0, 12)]))
    state = solve_steady_state(1.0, 1, 2001)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    sub = build_subsolution(env, 1.0, state, tau0=math.log(101.0))
    rep = subsolution_check(run, sub, state)
    assert rep.min_margin >= 0.0
    assert rep.initial_margin > 0.0
    assert not rep.resolution_warning
    assert rep.snapshots_checked == len(run.times)


def test_subsolution_check_resolution_warning():
    # the comparison ball exceeds half the truncation radius but stays inside
    # the cutoff-free region, so only the warning fires
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: np.exp(-(r / 4.0) ** 2))
    run = evolve(spec, ApproxParams(R=3.0, eps=1e-3, m=76), 1.0, [0.0, 1.0])
    state = solve_steady_state(1.0, 1, 1001)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0 / 16.0, beta=2.0)
    sub = build_subsolution(env, 1.0, state, tau0=0.7)
    assert run.grid.R / 2.0 < sub.R_tau0 < 0.9 * run.grid.R
    rep = subsolution_check(run, sub, state)
    assert rep.resolution_warning
    assert rep.min_margin >= 0.0


def test_subsolution_rejects_datum_below_floor():
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: 0.2 * np.exp(-r**2))
    run = evolve(spec, ApproxParams(R=10.0, eps=1e-4, m=251), 5.0, [0.0, 5.0])
    state = solve_steady_state(1.0, 1, 1001)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    sub = build_subsolution(env, 1.0, state, tau0=1.5)
    with pytest.raises(InputError):
        subsolution_check(run, sub, state)
