import math

import numpy as np
import pytest

from decaylab.bounds import DecayEnvelope
from decaylab.errors import InputError
from decaylab.evolution import ApproxParams, EvolutionRun, ProblemSpec
from decaylab.radial import RadialGrid
from decaylab.rates import (GAUGE_M, baseline_check, baseline_tail, fit_decay,
                            lower_bound_persistence, rate_model, rate_window,
                            sandwich_report, upper_bound_check)
from decaylab.steepness import SteepnessFunction

T = np.geomspace(10.0, 1e4, 200)


def synthetic_run(times, sup, p=1.0, n=1, second_order_sup=None):
    """A run whose sup-norm series is ``sup`` and its second-order sup series
    ``second_order_sup`` (``sup`` when None)."""
    spec = ProblemSpec(p=p, n=n, u0=lambda r: np.exp(-r**2))
    grid = RadialGrid(n, 10.0, 11)
    return EvolutionRun(spec, ApproxParams(R=10.0, eps=1e-5, m=11), grid,
                        np.asarray(times), np.zeros((len(times), grid.m)),
                        {"sup_norm": np.asarray(sup)}, np.empty(0),
                        second_order_sup=np.asarray(sup if second_order_sup is None
                                                    else second_order_sup))


def test_fit_recovers_log_model_exactly():
    v = T**-1.0 * np.log(T)
    fit = fit_decay(T, v, 1.0, "LogCorrected")
    assert fit.sigma == pytest.approx(1.0, abs=1e-6)
    assert fit.C_fit == pytest.approx(1.0, rel=1e-9)
    assert fit.rms_residual < 1e-12


def test_fit_recovers_loglog_model_exactly():
    v = 5.0 * T**-0.5 * np.log(np.log(T)) ** 3
    fit = fit_decay(T, v, 2.0, "LogLogCorrected")
    assert fit.sigma == pytest.approx(3.0, abs=1e-6)
    assert fit.C_fit == pytest.approx(5.0, rel=1e-9)


def test_fit_rescale_invariance():
    v = T**-1.0 * np.log(T) ** 1.3
    f1 = fit_decay(T, v, 1.0, "LogCorrected")
    f2 = fit_decay(T, 42.0 * v, 1.0, "LogCorrected")
    assert f2.sigma == pytest.approx(f1.sigma, abs=1e-12)
    assert f2.C_fit / f1.C_fit == pytest.approx(42.0, rel=1e-9)


def test_rate_window_refusals():
    assert np.array_equal(rate_window(T, (50.0, None), "LogCorrected"), T >= 50.0)
    with pytest.raises(InputError, match="decades"):
        rate_window(T, (10.0, 100.0), "LogCorrected")
    with pytest.raises(InputError, match="unknown model"):
        rate_window(T, (10.0, None), "NoSuchModel")
    with pytest.raises(InputError, match="fewer than 3"):
        rate_window(T, (10.0, 10.5), "LogCorrected")
    # ln ln t needs t > 1, and ln ln ln t needs t > e
    early = np.geomspace(0.5, 1e4, 50)
    with pytest.raises(InputError, match="start above t = 1"):
        rate_window(early, (0.5, None), "LogCorrected")
    assert rate_window(early, (2.0, None), "LogCorrected").sum() > 3
    with pytest.raises(InputError, match="start above t = 2.71828"):
        rate_window(early, (2.0, None), "LogLogCorrected")
    for times in (T[::-1], np.concatenate([T[:5], T[4:]])):
        with pytest.raises(InputError, match="strictly increasing"):
            rate_window(times, (10.0, None), "LogCorrected")
    # the fit takes the window's arrays and still refuses what it cannot fit
    v = T**-1.0 * np.log(T)
    with pytest.raises(InputError, match="unknown model"):
        fit_decay(T, v, 1.0, "NoSuchModel")
    with pytest.raises(InputError, match="positive"):
        fit_decay(T, -v, 1.0, "LogCorrected")


def test_upper_bound_exact_curve_and_faster_decay():
    L = SteepnessFunction.log_type(0.75, 4.0)
    curve = T**-1.0 * L.value(1.0 / T) ** -2.0
    exact = upper_bound_check(T, 3.0 * curve, L, 1.0, 1)
    assert exact.worst_ratio == pytest.approx(1.0, rel=1e-12)
    assert exact.passed
    faster = upper_bound_check(T, T**-2.0, L, 1.0, 1)
    assert faster.worst_ratio < 1.0
    slower = upper_bound_check(T, T**-0.5, L, 1.0, 1)
    assert not slower.passed


def test_upper_bound_power_law_gauge_reduces_to_power_check():
    # L = s^r makes the curve C t^{-1/p + 2r/(np)}: exponent arithmetic check
    L = SteepnessFunction.power_law(1.0)
    p, n = 1.0, 2
    expo = -1.0 / p + 2.0 * 1.0 / (n * p)
    series = 4.0 * T**expo
    chk = upper_bound_check(T, series, L, p, n)
    assert chk.worst_ratio == pytest.approx(1.0, rel=1e-12)


def test_baseline_trivial_examples():
    good = baseline_check(T, T**-1.0 * np.log(T), 1.0)
    assert good.envelope_passed and good.increasing_tail and good.passed
    bad = baseline_check(T, T**-1.0 / np.log(T), 1.0)
    assert not bad.increasing_tail
    assert not bad.passed
    gross = baseline_check(T, T**-0.5, 1.0)
    assert not gross.envelope_passed


def test_baseline_tail_needs_two_snapshots():
    # the tail check is vacuous on one snapshot, so a window whose last
    # decade holds fewer than two is refused
    t = np.array([39.8, 631.0, 1e4])
    with pytest.raises(InputError, match=r"last decade \[1000, 10000\] holds 1 snapshot"):
        baseline_tail(t)
    with pytest.raises(InputError, match="last decade"):
        baseline_check(t, t**-1.0, 1.0)
    assert baseline_tail(np.array([39.8, 631.0, 2e3, 1e4])).tolist() == [False, False,
                                                                          True, True]


def test_sandwich_report_on_exact_model():
    # sigma = 1.2 sits between the lower target 2/(p beta) = 1 and the upper
    # gauge exponent 2 kappa/(np) = 1.9 from delta = 0.9
    sup = T**-1.0 * np.log(T) ** 1.2
    run = synthetic_run(T, sup)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    verdict = sandwich_report(run, env, delta=0.9, window=(10.0, 1e4))
    assert verdict.fit.sigma == pytest.approx(1.2, abs=1e-6)
    assert verdict.sigma_window == (0.9, 2.0)
    assert verdict.sigma_time_term == 0.0
    assert verdict.upper.passed and verdict.lower.passed and verdict.passed
    doc = verdict.to_json()
    assert doc["pass"] and doc["fit"]["sigma"] == pytest.approx(1.2, abs=1e-6)


@pytest.mark.parametrize("be_sigma, passes", [(1.2, True), (1.0, True), (0.8, False),
                                              (1.5, True), (2.1, False)])
def test_sandwich_report_fails_closed_on_the_time_term(be_sigma, passes):
    # sigma = 1.2 in the window [0.9, 2.0]; its time term is |sigma - sigma_BE|,
    # and sigma plus or minus it must lie in the window too: 0.8 puts the
    # interval's lower end at 0.8, 2.1 its upper end at 2.1
    run = synthetic_run(T, T**-1.0 * np.log(T) ** 1.2,
                        second_order_sup=T**-1.0 * np.log(T) ** be_sigma)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    verdict = sandwich_report(run, env, delta=0.9, window=(10.0, 5e3))
    assert verdict.sigma_time_term == pytest.approx(abs(1.2 - be_sigma), abs=1e-9)
    assert verdict.upper.passed and verdict.lower.passed
    assert verdict.sigma_ok is verdict.passed is passes


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("kind", ["StretchedExp", "DoubleExp"])
def test_rate_model_derives_the_gauge(kind, p, n):
    # kappa = n/shape + n p delta/2 with shape beta or gamma, so the upper
    # exponent 2 kappa/(np) is the sharp 2/(p shape) plus delta
    env = DecayEnvelope(kind=kind, c0=1.0, alpha=1.0, beta=1.5, gamma=0.75)
    delta = 0.3
    shape, model, L = rate_model(env, p, n, delta)
    expected = {"StretchedExp": (1.5, "LogCorrected", "LogType"),
                "DoubleExp": (0.75, "LogLogCorrected", "DoubleLogType")}[kind]
    assert (shape, model, L.kind) == expected
    assert L.kappa == n / shape + n * p * delta / 2.0
    assert L.M == GAUGE_M == 4.0
    assert 2.0 * L.kappa / (n * p) == pytest.approx(2.0 / (p * shape) + delta, abs=1e-12)


def test_rate_model_rejects_nonpositive_delta():
    # delta <= 0 puts kappa at or below n/beta, where the integral of L(u0)
    # diverges and the upper bound has no hypothesis
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    for delta in (0.0, -0.5):
        with pytest.raises(InputError, match="delta must be positive"):
            rate_model(env, 1.0, 1, delta)
    run = synthetic_run(T, T**-1.0 * np.log(T), second_order_sup=T**-1.0)
    with pytest.raises(InputError, match="delta must be positive"):
        sandwich_report(run, env, delta=0.0, window=(10.0, None))


def test_sandwich_report_flags_out_of_window_exponent():
    # much faster logarithmic growth than the envelope admits
    run = synthetic_run(T, T**-1.0 * np.log(T) ** 3.0)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    verdict = sandwich_report(run, env, delta=0.9, window=(10.0, 1e4))
    assert not verdict.sigma_ok
    assert not verdict.passed


def test_lower_persistence_on_synthetic_data():
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    # measured decays slower than the lower curve: inequality persists
    v = T**-1.0 * np.log(T) ** 1.3
    chk = lower_bound_persistence(T, v, env, 1.0)
    assert chk.passed
    # measured decaying strictly faster than the lower curve must fail
    v_bad = T**-1.0 * np.log(T) ** 0.3
    chk_bad = lower_bound_persistence(T, v_bad, env, 1.0)
    assert not chk_bad.passed
