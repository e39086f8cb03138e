import math

import numpy as np
import pytest

from decaylab.errors import InputError
from decaylab.steepness import (SteepnessFunction, check_convexity_condition,
                                check_near_multiplicativity, check_ratio_bound,
                                solve_transcendental)

LOG1 = SteepnessFunction.log_type(1.0, 4.0)
LOG2 = SteepnessFunction.log_type(2.0, 4.0)
DLOG1 = SteepnessFunction.double_log_type(1.0, math.e**3, 1.0)


def test_log_type_values():
    # ln(M/s) = 1 at s = M/e
    assert LOG1.value(4.0 / math.e) == pytest.approx(1.0, rel=1e-14)
    # constant branch value 1/ln^2(2) above s0 = M/2
    assert LOG2.value(2.5) == pytest.approx(1.0 / math.log(2.0) ** 2, rel=1e-14)
    assert LOG2.value(2.0) == LOG2.value(100.0)
    assert LOG1.value(0.0) == 0.0
    assert DLOG1.value(0.0) == 0.0


def test_power_law_values():
    L = SteepnessFunction.power_law(2.0)
    assert L.value(3.0) == 9.0
    assert L.deriv1(5.0) == pytest.approx(10.0)
    L1 = SteepnessFunction.power_law(1.0)
    assert L1.deriv1(0.3) == 1.0


def test_log_deriv_closed_form():
    # at s = M/e the inner log equals 1, so L'(s) = kappa/s
    s = 4.0 / math.e
    assert LOG1.deriv1(s) == pytest.approx(math.e / 4.0, rel=1e-14)
    h = 1e-6
    fd = (LOG1.value(s + h) - LOG1.value(s - h)) / (2 * h)
    assert LOG1.deriv1(s) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("L", [SteepnessFunction.power_law(1.7), LOG1, LOG2,
                               DLOG1, SteepnessFunction.double_log_type(2.0, math.e**3)])
def test_derivs_match_finite_differences(L):
    s0 = min(L.s0, 10.0)
    s = np.geomspace(s0 * 1e-8, s0 * 0.9, 60)
    h = s * 1e-6
    fd1 = (L.value(s + h) - L.value(s - h)) / (2 * h)
    fd2 = (L.deriv1(s + h) - L.deriv1(s - h)) / (2 * h)
    assert np.max(np.abs(fd1 / L.deriv1(s) - 1.0)) < 1e-6
    assert np.max(np.abs(fd2 / L.deriv2(s) - 1.0)) < 1e-6


def test_deriv_domain_errors():
    with pytest.raises(InputError):
        LOG1.deriv1(0.0)
    with pytest.raises(InputError):
        LOG1.deriv1(2.0)  # s0 = M/2 = 2 is the branch point
    with pytest.raises(InputError):
        LOG1.value(-1.0)


def test_eval_nondecreasing_property(rng):
    for L in (LOG1, LOG2, DLOG1, SteepnessFunction.power_law(0.5)):
        hi = 10.0 * min(L.s0, 10.0)
        pairs = rng.uniform(0.0, hi, size=(10_000, 2))
        lo = pairs.min(axis=1)
        hi_ = pairs.max(axis=1)
        assert np.all(L.value(lo) <= L.value(hi_) + 1e-15)


def test_parameter_validation():
    with pytest.raises(InputError):
        SteepnessFunction.log_type(1.0, 1.5)  # M < 2
    with pytest.raises(InputError):
        SteepnessFunction.double_log_type(1.0, 2.0)  # M <= e
    with pytest.raises(InputError):
        SteepnessFunction.double_log_type(1.0, math.e**3, s0=0.5)  # s0 < 1
    with pytest.raises(InputError):
        SteepnessFunction.power_law(-1.0)


def test_near_multiplicativity_log_family():
    s = np.geomspace(1e-8, 1.999, 200)
    lam = np.linspace(1e-3, 0.999, 200)
    # kappa <= 1: a = kappa
    rep = check_near_multiplicativity(LOG1, 1.0, LOG1.a, s, lam)
    assert LOG1.a == 1.0
    assert rep.passed
    # kappa > 1: a = ((1+lambda0)^kappa - 1)/lambda0 = 3
    rep2 = check_near_multiplicativity(LOG2, 1.0, LOG2.a, s, lam)
    assert LOG2.a == 3.0
    assert rep2.passed


def test_near_multiplicativity_double_log():
    # smallest sufficient constant: kappa/ln(ln(M/s0)) in the concave regime
    assert DLOG1.a == pytest.approx(1.0 / math.log(3.0))
    s = np.geomspace(1e-8, 0.999, 200)
    lam = np.linspace(1e-3, 0.999, 200)
    rep = check_near_multiplicativity(DLOG1, 1.0, DLOG1.a, s, lam)
    assert rep.passed


def test_near_multiplicativity_misapplied_constant_fails():
    # using a = kappa for kappa = 2 ignores the convexity of (1+lambda)^2
    s = np.geomspace(1e-8, 1.999, 120)
    lam = np.linspace(1e-3, 0.999, 120)
    rep = check_near_multiplicativity(LOG2, 1.0, 2.0, s, lam)
    assert not rep.passed
    assert rep.worst_lambda > 0.5
    assert rep.max_violation > 0.1


def test_near_multiplicativity_input_errors():
    with pytest.raises(InputError):
        check_near_multiplicativity(LOG1, 1.0, 1.0, [], [0.5])
    with pytest.raises(InputError):
        check_near_multiplicativity(LOG1, 1.0, 1.0, [3.0], [0.5])  # s >= s0
    with pytest.raises(InputError):
        check_near_multiplicativity(LOG1, 1.0, 1.0, [0.5], [1.5])  # lam >= lambda0


def test_ratio_bound_log_type():
    # at s = e^-3: s L'/L = kappa/ln(M/s) = 1/(3 + ln 4)
    s = math.exp(-3.0)
    lhs = s * LOG1.deriv1(s) / LOG1.value(s)
    assert lhs == pytest.approx(1.0 / (3.0 + math.log(4.0)), rel=1e-12)
    assert lhs < 1.0 / 3.0
    rep = check_ratio_bound(LOG1, 1.0, np.geomspace(1e-10, 0.999, 300))
    assert rep.passed


def test_ratio_bound_power_law_fails():
    # s L'/L = r identically, while the bound a/ln(1/s) vanishes as s -> 0
    L = SteepnessFunction.power_law(1.0)
    rep = check_ratio_bound(L, 1.0, np.geomspace(1e-6, 0.9, 100))
    assert not rep.passed
    assert rep.worst_s < math.exp(-1.0)


def test_ratio_bound_rejects_points_at_or_above_one():
    with pytest.raises(InputError):
        check_ratio_bound(LOG1, 1.0, np.array([0.5, 1.0]))


def test_ratio_bound_judges_a_steep_gauge():
    # kappa = 1000 gives a = 2^1000 - 1, and a / ln(1/s) overflows near s = 1;
    # the violation s L'/L * ln(1/s) / a - 1 stays finite, and s L'/L <= 721
    # is far below a / ln(1/s) (a RuntimeWarning fails this test)
    L = SteepnessFunction.log_type(1000.0, 4.0)
    assert L.a == 2.0 ** 1000 - 1.0
    s = np.geomspace(1e-8, 1.0 - 1e-9, 400)
    rep = check_ratio_bound(L, L.a, s)
    assert rep.passed and rep.max_violation == -1.0


def test_ratio_bound_follows_from_near_multiplicativity():
    # every construction passing the product condition also passes the bound
    grid = np.geomspace(1e-9, 0.99, 400)
    for L in (LOG1, LOG2, DLOG1):
        assert check_ratio_bound(L, L.a, grid).passed


def test_convexity_condition():
    # threshold coefficient (3p + q0 - 2)/(p + q0) = 1 at p = q0 = 1
    assert (3 * 1 + 1 - 2) / (1 + 1) == 1.0
    s = np.geomspace(1e-8, 1.999, 400)
    for L in (LOG1, LOG2, SteepnessFunction.log_type(0.5, 4.0)):
        rep = check_convexity_condition(L, 1.0, 1.0, s)
        assert rep.strong.passed and rep.weak.passed
    sd = np.geomspace(1e-8, 0.999, 400)
    rep = check_convexity_condition(DLOG1, 1.0, 1.0, sd)
    assert rep.passed
    with pytest.raises(InputError):
        check_convexity_condition(LOG1, 0.5, 1.0, s)


def audit_grid(L):
    """The s grid of the CLI's lfunction_audit mode."""
    return np.geomspace(min(L.s0, 1.0) * 1e-8, min(L.s0, 1e6) * (1.0 - 1e-9), 400)


@pytest.mark.parametrize("L, p, q0", [
    (LOG1, 1.0, 1.0), (LOG2, 2.0, 0.5), (SteepnessFunction.log_type(0.5, 4.0), 1.0, 3.0),
    (DLOG1, 1.0, 1.0), (SteepnessFunction.power_law(0.5), 1.5, 1.0),
    (SteepnessFunction.power_law(2.5), 1.0, 1.0)])
def test_convexity_closed_form_matches_the_derivatives(L, p, q0):
    # where L' and L'' are normal numbers, s L''/L' in closed form gives the
    # violations of the gaps formed from the derivatives themselves
    s = audit_grid(L) if math.isfinite(L.s0) else np.geomspace(1e-8, 1e6, 400)
    d1, d2 = L.deriv1(s), L.deriv2(s)
    coeff = (3.0 * p + q0 - 2.0) / (p + q0)
    weak = np.max(-(s * d2 + coeff * d1) / (np.abs(s * d2) + np.abs(coeff * d1)))
    strong = np.max(-(d1 + s * d2) / (np.abs(d1) + np.abs(s * d2)))
    rep = check_convexity_condition(L, p, q0, s)
    assert rep.weak.max_violation == pytest.approx(weak, rel=1e-12, abs=1e-15)
    assert rep.strong.max_violation == pytest.approx(strong, rel=1e-12, abs=1e-15)


def test_convexity_judges_a_gauge_whose_derivatives_underflow():
    # at kappa = 400, L' and L'' underflow to 0 on 280 of the audit's 400
    # points; a gap formed from them reads -0.0 there and hides every point
    # that was judged.  s L''/L' = 401/g - 1 > 0 on the whole grid, so both
    # gaps are sums of positive terms and read -1
    L = SteepnessFunction.log_type(400.0, 4.0)
    s = audit_grid(L)
    assert np.count_nonzero(L.deriv1(s) == 0.0) == 280
    rep = check_convexity_condition(L, 1.0, 1.0, s)
    assert rep.passed
    assert rep.weak.max_violation == rep.strong.max_violation == -1.0


def test_convexity_judges_a_gauge_whose_derivatives_overflow():
    # at kappa = 2000, lambda0 = 0.01, L' and L'' overflow near s0 = M/2,
    # where g = ln(M/s) < 1, and inf/inf made the verdict NaN
    L = SteepnessFunction.log_type(2000.0, 4.0, lambda0=0.01)
    s = audit_grid(L)
    with np.errstate(over="ignore"):
        assert np.isinf(L.deriv1(s)).any()
    rep = check_convexity_condition(L, 1.0, 1.0, s)
    assert rep.passed
    assert rep.weak.max_violation == rep.strong.max_violation == -1.0


def test_scaling_lower_bound_from_ratio_bound():
    # integrating s L'/L <= c1/s on (0, s0') gives L(d s) >= d^c1 L(s)
    s0p = 0.5
    for L in (LOG1, LOG2, DLOG1):
        c1 = L.a / math.log(1.0 / s0p)
        s = np.geomspace(1e-10, s0p * 0.999, 200)
        for d in (0.5, 0.1):
            assert np.all(L.value(d * s) >= d**c1 * L.value(s) * (1.0 - 1e-12))


def test_transcendental_power_law_exact():
    # eta^beta (eta^r)^gamma = delta solves to eta = delta^(1/(beta + r gamma))
    L = SteepnessFunction.power_law(1.0)
    beta, gamma, delta0 = 0.8, 0.5, 1e-2
    for delta in (1e-2, 1e-4, 1e-6):
        eta_bf, eta_bound = solve_transcendental(L, beta, gamma, delta, delta0)
        assert eta_bf == pytest.approx(delta ** (1.0 / (beta + gamma)), rel=1e-10)
        assert eta_bf <= eta_bound * (1.0 + 1e-12)
        # with C = 1 the closed form dominates for delta <= 1 already
        assert eta_bf <= delta ** (1.0 / beta) * L.value(delta) ** (-gamma / beta) * (1 + 1e-12)


def test_transcendental_log_type_bound_holds():
    beta, gamma, delta0 = 0.8, 0.5, 1e-2
    for delta in np.geomspace(1e-2, 1e-8, 7):
        eta_bf, eta_bound = solve_transcendental(LOG1, beta, gamma, float(delta), delta0)
        assert eta_bf <= eta_bound * (1.0 + 1e-12)


def test_transcendental_boundary_and_sharpness():
    beta, gamma, delta0 = 0.8, 0.5, 1e-2
    eta_bf, eta_bound = solve_transcendental(LOG1, beta, gamma, delta0, delta0)
    # returned value saturates the constraint and is maximal up to 1e-6
    def mass(eta):
        return eta**beta * LOG1.value(eta) ** gamma
    assert mass(eta_bf) <= delta0
    assert mass(eta_bf * (1.0 + 1e-6)) > delta0
    # delta0 is a calibration point, so the bound holds there with the
    # calibration's 1e-9 inflation to spare
    assert eta_bf * (1.0 + 5e-10) <= eta_bound


def test_transcendental_preconditions():
    with pytest.raises(InputError):
        solve_transcendental(LOG1, 0.4, 0.5, 1e-3, 1e-2)  # beta <= 1/(1+lambda0)
    with pytest.raises(InputError):
        solve_transcendental(LOG1, 0.8, 0.5, 2e-2, 1e-2)  # delta > delta0


def test_json_roundtrip():
    for L in (LOG2, DLOG1, SteepnessFunction.power_law(2.5)):
        doc = L.to_json()
        back = SteepnessFunction.from_json(doc)
        assert back == L
    with pytest.raises(InputError):
        SteepnessFunction.from_json({"kind": "Mystery"})
