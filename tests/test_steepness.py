import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from decaylab.errors import InputError
from decaylab.steepness import (POWER_LAW_FAILURES, SteepnessFunction, _solve_eta,
                                check_convexity_condition, check_near_multiplicativity,
                                check_ratio_bound, solve_transcendental)

LOG1 = SteepnessFunction.log_type(1.0, 4.0)
LOG2 = SteepnessFunction.log_type(2.0, 4.0)
DLOG1 = SteepnessFunction.double_log_type(1.0, math.e**3, 1.0)


def deriv1(L, s):
    """dL/ds in closed form on the smooth branch 0 < s < s0."""
    if L.kind == "PowerLaw":
        return L.r * s ** (L.r - 1.0)
    g = np.log(L.M / s)
    if L.kind == "LogType":
        return (L.kappa / s) * g ** (-L.kappa - 1.0)
    return L.kappa / (s * g) * np.log(g) ** (-L.kappa - 1.0)


def deriv2(L, s):
    """d^2 L/ds^2 in closed form on the smooth branch 0 < s < s0."""
    k = L.kappa
    if L.kind == "PowerLaw":
        return L.r * (L.r - 1.0) * s ** (L.r - 2.0)
    g = np.log(L.M / s)
    if L.kind == "LogType":
        return (k / s**2) * g ** (-k - 1.0) * ((k + 1.0) / g - 1.0)
    lg = np.log(g)
    return (k / (s**2 * g)) * lg ** (-k - 1.0) * (-1.0 + 1.0 / g + (k + 1.0) / (g * lg))


def test_log_type_values():
    # ln(M/s) = 1 at s = M/e
    assert LOG1.value(4.0 / math.e) == pytest.approx(1.0, rel=1e-14)
    # constant branch value 1/ln^2(2) above s0 = M/2
    assert LOG2.value(2.5) == pytest.approx(1.0 / math.log(2.0) ** 2, rel=1e-14)
    assert LOG2.value(2.0) == LOG2.value(100.0)
    assert LOG1.value(0.0) == 0.0
    assert DLOG1.value(0.0) == 0.0


def test_values_below_the_smallest_normal_double():
    # L is evaluated from ln s, so it does not collapse to 0 below 1e-300:
    # ln^{-kappa}(M/s) and ln^{-kappa} ln(M/s) at subnormal s too
    s = np.array([1e-290, 1e-301, 1e-310, 5e-324])
    assert np.all(s > 0.0)
    for L, inner in ((LOG2, lambda g: g), (DLOG1, math.log)):
        expected = [inner(math.log(L.M) - math.log(x)) ** -L.kappa for x in s]
        assert L.value(s) == pytest.approx(expected, rel=1e-14)
        assert L.value(float(s[1])) == pytest.approx(expected[1], rel=1e-14)
    # and ln L stays finite where s itself underflows, at ln s = -1e4
    assert LOG2.log_value(-1e4) == pytest.approx(-2.0 * math.log(1e4 + math.log(4.0)),
                                                 rel=1e-15)


def test_log_value_is_the_formula_of_value(rng):
    # value is s^r for PowerLaw and exp(log_value(ln s)) otherwise; ln s is
    # clamped at ln s0, so both are constant above s0
    s = np.concatenate([rng.uniform(0.0, 20.0, 500), [0.0]])
    for L in (LOG1, LOG2, DLOG1, SteepnessFunction.power_law(1.5)):
        with np.errstate(divide="ignore"):
            ln_s = np.log(s)
        assert np.allclose(L.value(s), np.exp(L.log_value(ln_s)), rtol=1e-14, atol=0.0)
        if math.isfinite(L.s0):
            assert L.log_value(math.log(L.s0) + 1.0) == L.log_value(math.log(L.s0))


def test_power_law_values():
    L = SteepnessFunction.power_law(2.0)
    assert L.value(3.0) == 9.0
    assert deriv1(L, 5.0) == pytest.approx(10.0)
    L1 = SteepnessFunction.power_law(1.0)
    assert deriv1(L1, 0.3) == 1.0


def test_log_deriv_closed_form():
    # at s = M/e the inner log equals 1, so L'(s) = kappa/s
    s = 4.0 / math.e
    assert deriv1(LOG1, s) == pytest.approx(math.e / 4.0, rel=1e-14)
    h = 1e-6
    fd = (LOG1.value(s + h) - LOG1.value(s - h)) / (2 * h)
    assert deriv1(LOG1, s) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("L", [SteepnessFunction.power_law(1.7), LOG1, LOG2,
                               DLOG1, SteepnessFunction.double_log_type(2.0, math.e**3)])
def test_derivs_match_finite_differences(L):
    s0 = min(L.s0, 10.0)
    s = np.geomspace(s0 * 1e-8, s0 * 0.9, 60)
    h = s * 1e-6
    fd1 = (L.value(s + h) - L.value(s - h)) / (2 * h)
    fd2 = (deriv1(L, s + h) - deriv1(L, s - h)) / (2 * h)
    assert np.max(np.abs(fd1 / deriv1(L, s) - 1.0)) < 1e-6
    assert np.max(np.abs(fd2 / deriv2(L, s) - 1.0)) < 1e-6


def test_deriv_domain_errors():
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
    rep = check_near_multiplicativity(LOG1, s, lam)
    assert LOG1.a == 1.0
    assert rep.passed
    # kappa > 1: a = ((1+lambda0)^kappa - 1)/lambda0 = 3
    rep2 = check_near_multiplicativity(LOG2, s, lam)
    assert LOG2.a == 3.0
    assert rep2.passed


def test_near_multiplicativity_double_log():
    # smallest sufficient constant: kappa/ln(ln(M/s0)) in the concave regime
    assert DLOG1.a == pytest.approx(1.0 / math.log(3.0))
    s = np.geomspace(1e-8, 0.999, 200)
    lam = np.linspace(1e-3, 0.999, 200)
    rep = check_near_multiplicativity(DLOG1, s, lam)
    assert rep.passed


def brute_force_a(L):
    """The largest secant slope ((1 + ln(1+lambda)/c1)^kappa - 1)/lambda of a
    DoubleLogType gauge on a dense lambda grid of (0, lambda0]."""
    c1 = math.log(math.log(L.M / L.s0))
    lam = np.union1d(np.geomspace(L.lambda0 * 1e-12, L.lambda0, 20_001),
                     np.linspace(0.0, L.lambda0, 200_001)[1:])
    return float(np.max(np.expm1(L.kappa * np.log1p(np.log1p(lam) / c1)) / lam))


@pytest.mark.parametrize("M", [3.0, 10.0, 1e3])
@pytest.mark.parametrize("kappa", [0.5, 3.0, 8.0, 40.0])
@pytest.mark.parametrize("lambda0", [0.01, 1.0, 100.0])
def test_double_log_constant_is_the_supremum(M, kappa, lambda0):
    # a is the supremum of the secant slope: no grid point exceeds it, and a
    # dense grid comes within 1e-9 of it
    L = SteepnessFunction.double_log_type(kappa, M, 1.0, lambda0)
    brute = brute_force_a(L)
    assert brute <= L.a * (1.0 + 1e-13)
    assert L.a <= brute * (1.0 + 1e-9)


def test_double_log_constant_interior_maximum():
    # at M = 10, kappa = 3, lambda0 = 100 the slope peaks inside (0, lambda0),
    # at 6.0456586; the maximum over a 2048-point grid with a one-ppm guard
    # read 6.0456478, 1.8e-6 short
    L = SteepnessFunction.double_log_type(3.0, 10.0, 1.0, 100.0)
    assert L.a == pytest.approx(6.0456586, abs=1e-7)
    s = np.geomspace(1e-8, 0.999, 200)
    lam = np.linspace(1e-3, 99.9, 200)
    assert check_near_multiplicativity(L, s, lam).passed


def test_near_multiplicativity_misapplied_constant_fails():
    # using a = kappa for kappa = 2 ignores the convexity of (1+lambda)^2
    s = np.geomspace(1e-8, 1.999, 120)
    lam = np.linspace(1e-3, 0.999, 120)
    rep = check_near_multiplicativity(dataclasses.replace(LOG2, a=2.0), s, lam)
    assert not rep.passed
    assert rep.worst_lambda > 0.5
    assert rep.max_violation > 0.1


def test_near_multiplicativity_input_errors():
    with pytest.raises(InputError):
        check_near_multiplicativity(LOG1, [], [0.5])
    with pytest.raises(InputError):
        check_near_multiplicativity(LOG1, [3.0], [0.5])  # s >= s0
    with pytest.raises(InputError):
        check_near_multiplicativity(LOG1, [0.5], [1.5])  # lam >= lambda0
    # the lambda range is the gauge's own
    wide = SteepnessFunction.log_type(1.0, 4.0, lambda0=2.0)
    assert check_near_multiplicativity(wide, [0.5], [1.5]).passed


def test_near_multiplicativity_power_law_fails():
    # L(s)/L(s^(1+lambda)) = s^(-r lambda) is unbounded: no constant a exists,
    # so the check refuses the gauge with the reason, and judges no grid
    L = SteepnessFunction.power_law(1.0)
    with pytest.raises(InputError) as err:
        check_near_multiplicativity(L, np.geomspace(1e-6, 0.9, 100), [0.5])
    assert str(err.value).endswith(POWER_LAW_FAILURES["near_multiplicativity"])


def test_ratio_bound_log_type():
    # at s = e^-3: s L'/L = kappa/ln(M/s) = 1/(3 + ln 4)
    s = math.exp(-3.0)
    lhs = s * deriv1(LOG1, s) / LOG1.value(s)
    assert lhs == pytest.approx(1.0 / (3.0 + math.log(4.0)), rel=1e-12)
    assert lhs < 1.0 / 3.0
    rep = check_ratio_bound(LOG1, np.geomspace(1e-10, 0.999, 300))
    assert rep.passed
    # a constant below kappa = 1 fails: s L'/L ln(1/s) -> 1 as s -> 0
    rep = check_ratio_bound(dataclasses.replace(LOG1, a=0.5), np.geomspace(1e-10, 0.999, 300))
    assert not rep.passed and rep.worst_s == 1e-10


def test_ratio_bound_power_law_fails():
    # s L'/L = r identically, while the bound a/ln(1/s) vanishes as s -> 0:
    # no constant a exists, so the check refuses the gauge with the reason
    L = SteepnessFunction.power_law(1.0)
    with pytest.raises(InputError) as err:
        check_ratio_bound(L, np.geomspace(1e-6, 0.9, 100))
    assert str(err.value).endswith(POWER_LAW_FAILURES["ratio_bound"])


def test_ratio_bound_rejects_points_at_or_above_one():
    with pytest.raises(InputError):
        check_ratio_bound(LOG1, np.array([0.5, 1.0]))


def test_ratio_bound_judges_a_steep_gauge():
    # kappa = 1000 gives a = 2^1000 - 1, and a / ln(1/s) overflows near s = 1;
    # the violation s L'/L * ln(1/s) / a - 1 stays finite, and s L'/L <= 721
    # is far below a / ln(1/s) (a RuntimeWarning fails this test)
    L = SteepnessFunction.log_type(1000.0, 4.0)
    assert L.a == 2.0 ** 1000 - 1.0
    s = np.geomspace(1e-8, 1.0 - 1e-9, 400)
    rep = check_ratio_bound(L, s)
    assert rep.passed and rep.max_violation == -1.0


def test_ratio_bound_follows_from_near_multiplicativity():
    # every construction passing the product condition also passes the bound
    grid = np.geomspace(1e-9, 0.99, 400)
    for L in (LOG1, LOG2, DLOG1):
        assert check_ratio_bound(L, grid).passed


def test_convexity_condition():
    s = np.geomspace(1e-8, 1.999, 400)
    for L in (LOG1, LOG2, SteepnessFunction.log_type(0.5, 4.0)):
        assert check_convexity_condition(L, s).passed
    sd = np.geomspace(1e-8, 0.999, 400)
    assert check_convexity_condition(DLOG1, sd).passed
    # the check can fail: at kappa = -2, which no constructor accepts,
    # t = s L''/L' = -1/g - 1 < -1 on the whole grid, and so is reported
    rep = check_convexity_condition(dataclasses.replace(LOG1, kappa=-2.0), s)
    assert not rep.passed and rep.max_violation > 0.0
    with pytest.raises(InputError):
        check_convexity_condition(LOG1, [3.0])  # s >= s0


def audit_grid(L):
    """The s grid of the CLI's lfunction_audit mode."""
    return np.geomspace(min(L.s0, 1.0) * 1e-8, min(L.s0, 1e6) * (1.0 - 1e-9), 400)


@pytest.mark.parametrize("L, p, q0", [
    (LOG1, 1.0, 1.0), (LOG2, 2.0, 0.5), (SteepnessFunction.log_type(0.5, 4.0), 1.0, 3.0),
    (DLOG1, 1.0, 1.0), (SteepnessFunction.power_law(0.5), 1.5, 1.0),
    (SteepnessFunction.power_law(2.5), 1.0, 1.0)])
def test_convexity_closed_form_matches_the_derivatives(L, p, q0):
    # where L' and L'' are normal numbers, s L''/L' in closed form gives the
    # violation of d/ds (s L') >= 0 formed from the derivatives themselves;
    # the descent condition at (p, q0), s L'' >= -((3p + q0 - 2)/(p + q0)) L'
    # formed likewise, is nowhere violated more: its coefficient is >= 1
    s = audit_grid(L) if math.isfinite(L.s0) else np.geomspace(1e-8, 1e6, 400)
    d1, d2 = deriv1(L, s), deriv2(L, s)
    coeff = (3.0 * p + q0 - 2.0) / (p + q0)
    weak = np.max(-(s * d2 + coeff * d1) / (np.abs(s * d2) + np.abs(coeff * d1)))
    strong = np.max(-(d1 + s * d2) / (np.abs(d1) + np.abs(s * d2)))
    rep = check_convexity_condition(L, s)
    assert rep.max_violation == pytest.approx(strong, rel=1e-12, abs=1e-15)
    assert weak <= strong + 1e-15


@given(kind=st.sampled_from(["PowerLaw", "LogType", "DoubleLogType"]),
       r=st.floats(1e-3, 1e3), kappa=st.floats(1e-3, 50.0), M=st.floats(2.0, 1e12),
       s0_frac=st.floats(0.0, 1.0, exclude_max=True), lambda0=st.floats(1e-3, 10.0),
       depths=st.lists(st.floats(1e-9, 300.0), min_size=1, max_size=20))
def test_every_constructed_gauge_passes_convexity(kind, r, kappa, M, s0_frac, lambda0,
                                                  depths):
    # s L'' >= -L' holds on the smooth branch of every gauge the constructors
    # accept: 1 + s L''/L' is r, (kappa + 1)/g or 1/g + (kappa + 1)/(g ln g),
    # with g = ln(M/s) > 1 below s0 < M/e; the audit's key cannot fail for them
    try:
        if kind == "PowerLaw":
            L = SteepnessFunction.power_law(r)
        elif kind == "LogType":
            L = SteepnessFunction.log_type(kappa, M, lambda0)
        else:
            L = SteepnessFunction.double_log_type(kappa, M, 1.0 + s0_frac * (M / math.e - 1.0),
                                                  lambda0)
    except InputError:
        assume(False)
    s_hi = min(L.s0, 1e6) * (1.0 - 1e-9)
    s = np.concatenate([audit_grid(L), s_hi * 10.0 ** -np.array(depths)])
    rep = check_convexity_condition(L, s)
    assert rep.passed and rep.max_violation < 0.0, (L, rep)


def test_convexity_judges_a_gauge_whose_derivatives_underflow():
    # at kappa = 400, L' and L'' underflow to 0 on 280 of the audit's 400
    # points; a gap formed from them reads -0.0 there and hides every point
    # that was judged.  s L''/L' = 401/g - 1 > 0 on the whole grid, so the
    # gap is a sum of positive terms and reads -1
    L = SteepnessFunction.log_type(400.0, 4.0)
    s = audit_grid(L)
    assert np.count_nonzero(deriv1(L, s) == 0.0) == 280
    rep = check_convexity_condition(L, s)
    assert rep.passed and rep.max_violation == -1.0


def test_convexity_judges_a_gauge_whose_derivatives_overflow():
    # at kappa = 2000, lambda0 = 0.01, L' and L'' overflow near s0 = M/2,
    # where g = ln(M/s) < 1, and inf/inf made the verdict NaN
    L = SteepnessFunction.log_type(2000.0, 4.0, lambda0=0.01)
    s = audit_grid(L)
    with np.errstate(over="ignore"):
        assert np.isinf(deriv1(L, s)).any()
    rep = check_convexity_condition(L, s)
    assert rep.passed and rep.max_violation == -1.0


def test_scaling_lower_bound_from_ratio_bound():
    # integrating s L'/L <= c1/s on (0, s0') gives L(d s) >= d^c1 L(s)
    s0p = 0.5
    for L in (LOG1, LOG2, DLOG1):
        c1 = L.a / math.log(1.0 / s0p)
        s = np.geomspace(1e-10, s0p * 0.999, 200)
        for d in (0.5, 0.1):
            assert np.all(L.value(d * s) >= d**c1 * L.value(s) * (1.0 - 1e-12))


def jittered_deltas(delta0: float, count: int, seed: int) -> list:
    """count deltas from delta0 down to 1e-200, one in each of count equal slices
    of the exponent, placed at random in its slice."""
    u = (np.arange(count) + np.random.default_rng(seed).random(count)) / count
    return (delta0 * (1e-200 / delta0) ** u).tolist()


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
    # the ratio eta / (delta^{1/beta} L^{-gamma/beta}(delta)) is delta^e with
    # e = 1/(beta + r gamma) - (1 - r gamma)/beta, and C = delta0^e its supremum
    for r, beta, gamma in ((1.0, 0.8, 0.5), (0.5, 2.0, 1.0), (2.0, 3.0, 0.25)):
        e = 1.0 / (beta + r * gamma) - (1.0 - r * gamma) / beta
        for delta in jittered_deltas(delta0, 6, seed=int(10 * r)):
            eta_bf, eta_bound = solve_transcendental(SteepnessFunction.power_law(r), beta,
                                                     gamma, delta, delta0)
            assert eta_bf / eta_bound == pytest.approx((delta / delta0) ** e, rel=1e-12)


def test_transcendental_log_type_bound_holds():
    # C = max(ratio(delta0), beta^{-kappa gamma/beta}), the larger of the
    # endpoint and the limit as delta -> 0; the bound holds off any grid down
    # to delta = 1e-200.  At (0.5, 2, 2, 1, 1e-2) and (1, 4, 5, 0.25, 0.1) the
    # endpoint dominates: ratio(delta0) is 1.0088 and 1.0461 times the limit
    endpoint_dominated = {(0.5, 2.0, 2.0, 1.0, 1e-2), (1.0, 4.0, 5.0, 0.25, 0.1)}
    cases = [(1.0, 4.0, 0.8, 0.5, 1e-2), *sorted(endpoint_dominated), (4.0, 50.0, 1.0, 2.0, 0.5)]
    for seed, (kappa, M, beta, gamma, delta0) in enumerate(cases):
        L = SteepnessFunction.log_type(kappa, M)
        eta0, bound0 = solve_transcendental(L, beta, gamma, delta0, delta0)
        form0 = delta0 ** (1.0 / beta) * L.value(delta0) ** (-gamma / beta)
        limit = beta ** (-kappa * gamma / beta)
        assert (eta0 / form0 > limit) == ((kappa, M, beta, gamma, delta0) in endpoint_dominated)
        assert bound0 / form0 == pytest.approx(max(eta0 / form0, limit), rel=1e-12)
        for delta in jittered_deltas(delta0, 8, seed):
            eta_bf, eta_bound = solve_transcendental(L, beta, gamma, delta, delta0)
            assert eta_bf <= eta_bound * (1.0 + 1e-12)


def test_transcendental_boundary_and_sharpness():
    beta, gamma, delta0 = 0.8, 0.5, 1e-2
    eta_bf, eta_bound = solve_transcendental(LOG1, beta, gamma, delta0, delta0)
    # returned value saturates the constraint and is maximal up to 1e-6
    def mass(eta):
        return eta**beta * LOG1.value(eta) ** gamma
    assert mass(eta_bf) <= delta0
    assert mass(eta_bf * (1.0 + 1e-6)) > delta0
    # C here is the limit beta^{-kappa gamma/beta} = 1.1497, above the ratio
    # 1.0031 at delta0, so the bound holds there with room to spare
    assert eta_bf * (1.0 + 5e-10) <= eta_bound


def test_transcendental_preconditions():
    with pytest.raises(InputError):
        solve_transcendental(LOG1, 0.4, 0.5, 1e-3, 1e-2)  # beta <= 1/(1+lambda0)
    with pytest.raises(InputError):
        solve_transcendental(LOG1, 0.8, 0.5, 2e-2, 1e-2)  # delta > delta0


def test_transcendental_refuses_an_underived_constant():
    # power law with e = 1/(beta + r gamma) - (1 - r gamma)/beta = -0.074 < 0:
    # the ratio delta^e is unbounded as delta -> 0
    with pytest.raises(InputError, match="unbounded"):
        solve_transcendental(SteepnessFunction.power_law(0.5), 0.6, 0.5, 1e-3, 1e-2)
    with pytest.raises(InputError, match="no derived constant for DoubleLogType"):
        solve_transcendental(DLOG1, 0.8, 0.5, 1e-3, 1e-2)
    # the derivation holds on the log branch (0, s0) only: delta0 = 20 lies
    # below s0 = 25 of log_type(1, 50), but eta(delta0) does not
    with pytest.raises(InputError, match="must lie below s0 = 25"):
        solve_transcendental(SteepnessFunction.log_type(1.0, 50.0), 0.8, 0.5, 1e-3, 20.0)
    with pytest.raises(InputError, match="must lie below s0 = 2"):
        solve_transcendental(LOG1, 0.8, 0.5, 1e-3, 3.0)


def test_transcendental_fails_closed_at_underflow():
    # at delta = 1e-250 eta and the bound read 1.9e-311, a subnormal; at
    # 1e-300 both are 0.  The bracket steps ln eta, so it ends there too; so
    # does a delta0 = 1e-300, whose eta(delta0) is 0
    for delta in (1e-250, 1e-300):
        with pytest.raises(InputError, match="underflows"):
            solve_transcendental(LOG1, 0.8, 0.5, delta, 1e-2)
    with pytest.raises(InputError, match="delta0 = 1e-300 underflows"):
        solve_transcendental(LOG1, 0.8, 0.5, 1e-300, 1e-300)


def test_transcendental_oracle_to_one_ulp():
    # the bisection's eta fits and the next double does not, also at
    # delta = 1e-200, where ln eta is about -570
    for delta in (1e-2, 1e-50, 1e-200):
        eta = _solve_eta(LOG1, 0.8, 0.5, delta)
        assert eta ** 0.8 * LOG1.value(eta) ** 0.5 <= delta
        up = math.nextafter(eta, math.inf)
        assert up ** 0.8 * LOG1.value(up) ** 0.5 > delta


def test_json_roundtrip():
    for L in (LOG2, DLOG1, SteepnessFunction.power_law(2.5)):
        doc = L.to_json()
        back = SteepnessFunction.from_json(doc)
        assert back == L
    with pytest.raises(InputError):
        SteepnessFunction.from_json({"kind": "Mystery"})
