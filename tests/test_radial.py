import math

import numpy as np
import pytest

from decaylab.errors import InputError, NumericError
from decaylab.radial import (RadialGrid, RadialProfile, grad_l2_norm, laplacian_stencil,
                             lq_quasinorm, steepness_integral)
from decaylab.steepness import SteepnessFunction


def gaussian(r):
    return np.exp(-r**2)


def stencil_laplacian(grid, fn):
    """Lap_h fn on every node but r = R, from the center and interior rows of
    laplacian_stencil (the rows the time step solves with)."""
    u = fn(grid.nodes)
    center, inv_h2, lower, upper = laplacian_stencil(grid)
    return np.concatenate([[center * (u[1] - u[0])],
                           lower * u[:-2] - 2.0 * inv_h2 * u[1:-1] + upper * u[2:]])


def test_grid_basics():
    g = RadialGrid(3, 2.0, 5)
    assert g.h == 0.5
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
    assert g.omega_n == pytest.approx(4.0 * math.pi)
    assert RadialGrid(2, 1.0, 3).omega_n == pytest.approx(2.0 * math.pi)
    assert RadialGrid(1, 1.0, 3).omega_n == pytest.approx(2.0)
    with pytest.raises(InputError):
        RadialGrid(0, 1.0, 5)
    with pytest.raises(InputError):
        RadialGrid(1, 1.0, 2)


def test_unit_ball_volume():
    g = RadialGrid(3, 1.0, 2001)
    p = RadialProfile.sample(g, lambda r: np.ones_like(r))
    assert lq_quasinorm(p, 1.0) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-6)


def test_gaussian_l2_norm():
    # int_R exp(-2 x^2) dx = sqrt(pi/2), so the norm is (pi/2)^(1/4)
    g = RadialGrid(1, 10.0, 4001)
    p = RadialProfile.sample(g, gaussian)
    assert lq_quasinorm(p, 2.0) == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-10)


def test_quasinorm_below_one():
    # q = 1/2: (omega_1 * 1)^(1/q) = 2^2 = 4
    g = RadialGrid(1, 1.0, 101)
    p = RadialProfile.sample(g, lambda r: np.ones_like(r))
    assert lq_quasinorm(p, 0.5) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(InputError):
        lq_quasinorm(p, 0.0)


def test_quadrature_homogeneity(rng):
    g = RadialGrid(2, 5.0, 401)
    base = rng.uniform(0.1, 1.0, g.m)
    for q in (0.5, 1.0, 2.0, 3.7):
        n1 = lq_quasinorm(RadialProfile(g, base), q)
        for c in (2.0, 17.5, 1e-6):
            nc = lq_quasinorm(RadialProfile(g, c * base), q)
            assert nc == pytest.approx(c * n1, rel=1e-13)


def test_grad_norm_constant_and_polynomial():
    g = RadialGrid(3, 1.0, 101)
    assert grad_l2_norm(RadialProfile.sample(g, lambda r: np.full_like(r, 2.0))) == 0.0
    # phi = 1 - r^2 on n=1: omega_1 int_0^1 4 r^2 dr = 8/3
    g1 = RadialGrid(1, 1.0, 2001)
    p = RadialProfile.sample(g1, lambda r: 1 - r**2)
    assert grad_l2_norm(p) == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-5)


def test_grad_norm_refinement_order():
    # halving h must cut the quadrature error by about 4 (second order)
    vals = []
    for m in (501, 1001, 2001, 4001):
        g = RadialGrid(3, 10.0, m)
        vals.append(grad_l2_norm(RadialProfile.sample(g, gaussian)))
    orders = [math.log2(abs((vals[i] - vals[i + 1]) / (vals[i + 1] - vals[i + 2])))
              for i in range(2)]
    assert min(orders) > 1.9


def test_laplacian_stencil_exact_on_quadratics():
    for n in (1, 2, 3):
        g = RadialGrid(n, 2.0, 101)
        lap = stencil_laplacian(g, lambda r: 1 - r**2)
        assert np.max(np.abs(lap + 2.0 * n)) < 1e-10
        const = stencil_laplacian(g, lambda r: np.full_like(r, 3.0))
        assert np.max(np.abs(const)) < 1e-12


def test_laplacian_stencil_gaussian():
    # Lap e^{-r^2} = e^{-r^2} (4 r^2 - 2n) vanishes at r=1 for n=2
    g = RadialGrid(2, 5.0, 4001)
    lap = stencil_laplacian(g, gaussian)
    i = round(1.0 / g.h)
    assert abs(lap[i]) < 1e-6


def test_integration_by_parts():
    # sum omega r^{n-1} h phi lap(phi) ~ -|grad phi|^2 for phi vanishing at R;
    # phi(R) = 0, so the boundary node adds nothing
    for n, m in ((1, 2001), (3, 2001)):
        g = RadialGrid(n, 1.0, m)
        phi = RadialProfile.sample(g, lambda r: (1 - r**2) ** 2)
        lap = np.append(stencil_laplacian(g, lambda r: (1 - r**2) ** 2), 0.0)
        lhs = g.volume_integral(phi.values * lap)
        rhs = -grad_l2_norm(phi) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-3)


def test_steepness_integral_power_law_reduces_to_volume():
    g = RadialGrid(3, 1.0, 2001)
    p = RadialProfile.sample(g, lambda r: np.ones_like(r))
    res = steepness_integral(p, SteepnessFunction.power_law(1.0))
    assert res.value == pytest.approx(4.0 * math.pi / 3.0, abs=1e-6)


def test_steepness_integral_tail_stability():
    # integrand ~ (r^2 + ln 4)^-2 for the Gaussian: finite, R=40 suffices
    L = SteepnessFunction.log_type(2.0, 4.0)
    v20 = steepness_integral(
        RadialProfile.sample(RadialGrid(1, 20.0, 2001), gaussian), L)
    v40 = steepness_integral(
        RadialProfile.sample(RadialGrid(1, 40.0, 4001), gaussian), L)
    assert abs(v20.value - v40.value) / v40.value < 1e-4
    assert not v40.tail_flagged


def test_steepness_integral_divergent_tail_flagged():
    # exp(-r) decay with kappa=1 in n=3: r^2 / ln(M e^r) ~ r diverges
    L = SteepnessFunction.log_type(1.0, 4.0)
    g = RadialGrid(3, 20.0, 2001)
    res = steepness_integral(RadialProfile.sample(g, lambda r: np.exp(-r)), L)
    assert res.tail_flagged


def test_steepness_integral_rejects_negative():
    g = RadialGrid(1, 1.0, 11)
    p = RadialProfile(g, np.linspace(-0.1, 1.0, 11))
    with pytest.raises(InputError):
        steepness_integral(p, SteepnessFunction.power_law(1.0))


def test_volume_integral_weights_the_center_zero_at_n_2(rng):
    # for n >= 2 the node r = 0 has the exact weight 0: an infinite integrand
    # there leaves the integral finite, with no RuntimeWarning (0 * inf), and
    # a finite integrand keeps the bits of the plain r^{n-1}-weighted sum
    g = RadialGrid(2, 3.0, 31)
    f = rng.random(g.m) - 0.5
    plain = g.omega_n * float(g._trapezoid_weights @ (g.nodes * f))
    assert g.volume_integral(f) == plain
    f[0] = math.inf
    assert g.volume_integral(f) == plain
    # in n = 1 the center has weight h/2, so the integral is infinite
    assert RadialGrid(1, 3.0, 31).volume_integral(f) == math.inf


def test_integrals_that_are_not_finite_raise_by_name():
    g = RadialGrid(2, 3.0, 31)
    huge = RadialProfile(g, np.full(g.m, 1e200))
    with pytest.raises(NumericError, match="L\\^q quasi-norm at q = 2 is not finite"):
        lq_quasinorm(huge, 2.0)
    with pytest.raises(NumericError, match="steepness integral of the PowerLaw gauge"):
        steepness_integral(huge, SteepnessFunction.power_law(2.0))
    # an integrand infinite at r = 0 alone is finite in n = 2, infinite in n = 1
    spike = np.full(g.m, 1.0)
    spike[0] = 1e200
    assert math.isfinite(lq_quasinorm(RadialProfile(g, spike), 2.0))
    with pytest.raises(NumericError, match="quasi-norm"):
        lq_quasinorm(RadialProfile(RadialGrid(1, 3.0, 31), spike), 2.0)
