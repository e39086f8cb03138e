import math

import numpy as np
import pytest

from decaylab.bounds import DecayEnvelope
from decaylab.errors import BudgetError, InputError
from decaylab.gn import FamilySpec, classical_gn_ratio, family_scan, steepness_gn_ratio
from decaylab.radial import RadialGrid, RadialProfile, grad_l2_norm, steepness_integral
from decaylab.steepness import SteepnessFunction


GAUSSIAN = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)


def gaussian_profile(grid, width=1.0, scale=1.0):
    return RadialProfile.sample(grid, lambda r: scale * np.exp(-(r / width) ** 2))


def test_sobolev_ratio_stable_under_refinement():
    vals = []
    for m in (2001, 4001):
        vals.append(classical_gn_ratio(gaussian_profile(RadialGrid(3, 12.0, m)), 6.0, 2.0, 0.0))
    assert abs(vals[0] / vals[1] - 1.0) < 0.01


def test_classical_dilation_invariance():
    # theta is wired to the exponents, so dilations cancel exactly in the limit
    g = RadialGrid(3, 40.0, 4001)
    r1 = classical_gn_ratio(gaussian_profile(g, 1.0), 6.0, 2.0, 0.0)
    r2 = classical_gn_ratio(gaussian_profile(g, 3.0), 6.0, 2.0, 0.0)
    assert abs(r2 / r1 - 1.0) < 1e-3


def test_classical_polynomial_hand_computation():
    # phi = (1 - r^2)_+ on n=1 with r=2, q=4, theta=3/4:
    # ||phi||_4^4 = 2*128/315, ||phi||_2^2 = 16/15, ||phi'||_2^2 = 8/3
    g = RadialGrid(1, 1.0, 4001)
    p = RadialProfile.sample(g, lambda r: np.maximum(1 - r**2, 0.0))
    hand = (2 * 128 / 315) ** 0.25 / ((16 / 15) ** (0.5 * 0.75) * (8 / 3) ** (0.5 * 0.25))
    assert classical_gn_ratio(p, 4.0, 2.0, 0.75) == pytest.approx(hand, abs=1e-4)


def test_classical_validates_exponent_relation():
    with pytest.raises(InputError):
        classical_gn_ratio(gaussian_profile(RadialGrid(3, 10.0, 101)), 6.0, 2.0, 0.3)


def test_steepness_ratio_constant_branch_reduction():
    # once |grad phi|^2 passes s0 the weight freezes at L(s0)^alpha
    L = SteepnessFunction.log_type(2.0, 4.0)
    g = RadialGrid(3, 12.0, 2001)
    p = gaussian_profile(g, 1.0, 2.0)
    assert grad_l2_norm(p) ** 2 > L.s0
    from decaylab.radial import lq_quasinorm
    alpha = 1.0 / 2.0 - (3 - 2.0) / (2.0 * 3)
    expected = (lq_quasinorm(p, 2.0) / grad_l2_norm(p)
                * L.value(L.s0) ** alpha)
    assert steepness_gn_ratio(p, 2.0, L, 1e6) == pytest.approx(expected, rel=1e-12)


def test_steepness_ratio_budget_precondition():
    L = SteepnessFunction.log_type(2.0, 4.0)
    g = RadialGrid(3, 12.0, 1001)
    p = gaussian_profile(g)
    tight = steepness_integral(p, L).value * 0.5
    with pytest.raises(BudgetError):
        steepness_gn_ratio(p, 2.0, L, tight)


def test_steepness_ratio_supercritical_rejected():
    L = SteepnessFunction.log_type(2.0, 4.0)
    with pytest.raises(InputError):
        steepness_gn_ratio(gaussian_profile(RadialGrid(3, 10.0, 101)), 6.0, L, 1e9)


def test_steepness_ratio_refinement_invariance():
    L = SteepnessFunction.log_type(2.0, 4.0)
    vals = []
    for m in (2001, 4001):
        g = RadialGrid(3, 20.0, m)
        p = gaussian_profile(g, 2.0, 0.05)
        vals.append(steepness_gn_ratio(p, 2.0, L, 1e9))
    assert abs(vals[0] / vals[1] - 1.0) < 0.01


def test_alpha_monotonicity_per_sample():
    # where L < 1 at the evaluated argument, a larger exponent shrinks the ratio
    L = SteepnessFunction.log_type(2.0, 4.0)
    g = RadialGrid(3, 20.0, 2001)
    p = gaussian_profile(g, 1.0, 0.05)
    assert L.value(grad_l2_norm(p) ** 2) < 1.0
    r1 = steepness_gn_ratio(p, 2.0, L, 1e9, alpha_scale=1.0)
    r2 = steepness_gn_ratio(p, 2.0, L, 1e9, alpha_scale=1.25)
    assert r2 < r1


def test_family_singleton_matches_direct_ratio():
    L = SteepnessFunction.log_type(2.0, 4.0)
    g = RadialGrid(3, 20.0, 2001)
    fam = FamilySpec(GAUSSIAN, scales=[0.1], widths=[2.0])
    scan = family_scan(fam, g, 2.0, L)
    assert len(scan.rows) == 1
    p = gaussian_profile(g, 2.0, 0.1)
    assert scan.rows[0].ratio == pytest.approx(steepness_gn_ratio(p, 2.0, L, scan.K), rel=1e-12)


def test_family_zip_and_broadcast_validation():
    fam = FamilySpec(GAUSSIAN, scales=[1.0], widths=[1.0, 2.0])
    assert fam.members() == [(1.0, 1.0), (1.0, 2.0)]
    with pytest.raises(InputError):
        FamilySpec(GAUSSIAN, scales=[1.0, 2.0, 3.0], widths=[1.0, 2.0])
    with pytest.raises(InputError):
        FamilySpec(GAUSSIAN, scales=[0.0])
    with pytest.raises(InputError):
        FamilySpec(DecayEnvelope(kind="DoubleExp", c0=1.0, alpha=1.0, beta=2.0))


def test_family_width_resolvability():
    fam = FamilySpec(GAUSSIAN, widths=[10.0])
    with pytest.raises(InputError):
        family_scan(fam, RadialGrid(3, 20.0, 501), 2.0, SteepnessFunction.log_type(2.0, 4.0))


def test_family_member_with_zero_gradient_fails_closed():
    # a subnormal scale underflows the gradient norm to 0, leaving the
    # member's ratio undefined, alone or beside a regular member
    L = SteepnessFunction.log_type(2.0, 4.0)
    for scales in ([1e-320], [1e-320, 0.1]):
        fam = FamilySpec(GAUSSIAN, scales=scales, widths=[1.0])
        with pytest.raises(InputError, match="member s.*_w1: gradient norm is 0"):
            family_scan(fam, RadialGrid(3, 20.0, 201), 2.0, L)


def test_double_exp_family_scan_finite():
    L = SteepnessFunction.double_log_type(2.0, math.e**3)
    env = DecayEnvelope(kind="DoubleExp", c0=0.3, alpha=1.0, beta=1.0, gamma=1.0)
    fam = FamilySpec(env, scales=[1.0], widths=[1.0, 2.0, 4.0])
    scan = family_scan(fam, RadialGrid(3, 40.0, 2001), 2.0, L)
    assert all(np.isfinite(row.ratio) for row in scan.rows)
    assert all(row.budget_ok for row in scan.rows)
    assert scan.ratio_max / scan.ratio_min < 10.0


def test_scan_summary():
    L = SteepnessFunction.log_type(2.0, 4.0)
    fam = FamilySpec(GAUSSIAN, scales=[0.1, 0.05], widths=[1.0, 2.0])
    scan = family_scan(fam, RadialGrid(3, 20.0, 1001), 2.0, L)
    doc = scan.summary()
    assert doc["members"] == 2
    assert doc["grad_span"] >= 1.0
    # the members whose truncation tail is flagged, in row (gradient norm) order
    assert [row.member_id for row in scan.rows] == ["s0.05_w2", "s0.1_w1"]
    assert doc["tail_flagged"] == ["s0.05_w2", "s0.1_w1"]
