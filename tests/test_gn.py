import math

import numpy as np
import pytest

from decaylab.bounds import DecayEnvelope
from decaylab.errors import InputError
from decaylab.gn import FamilySpec, family_scan
from decaylab.radial import RadialGrid, grad_l2_norm, lq_quasinorm, steepness_integral
from decaylab.steepness import SteepnessFunction


GAUSSIAN = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
LOG2 = SteepnessFunction.log_type(2.0, 4.0)


def gaussian_profile(grid, width=1.0, scale=1.0):
    return scale * np.exp(-(grid.nodes / width) ** 2)


def singleton_row(grid, q, L, width=1.0, scale=1.0, **scan_args):
    """The one row of a family_scan of scale * exp(-(r/width)^2)."""
    fam = FamilySpec(GAUSSIAN, scales=[scale], widths=[width])
    (row,) = family_scan(fam, grid, q, L, **scan_args).rows
    return row


def test_steepness_ratio_constant_branch_reduction():
    # once |grad phi|^2 passes s0 the weight freezes at L(s0)^alpha
    g = RadialGrid(3, 12.0, 2001)
    p = gaussian_profile(g, 1.0, 2.0)
    assert grad_l2_norm(g, p) ** 2 > LOG2.s0
    alpha = 1.0 / 2.0 - (3 - 2.0) / (2.0 * 3)
    expected = (lq_quasinorm(g, p, 2.0) / grad_l2_norm(g, p)
                * LOG2.value(LOG2.s0) ** alpha)
    assert singleton_row(g, 2.0, LOG2, 1.0, 2.0).ratio == pytest.approx(expected, rel=1e-12)


def test_steepness_ratio_budget_precondition():
    # a budget K below the member's steepness integral is recorded, not fatal
    g = RadialGrid(3, 12.0, 1001)
    tight = steepness_integral(g, gaussian_profile(g), LOG2).value * 0.5
    assert not singleton_row(g, 2.0, LOG2, K=tight).budget_ok
    assert singleton_row(g, 2.0, LOG2).budget_ok  # the default K is 1.05x the budget


def test_steepness_ratio_supercritical_rejected():
    # q = 6 is the critical exponent 2n/(n-2) in n = 3, so alpha = 0
    with pytest.raises(InputError, match="critical exponent"):
        singleton_row(RadialGrid(3, 10.0, 101), 6.0, LOG2)


def test_steepness_ratio_refinement_invariance():
    vals = [singleton_row(RadialGrid(3, 20.0, m), 2.0, LOG2, 2.0, 0.05).ratio
            for m in (2001, 4001)]
    assert abs(vals[0] / vals[1] - 1.0) < 0.01


def test_alpha_monotonicity_per_sample():
    # where L < 1 at the evaluated argument, a larger exponent shrinks the ratio
    g = RadialGrid(3, 20.0, 2001)
    assert LOG2.value(grad_l2_norm(g, gaussian_profile(g, 1.0, 0.05)) ** 2) < 1.0
    r1 = singleton_row(g, 2.0, LOG2, 1.0, 0.05, alpha_scale=1.0).ratio
    r2 = singleton_row(g, 2.0, LOG2, 1.0, 0.05, alpha_scale=1.25).ratio
    assert r2 < r1


def test_family_singleton_matches_direct_ratio():
    # lq / (grad * L(grad^2)^-alpha), alpha = 1/q - (n-2)/(2n), by hand
    g = RadialGrid(3, 20.0, 2001)
    p = gaussian_profile(g, 2.0, 0.1)
    lq, grad = lq_quasinorm(g, p, 2.0), grad_l2_norm(g, p)
    alpha = 1.0 / 2.0 - (3 - 2.0) / (2.0 * 3)
    expected = lq / (grad * LOG2.value(grad * grad) ** (-alpha))
    assert singleton_row(g, 2.0, LOG2, 2.0, 0.1).ratio == pytest.approx(expected, rel=1e-12)


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
