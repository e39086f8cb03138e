import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from decaylab import bounds
from decaylab.bounds import (DecayEnvelope, _integrate_shot, build_subsolution,
                             evaluate_steady_state, logistic_exact, lower_bound_curve,
                             solve_steady_state, steady_state_residual, subsolution_check)
from decaylab.errors import InputError, NumericError
from decaylab.evolution import ApproxParams, ProblemSpec, evolve


@pytest.mark.parametrize("n", [1, 2, 3])
def test_steady_state_poisson_oracle(n):
    # p = 1 turns the problem into -Lap(w) = 1, solved by (1 - r^2)/(2n)
    state = solve_steady_state(1.0, n, 4001)
    exact = (1.0 - state.r_nodes**2) / (2.0 * n)
    assert np.max(np.abs(state.w - exact)) < 1e-6
    assert state.center_value == pytest.approx(1.0 / (2.0 * n), abs=1e-10)
    assert steady_state_residual(state) < 1e-8


def masked_source(state):
    """The integrand and nodes that steady_state_residual sums by Simpson's rule."""
    r = state.r_nodes
    mask = r <= bounds.RESIDUAL_R_CAP
    return r[mask] ** (state.n - 1) * state.w[mask] ** (1.0 - state.p) / state.p, r[mask]


def assert_simpson_is_scipys(y, x, h):
    # scipy's rule on the nodes x, which are spaced h, to roundoff: the worst
    # difference measured on these inputs is 6.2e-14 of max |integral|
    from scipy.integrate import cumulative_simpson
    ours = bounds._cumulative_simpson(y, h)
    theirs = cumulative_simpson(y, x=x, initial=0.0)
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape == y.shape
    assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.max(np.abs(theirs))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_cumulative_simpson_is_scipys_on_steady_sources(p, n):
    assert_simpson_is_scipys(*masked_source(solve_steady_state(p, n, 1001)), 1.0 / 1000)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 1001, 4001])
def test_cumulative_simpson_is_scipys_at_every_node_count(m):
    # random values on m uniform nodes of [0, 1], and for m >= 3 the steady
    # source at (2, 1): at m = 3 the mask keeps 2 nodes, and both sums are
    # the trapezoid
    h = 1.0 / max(m - 1, 1)
    y = np.random.default_rng(m).standard_normal(m)
    assert_simpson_is_scipys(y, np.linspace(0.0, 1.0, m), h)
    if m >= 3:
        y, x = masked_source(solve_steady_state(2.0, 1, m))
        if m == 3:
            assert x.size == 2
        assert_simpson_is_scipys(y, x, h)


@pytest.mark.parametrize("m", [3, 4, 5, 10, 101])
def test_cumulative_simpson_is_exact_on_quadratics(m):
    # each interval's weights integrate the parabola through three nodes
    x = np.linspace(-0.5, 2.0, m)
    h = 2.5 / (m - 1)
    exact = 0.7 * (x + 0.5) - 1.5 * (x**2 - 0.25) + (x**3 + 0.125)
    integral = bounds._cumulative_simpson(0.7 - 3.0 * x + 3.0 * x**2, h)
    np.testing.assert_allclose(integral, exact, rtol=0, atol=1e-14 * np.abs(exact).max())


def test_steady_state_degenerate_touchdown():
    state = solve_steady_state(2.0, 1, 4001)
    assert np.all(np.diff(state.w) <= 1e-12)        # symmetric decreasing
    assert state.w[0] > 0 and state.boundary_value < 1e-4
    assert steady_state_residual(state) < 1e-8


# (p, n) -> center, boundary value and digest of w and w' at m = 4001; the
# test ids are the inputs alone, so a re-pin renames no test
SHOOTING_PINS = {
    (1.0, 2): (0.24999999999998546, 8.794234871573048e-16,
               "9c9d83f86414e96764b67bde55cf24703f103770110e9a2becf357261f5b2adf"),
    # the subsolution certificate's steady state: every two_sided_p1 margin reads it
    (1.0, 1): (0.49999999999997, 8.706685546144843e-16,
               "79a0fc5160276d5f952f9e09e03b00fafbfa67b150ac996d165b755821d1adea"),
    (2.0, 1): (0.5641895407550832, 6.215259319112903e-06,
               "39dd8afe1108d3c49fe4382f2fb76ff398f2784e9f2f69ffaa007c4d3bd589b3"),
    # the smallest center that survives at (4, 1)
    (4.0, 1): (0.7070965041670486, 0.00044643757399456287,
               "f3b6e29944037d4cfc00e4b76b0785f8119c652bf28acb981aa01af3a5450a6b"),
}


@pytest.mark.parametrize("p, n", SHOOTING_PINS)
def test_steady_state_shooting_pinned(p, n):
    # the static manifests hash these profiles, so shooting is pinned bit for bit,
    # the degenerate touchdown of p = 2, 4 included
    center, boundary, digest = SHOOTING_PINS[p, n]
    state = solve_steady_state(p, n, 4001)
    assert state.center_value == center
    assert state.boundary_value == boundary
    assert hashlib.sha256(state.w.tobytes() + state.derivative.tobytes()).hexdigest() == digest


def assert_discrete_root(state, m):
    """The center a is a root of w(1; a) on the grid, whatever found it: it
    survives with 0 <= w(1; a) <= BOUNDARY_TOL, or it survives and the center
    2e-15 below it dies."""
    a, p, n = state.center_value, state.p, state.n
    assert _integrate_shot(a, p, n, m) == (state.boundary_value, None)
    assert state.boundary_value >= 0.0
    assert (state.boundary_value <= bounds.BOUNDARY_TOL
            or _integrate_shot(a * (1.0 - 2e-15), p, n, m)[0] < 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_shooting_returns_the_discrete_root(traced_steady_state, p, n):
    assert_discrete_root(traced_steady_state(p, n)[1], 4001)


@pytest.mark.parametrize("p, n, m", [(8.0, 2, 1001), (8.0, 2, 4001), (6.0, 2, 1001)])
def test_steady_state_records_the_shot_that_met_the_tolerance(p, n, m):
    # a survivor with w(1) in [-BOUNDARY_TOL, 0) is the bracket's lower end:
    # ending the loop on it would record the profile of an older upper end,
    # with w(1) = 3.4e-3, 2.0e-5 and 4.3e-8 here
    assert_discrete_root(solve_steady_state(p, n, m), m)


@pytest.mark.parametrize("p, n, ceiling", [(6.0, 1, 28), (6.0, 3, 36), (8.0, 3, 30)])
def test_stall_rule_lets_the_secant_resume(monkeypatch, p, n, ceiling):
    # at m = 1001 the root lies among survivors with w(1) < 0 above the death
    # switch, so the bracket stalls once on its way there; with the stall rule
    # latched for the rest of the search these took 52, 55 and 51 shots
    shots = []
    real = bounds._integrate_shot

    def counted(a, p, n, m, record=False):
        shots.append(record)
        return real(a, p, n, m, record)

    monkeypatch.setattr(bounds, "_integrate_shot", counted)
    state = solve_steady_state(p, n, 1001)
    assert shots.count(False) <= ceiling
    assert_discrete_root(state, 1001)


@pytest.mark.parametrize("p, n, center", [(1.0, 2, 0.24999999999998546),
                                          (2.0, 1, 0.5641895407550834),
                                          (4.0, 1, 0.7070965041670491)])
def test_static_check_centers_held(traced_steady_state, p, n, center):
    # the perfbench gate holds these three within 1e-6 of the seed code's
    # values; the last-step stage value moves them by a few ulps at most
    assert abs(traced_steady_state(p, n)[1].center_value / center - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_steady_state_converges_at_p_1_5(n):
    # w(1; a) jumps at the touchdown from 0 to a positive floor; the bracket
    # still collapses well inside the shot cap
    state = solve_steady_state(1.5, n, 4001)
    assert steady_state_residual(state) < 1e-8
    assert state.w[0] > 0 and 0.0 <= state.boundary_value < 1e-4


def closed_form_center(p):
    """w_1(0) in n = 1: c^{-2/p}, where c is the radius at which the solution
    with w(0) = 1 vanishes, from the first integral with k = 2 - p."""
    k = 2.0 - p
    if p < 2.0:
        c = math.sqrt(p * k / 2.0) / k * special.beta(1.0 / k, 0.5)
    elif p == 2.0:
        c = math.sqrt(math.pi)
    else:
        c = math.sqrt(-p * k / 2.0) / -k * special.beta(0.5 - 1.0 / k, 0.5)
    return c ** (-2.0 / p)


# 1.25 times the relative center errors of the shooting solver at m = 1001: the
# degenerate touchdown of p >= 3 makes them first order in h; from p > 78 on,
# w^(1-p) overflows at the bracket's lower end 1e-4, and that shot has died
@pytest.mark.parametrize("p, bound", [(1.0, 1.25 * 9e-16), (1.5, 1.25 * 6.8e-7),
                                      (2.0, 1.25 * 4.8e-7), (3.0, 1.25 * 3.6e-5),
                                      (4.0, 1.25 * 5.8e-5), (6.0, 1.25 * 6.8e-5),
                                      (100.0, 1.25 * 1.04e-5), (200.0, 1.25 * 5.6e-6)])
def test_steady_center_against_closed_form(p, bound):
    exact = closed_form_center(p)
    state = solve_steady_state(p, 1, 1001)
    assert abs(state.center_value - exact) <= bound * exact
    assert_discrete_root(state, 1001)


def test_steady_state_non_convergence_names_the_bracket(monkeypatch):
    monkeypatch.setattr(bounds, "SHOT_CAP", 5)
    with pytest.raises(NumericError) as failure:
        solve_steady_state(2.0, 1, 4001)
    message = str(failure.value)
    assert message.startswith("steady-state shooting did not converge at p = 2.0, n = 1: "
                              "7 shots at m = 4001, last bracket [")
    lo, hi = (float(x) for x in message.rsplit("[", 1)[1].rstrip("]").split(", "))
    assert 1e-4 <= lo < 0.5641895407550834 < hi <= 50.0


@pytest.mark.parametrize("a, p, n, m, expected", [
    (0.25033333333333335, 1.0, 2, 101, 0.00033333333333335994),   # survives
    (0.75, 4.0, 1, 101, 0.3435921562283486),                     # survives
    # a death before the last step: the ids name the exit path, not the pin
    pytest.param(0.0009583333333333334, 1.0, 1, 101, -0.96, id="dies-stage2-p1-n1"),
    pytest.param(0.022208333333333333, 1.0, 3, 101, -0.6399999999999999,
                 id="dies-stage3-p1-n3"),
    pytest.param(0.0015833333333333333, 1.0, 1, 101, -0.95, id="dies-stage4-p1-n1"),
    pytest.param(0.005333333333333333, 2.0, 1, 101, -0.99, id="dies-after-step-p2-n1"),
    # a death in stage 4 of the last step reads as that stage value, w + h*v3
    (0.564182, 2.0, 1, 101, -1.7489106726720216e-06),
    (0.24975, 1.0, 2, 101, -0.0002499999999999924),
    (0.5, 1.0, 1, 2, -5e-324),                                   # w + h*v3 == 0
    # the last step ends at w <= 0 with r >= 1 - h/2: w(1) itself, not a deficit
    (0.68, 4.0, 1, 3, -0.03469791683583112),
])
def test_integrate_shot_exit_paths_pinned(a, p, n, m, expected):
    # the node of a death before the last step comes with its deficit; every
    # other exit returns None
    nodes = {0.0009583333333333334: 0.04, 0.022208333333333333: 0.36000000000000015,
             0.0015833333333333333: 0.05, 0.005333333333333333: 0.01}
    assert _integrate_shot(a, p, n, m) == (expected, nodes.get(a))


def _textbook_shot(a, p, n, m, record=False):
    """The shot as textbook RK4 with one call of f per stage: the reference
    whose float operations _integrate_shot must repeat in the same order.
    Returns the value and the node of a death before the last step; with
    ``record``, a shot that survives returns w(1) and its w and w' at every
    node."""
    h = 1.0 / (m - 1)

    def f(r, w, v):
        if w <= 0.0:
            return None
        src = -(1.0 / p) * w**(1.0 - p)
        return (v, src / n) if r == 0.0 else (v, -(n - 1) / r * v + src)

    w, v, r = a, 0.0, 0.0
    ws, vs = [w], [v]
    for _ in range(m - 1):
        k1 = f(r, w, v)
        k2 = k1 and f(r + 0.5 * h, w + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = k2 and f(r + 0.5 * h, w + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = k3 and f(r + h, w + h * k3[0], v + h * k3[1])
        if k4 is None:
            if k3 is not None and r + h >= 1.0 - 0.5 * h:
                return min(w + h * k3[0], -5e-324), None
            return -(1.0 - r), r
        w += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        r += h
        if w <= 0.0 and r < 1.0 - 0.5 * h:
            return -(1.0 - r), r
        ws.append(w)
        vs.append(v)
    return (w, np.array(ws), np.array(vs)) if record else (w, None)


def assert_same_profile(a, p, n, m):
    """_integrate_shot records the textbook profile of a survivor bit for bit."""
    ours = _integrate_shot(a, p, n, m, record=True)
    theirs = _textbook_shot(a, p, n, m, record=True)
    assert ours[0] == theirs[0]
    for got, want in zip(ours[1:], theirs[1:]):
        assert got.shape == want.shape == (m,) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrate_shot_matches_textbook_rk4(p, n):
    # coarse grids, where a last-bit change in a stage still reaches w(1),
    # and center values from early deaths to survivors, whose recorded
    # profiles w and w' are the textbook's too
    for m in (2, 3, 5, 11, 101):
        for a in np.geomspace(1e-3, 3.0, 65):
            value, node = _integrate_shot(a, p, n, m)
            assert (value, node) == _textbook_shot(a, p, n, m)
            if value >= 0.0:
                assert_same_profile(a, p, n, m)


@pytest.mark.parametrize("p, n", [(1.0, 1), (1.0, 2), (2.0, 1), (4.0, 1)])
def test_integrate_shot_records_the_textbook_profile_at_the_centers(traced_steady_state,
                                                                    p, n):
    # the steady states the manifests and the benchmark read: the profile from
    # the center, and the shots 2 ulps on either side of it
    a = traced_steady_state(p, n)[1].center_value
    for center in (a, math.nextafter(math.nextafter(a, 0.0), 0.0),
                   math.nextafter(math.nextafter(a, 1.0), 1.0)):
        assert _integrate_shot(center, p, n, 4001) == _textbook_shot(center, p, n, 4001)
    assert_same_profile(a, p, n, 4001)


def test_integrate_shot_errors():
    # a recording shot has no profile to return once it has died
    with pytest.raises(NumericError, match="died before the boundary"):
        _integrate_shot(0.0009583333333333334, 1.0, 1, 101, record=True)
    with pytest.raises(NumericError, match=r"w\(0\) = 0\.0001: w\^\(1-p\) overflows"):
        _integrate_shot(1e-4, 200.0, 1, 101, record=True)
    # a root-finding shot whose w^(1-p) overflows has died in that step
    assert _integrate_shot(1e-4, 200.0, 1, 101) == (-1.0, 0.0)


@given(a=st.floats(1e-4, 50.0, exclude_min=True, exclude_max=True),
       p=st.floats(1.0, 300.0), n=st.sampled_from([1, 2, 3]), m=st.integers(3, 201))
def test_root_finding_shot_never_raises(a, p, n, m):
    # a death before the last step returns its node r with the deficit -(1 - r)
    value, node = _integrate_shot(a, p, n, m)
    assert node is None or (0.0 <= node < 1.0 and value == -(1.0 - node))


def test_steady_state_bracket_error():
    # at n = 5000 w(1; a) < 0 at both ends of the shooting bracket
    with pytest.raises(InputError, match="does not straddle the boundary root"):
        solve_steady_state(1.0, 5000, 501)


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


def test_envelope_stretched_exp():
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    assert env.lam(2.0) == pytest.approx(4.0)
    assert env.lam_inv(4.0) == pytest.approx(2.0)
    assert env.floor(1.0) == pytest.approx(math.exp(-1.0))


def test_envelope_double_exp_inverse():
    env = DecayEnvelope(kind="DoubleExp", c0=1.0, alpha=2.0, beta=1.0, gamma=1.0)
    sigma = env.lam(3.0)
    assert env.lam_inv(sigma) == pytest.approx(3.0, rel=1e-12)


def test_envelope_double_exp_needs_positive_gamma():
    # gamma <= 0 leaves Lambda flat (gamma = 0) or decreasing (gamma < 0)
    for gamma in (None, 0.0, -1.0):
        with pytest.raises(InputError, match="DoubleExp envelope needs gamma > 0"):
            DecayEnvelope(kind="DoubleExp", c0=1.0, alpha=1.0, beta=1.0, gamma=gamma)


def test_lower_bound_curve_specializations():
    t = np.geomspace(10.0, 1e4, 30)
    # stretched exponential, beta=2, p=1: curve = C t^-1 (c1 ln t)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    np.testing.assert_allclose(lower_bound_curve(env, 1.0, 2.0, t),
                               2.0 * t**-1.0 * (0.5 * np.log(t)), rtol=1e-12)
    # doubly exponential, gamma=1, p=1: curve = C t^-1 ln(c1 ln t)^2
    envd = DecayEnvelope(kind="DoubleExp", c0=1.0, alpha=1.0, beta=1.0, gamma=1.0)
    td = np.geomspace(100.0, 1e4, 10)
    np.testing.assert_allclose(lower_bound_curve(envd, 1.0, 1.0, td),
                               td**-1.0 * np.log(0.5 * np.log(td)) ** 2, rtol=1e-12)


def test_subsolution_boundary_and_initial_structure():
    state = solve_steady_state(1.0, 1, 2001)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    spec = build_subsolution(env, 1.0, state, tau0=3.0)
    assert spec.R_tau0 == pytest.approx(math.sqrt(1.5))
    # delta = R^{-2/p} exp(-c1 tau0) / sup(w_1) with c1 = 1/(2p)
    assert spec.delta == pytest.approx(
        spec.R_tau0 ** (-2.0 / 1.0) * math.exp(-3.0 / (2.0 * 1.0)) / state.w.max(), rel=1e-14)
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
    # the datum's margin is initial_margin; min_margin and snapshots_checked
    # are the trajectory's, every snapshot with t > 0
    assert rep.snapshots_checked == len(run.times) - 1


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


def test_subsolution_check_needs_the_datum_at_t0():
    # without a snapshot at t = 0 the first row is u(t_1), not the datum; the
    # check refuses the run rather than judge u(t_1) against the floor
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: np.exp(-r**2))
    run = evolve(spec, ApproxParams(R=10.0, eps=1e-4, m=251), 5.0, [0.01, 5.0])
    state = solve_steady_state(1.0, 1, 1001)
    env = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
    sub = build_subsolution(env, 1.0, state, tau0=1.5)
    with pytest.raises(InputError, match="first snapshot is at t = 0.01, not at t = 0"):
        subsolution_check(run, sub, state)
