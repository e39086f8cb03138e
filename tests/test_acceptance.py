"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The expensive trajectories are shared through module-scoped fixtures.  The
two costly ones are the shipped configs themselves, run through the CLI:
``pde_decay_sandwich.json`` gives the long two-sided-rate run (criterion 9),
which also serves the subsolution certificate (10), the baseline (11) and the
sup-from-Lq sweep (7), and ``ladder.json`` gives the ladder (5).  So a change
to either config is judged here, and the manifests of both runs, and of a
run of ``lower_bound.json``, are pinned.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from decaylab import bounds, evolution, rates
from decaylab.bounds import (DecayEnvelope, build_subsolution, logistic_exact,
                             solve_steady_state, subsolution_check)
from decaylab.cli import EXIT_PASS, EXIT_VERDICT, run_experiment
from decaylab.evolution import (PROXY_TOL, ApproxParams, ProblemSpec, evolve,
                                linfty_from_lq_check, lyapunov_series,
                                semiconvexity_check)
from decaylab.gn import FamilySpec, family_scan
from decaylab.radial import RadialGrid, grad_l2_norm
from decaylab.rates import (baseline_check, fit_decay, lower_bound_persistence,
                            rate_model, rate_window, upper_bound_check)
from decaylab.steepness import (SteepnessFunction, check_convexity_condition,
                                check_near_multiplicativity, check_ratio_bound,
                                solve_transcendental)

GAUSS_ENV = DecayEnvelope(kind="StretchedExp", c0=1.0, alpha=1.0, beta=2.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def report(criterion: int, passed: bool, detail: str):
    print(f"criterion {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


# -- shared expensive runs ----------------------------------------------------

def run_shipped(name: str, out_dir: Path):
    """Run configs/<name>.json through the CLI into out_dir, which must exit 0.

    Returns the ladder of the CLI's one call of
    ``evolution.minimal_solution_ladder``, that call's wall time in seconds,
    and out_dir.
    """
    real = evolution.minimal_solution_ladder
    calls = []

    def capture(*args, **kwargs):
        t0 = time.perf_counter()
        result = real(*args, **kwargs)
        calls.append((result, time.perf_counter() - t0))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "minimal_solution_ladder", capture)
        assert run_experiment(CONFIGS / f"{name}.json", out_dir) == EXIT_PASS
    (call,) = calls
    return (*call, out_dir)


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """configs/pde_decay_sandwich.json: p=1 Gaussian datum evolved to t = 1e4
    at m = 4001 (criteria 7, 9, 10, 11), a ladder of one member, whose proxy
    is the run the CLI judged."""
    ladder, elapsed, out_dir = run_shipped("pde_decay_sandwich",
                                           tmp_path_factory.mktemp("sandwich"))
    return ladder.proxy, elapsed, out_dir


@pytest.fixture(scope="module")
def ladder(tmp_path_factory, perfbench_tracer):
    """configs/ladder.json: the (eps, R) grid for the strongly degenerate datum
    of criterion 5, and the solves that perfbench's tracer counted in it."""
    tracer = perfbench_tracer.Tracer()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "dgtsv", tracer.leaf("evolution.dgtsv", evolution.dgtsv))
        result, _, out_dir = run_shipped("ladder", tmp_path_factory.mktemp("ladder"))
    traced = sum(calls for calls, _, _ in tracer.leaves.values())
    return result, out_dir, traced


@pytest.fixture(scope="module")
def lower_bound_dir(tmp_path_factory):
    """The run directory of configs/lower_bound.json, whose certificate judges
    the trajectory of pde_decay_sandwich.json."""
    return run_shipped("lower_bound", tmp_path_factory.mktemp("lower_bound"))[2]


@pytest.fixture(scope="module")
def gaussian_run_p1():
    """p=1 Gaussian run on [0, 100] (criteria 4, 6, 7)."""
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: np.exp(-r**2))
    params = ApproxParams(R=20.0, eps=1e-3, m=1001)
    snaps = np.concatenate([[0.0], np.geomspace(0.1, 100.0, 33)])
    return evolve(spec, params, 100.0, snaps)


@pytest.fixture(scope="module")
def gaussian_run_p2():
    """p=2 Gaussian run on [0, 100] (criteria 6, 7)."""
    spec = ProblemSpec(p=2.0, n=1, u0=lambda r: np.exp(-r**2))
    params = ApproxParams(R=20.0, eps=1e-3, m=1001)
    snaps = np.concatenate([[0.0], np.geomspace(0.1, 100.0, 33)])
    return evolve(spec, params, 100.0, snaps)


# -- criteria -----------------------------------------------------------------

def test_criterion_01_steady_state_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        state = solve_steady_state(1.0, n, 4001)
        exact = (1.0 - state.r_nodes**2) / (2.0 * n)
        worst = max(worst, float(np.max(np.abs(state.w - exact))))
    elapsed = time.perf_counter() - t0
    # the degenerate touchdowns, against their closed-form centers in n = 1
    center_err = {p: solve_steady_state(p, 1, 4001).center_value / exact - 1.0
                  for p, exact in ((2.0, 1.0 / math.sqrt(math.pi)), (4.0, 1.0 / math.sqrt(2.0)))}
    report(1, worst <= 1e-6 and elapsed < 1.0,
           f"max |w - (1-r^2)/(2n)| = {worst:.2e}, runtime {elapsed:.2f}s; center "
           f"error {center_err[2.0]:.1e} at (p, n) = (2, 1), {center_err[4.0]:.1e} at (4, 1)")


def scaled_logistic_residual(tau, delta: float, p: float) -> float:
    """Max |y' - (y - y^{p+1})/p| / (1 + |rhs|) of the closed form y over the
    interior of the grid tau, y' by numpy's second-order three-point difference;
    scaling by the local rate keeps it meaningful through the stiff transient
    of a large delta."""
    y = logistic_exact(tau, delta, p)
    rhs = (y - y ** (p + 1.0)) / p
    return float(np.max((np.abs(np.gradient(y, tau) - rhs) / (1.0 + np.abs(rhs)))[1:-1]))


def test_criterion_02_logistic_ode_oracle():
    # the mild case p = 1, delta = 0.5 on a uniform step, then every regime on
    # a geometric grid, which resolves the stiff initial transient of large delta
    worst = scaled_logistic_residual(np.arange(0.0, 10.0, 1e-3), 0.5, 1.0)
    grid = np.unique(np.concatenate([[0.0], np.geomspace(1e-5, 10.0, 46000)]))
    for p in (1.0, 2.0, 3.0):
        for delta in (0.1, 1.0, 10.0):
            worst = max(worst, scaled_logistic_residual(grid, delta, p))
            # exact up to the power-function roundtrip (delta^-p)^(-1/p)
            assert logistic_exact(0.0, delta, p) == pytest.approx(delta, rel=1e-13)
    flat = logistic_exact(np.array([0.0, 1.0, 7.0]), 1.0, 2.0)
    ok = worst <= 1e-6 and np.all(flat == 1.0)
    report(2, ok, f"max scaled residual = {worst:.2e}, delta=1 stationary")


def test_criterion_03_steepness_audit():
    t0 = time.perf_counter()
    lam = np.linspace(1e-3, 0.999, 300)
    worst = -math.inf
    for kappa in (0.5, 1.0, 2.0):
        L = SteepnessFunction.log_type(kappa, 4.0, lambda0=1.0)
        s = np.geomspace(1e-8, L.s0 * 0.9999, 300)
        s_unit = np.geomspace(1e-8, 0.9999, 300)
        checks = [check_near_multiplicativity(L, s, lam), check_ratio_bound(L, s_unit),
                  check_convexity_condition(L, s)]
        D = SteepnessFunction.double_log_type(kappa, math.e**3, 1.0, lambda0=1.0)
        sd = np.geomspace(1e-8, 0.9999, 300)
        checks += [check_near_multiplicativity(D, sd, lam), check_ratio_bound(D, sd),
                   check_convexity_condition(D, sd)]
        worst = max(worst, max(c.max_violation for c in checks))
    elapsed = time.perf_counter() - t0
    report(3, worst <= 1e-12 and elapsed < 10.0,
           f"max violation = {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_04_lyapunov_descent(gaussian_run_p1):
    L = SteepnessFunction.log_type(2.0, 4.0)
    series = lyapunov_series(gaussian_run_p1, L, q=1.0)  # raises on any ascent
    rises = np.diff(series) - 1e-8 * (1.0 + np.abs(series[:-1]))
    report(4, bool(np.all(rises <= 0)),
           f"descent over {series.size} snapshots, range "
           f"[{series[-1]:.4f}, {series[0]:.4f}]")


def test_criterion_05_monotone_ladders(ladder):
    result, _, _ = ladder
    last_pair = result.eps_cauchy[-1]
    r_pair = result.R_cauchy[-1]  # datum has compact numerical support << R
    ok = (result.eps_violation <= 1e-8 and result.R_violation <= 1e-8
          and last_pair < 1e-3 and r_pair < 1e-4)
    report(5, ok,
           f"monotonicity violations (eps {result.eps_violation:.1e}, "
           f"R {result.R_violation:.1e}), last-two-level sup diff {last_pair:.2e}, "
           f"R-pair diff {r_pair:.1e}")


def test_ladder_judged_on_backward_euler_passes(ladder):
    # the lead's adaptive pass, one replay per R = 40 member and the proxy's
    # own adaptive pass at PROXY_TOL with its replays in halves and in thirds;
    # the R = 20 members are the R = 40 members' rows (test below)
    result, _, traced = ladder
    assert traced == result.solves == 3193
    assert result.rows == 1926223
    assert result.eps_violation == result.R_violation == 0.0
    assert result.R_cauchy == [0.0]
    # the eps differences of the extrapolated members (at TOL = 1e-5; they
    # move by 2e-9 relative at 2.5e-5), which the passes' differences
    # approximate to 1.9e-3 relative, a distance that grows as TOL^(1/2)
    extrapolated = [0.004377761701701719, 0.00043302411249397486]
    np.testing.assert_allclose(result.eps_cauchy, extrapolated, rtol=2e-3, atol=0.0)


def ladder_skips(result, eps_list, R_list, m):
    """The members of the ladder ``result`` whose rows are a view of the
    biggest ball's rows of their eps; each is asserted to equal, bit for bit,
    its own backward-Euler pass on the lead's schedule.  Returns those
    members, the lead's pass and the solves of their own passes."""
    spec, snaps, R_max = result.proxy.spec, result.proxy.times, R_list[-1]
    params = evolution.ladder_params(eps_list, R_list, m)
    lead = evolution._be_pass(spec, params[eps_list[0], R_max], snaps)
    skipped, solves = [], 0
    for key, rows in result.members.items():
        if key[1] != R_max and np.shares_memory(rows, result.members[key[0], R_max]):
            own = evolution._be_pass(spec, params[key], snaps, lead.dts)
            assert np.array_equal(own.rows, rows), key
            skipped.append(key)
            solves += own.stepper.solves
    return skipped, lead, solves


def test_ladder_skips_the_small_balls_its_big_ones_repeat(ladder):
    # the windows of every R = 40 pass end inside R = 20 and the lifted data
    # agree there, so the R = 20 members are the R = 40 members' first 1001
    # columns, which their own passes reproduce bit for bit
    result, _, _ = ladder
    cfg = shipped("ladder")["approx"]
    eps_list, R_list = cfg["ladder"]["eps_list"], cfg["ladder"]["R_list"]
    skipped, lead, solves = ladder_skips(result, eps_list, R_list, cfg["m"])
    assert skipped == [(eps, 20.0) for eps in eps_list]
    assert solves == 3 * lead.dts.size == 5143 - 3193


def test_sandwich_ladder_skips_its_small_balls():
    # the rate problem's datum on an (eps, R) ladder to t = 1e4: every R = 10
    # member is the R = 20 member's rows, 7,172 of 17,921 solves not taken
    cfg = shipped("pde_decay_sandwich")
    spec = ProblemSpec(p=cfg["problem"]["p"], n=cfg["problem"]["n"],
                       u0=DecayEnvelope(**cfg["problem"]["u0"]).floor)
    snaps = np.concatenate([[0.0], np.geomspace(cfg["snapshots"]["t_min"], cfg["t_end"],
                                                cfg["snapshots"]["count"])])
    eps_list, R_list = [1e-6, 1e-8, 1e-10, 1e-12], [10.0, 20.0]
    result = evolution.minimal_solution_ladder(spec, eps_list, R_list, 501, cfg["t_end"], snaps)
    skipped, _, solves = ladder_skips(result, eps_list, R_list, 501)
    assert skipped == [(eps, 10.0) for eps in eps_list]
    assert result.solves == 10749 and result.solves + solves == 17921
    assert result.R_violation == 0.0 and result.R_cauchy == [0.0]


def test_ladder_runs_a_small_ball_its_windows_pass(ladder):
    # ladder.json with R_list [5, 40]: the widest pinned row, r = 11.54 in the
    # lead's pass (12.28 in the eps = 1e-4 one), lies outside R = 5, and the
    # R = 5 datum is cut off where the R = 40 one is not, so every member
    # takes its own pass
    result, _, _ = ladder
    cfg = shipped("ladder")
    eps_list, R_list, m = cfg["approx"]["ladder"]["eps_list"], [5.0, 40.0], cfg["approx"]["m"]
    control = evolution.minimal_solution_ladder(result.proxy.spec, eps_list, R_list, m,
                                                cfg["t_end"], result.proxy.times)
    skipped, lead, _ = ladder_skips(control, eps_list, R_list, m)
    assert skipped == [] and (lead.stepper.widest - 1) * 0.02 == pytest.approx(11.54)
    assert control.solves == (lead.stepper.solves + 5 * lead.dts.size
                              + control.proxy.stats["solves"])


def test_criterion_06_semiconvexity(gaussian_run_p1, gaussian_run_p2, monkeypatch):
    m1 = semiconvexity_check(gaussian_run_p1)
    m2 = semiconvexity_check(gaussian_run_p2)
    # refinement study: the negative part must not grow under dt, h refinement
    snaps = np.concatenate([[0.0], np.geomspace(0.2, 10.0, 10)])
    spec = ProblemSpec(p=1.0, n=1, u0=lambda r: np.exp(-r**2))
    coarse = semiconvexity_check(
        evolve(spec, ApproxParams(R=10.0, eps=1e-3, m=126), 10.0, snaps))
    monkeypatch.setattr(evolution, "PROXY_TOL", PROXY_TOL / 4)
    fine = semiconvexity_check(
        evolve(spec, ApproxParams(R=10.0, eps=1e-3, m=501), 10.0, snaps))
    improves = max(0.0, -fine) <= max(0.0, -coarse) + 1e-9
    ok = m1 >= -0.05 and m2 >= -0.05 and improves
    report(6, ok, f"min(p=1) = {m1:.2e}, min(p=2) = {m2:.2e}, "
                  f"refined {coarse:.2e} -> {fine:.2e}")


def test_criterion_07_linfty_from_lq(gaussian_run_p1, gaussian_run_p2, ladder,
                                     long_run):
    run9, _, _ = long_run
    ladder_result, _, _ = ladder
    worst = -math.inf
    for run in (gaussian_run_p1, gaussian_run_p2, ladder_result.proxy, run9):
        ratio, _ = linfty_from_lq_check(run, q=1.0)
        worst = max(worst, ratio)
    report(7, worst <= 1.0 + 1e-6, f"worst sup/Lq-bound ratio = {worst:.4f}")


def test_criterion_08_gn_boundedness_and_sharpness():
    # amplitudes pair with the widths so the squared gradient norms sweep the
    # decaying branch of L: targets ln(M/x_j) follow a geometric design with
    # ratio (2 * flat^{1/4}) against widths 16 .. 1
    kappa, M, n, q = 4.0, 4.0, 3, 2.0
    L = SteepnessFunction.log_type(kappa, M)
    grid = RadialGrid(n, 80.0, 8001)
    G = grad_l2_norm(grid, np.exp(-grid.nodes**2)) ** 2
    alpha = 1.0 / q - (n - 2.0) / (2.0 * n)
    flat, e_top = 2.35, 0.52
    widths = [16.0, 8.0, 4.0, 2.0, 1.0]
    gains = [e_top / (2.0 * flat**0.25) ** (4 - j) for j in range(5)]
    targets = [e ** (-1.0 / (kappa * alpha)) for e in gains]
    grads_sq = [M * math.exp(-ell) for ell in targets]
    scales = [math.sqrt(x / (w * G)) for x, w in zip(grads_sq, widths)]

    fam = FamilySpec(GAUSS_ENV, scales=scales, widths=widths)
    scan = family_scan(fam, grid, q, L, sharpness_scale=1.25)
    doc = scan.summary()
    spread, span = doc["scan"]["ratio_spread"], doc["scan"]["grad_span"]
    growth = scan.rows[-1].probe_ratio / scan.rows[0].probe_ratio
    ok = (spread <= 3.0 and span >= 100.0 and doc["probe"]["monotone_increasing"]
          and growth >= 5.0)
    report(8, ok, f"ratio spread {spread:.2f} over {span:.1e} gradient span; "
                  f"sharpness probe grows {growth:.2f}x monotonically")


def rate_inputs(run):
    """Envelope, gauge and window mask of the rate section of pde_decay_sandwich.json."""
    doc = shipped("pde_decay_sandwich")
    env = DecayEnvelope(**doc["envelope"])
    # the gauge exponent is kappa = n/beta + n p delta/2
    _, model, L = rate_model(env, run.spec.p, run.spec.n, doc["rate"]["delta"])
    return env, L, rate_window(run.times, tuple(doc["rate"]["window"]), model), model


def test_criterion_09_rate_sandwich(long_run):
    run, elapsed, _ = long_run
    env, L, in_window, model = rate_inputs(run)
    t, sup = run.times[in_window], run.series["sup_norm"][in_window]
    fit = fit_decay(t, sup, 1.0, model)
    upper = upper_bound_check(t, sup, L, 1.0, 1)
    lower = lower_bound_persistence(t, sup, env, 1.0)
    # bracketing over the final two decades specifically
    tail = t >= 100.0
    up_curve = upper.C * t[tail] ** -1.0 * L.value(1.0 / t[tail]) ** -2.0
    low_curve = lower.C * t[tail] ** -1.0 * (0.5 * np.log(t[tail]))
    bracket = (np.max(sup[tail] / up_curve) <= 1.1
               and np.max(low_curve / sup[tail]) <= 1.1)
    solves = run.stats["solves"]  # all three backward-Euler passes, retries included
    ok = (0.9 <= fit.sigma <= 1.6 and upper.passed and lower.passed
          and bracket and elapsed <= 600.0 and solves <= 30000)
    report(9, ok, f"sigma = {fit.sigma:.3f} in [0.9, 1.6]; upper ratio "
                  f"{upper.worst_ratio:.3f}, lower ratio {lower.worst_ratio:.3f}; "
                  f"runtime {elapsed:.0f}s, {solves} solves")


def sandwich_of(out_dir: Path) -> dict:
    """The rate verdict of the run in out_dir, which its manifest records."""
    return json.loads((out_dir / "manifest.json").read_text())["verdict"]["sandwich"]


def test_sigma_time_error_within_its_budget(long_run, tmp_path, monkeypatch):
    # evolution.PROXY_TOL is chosen from sigma's time error: on the shipped
    # rate problem, at its own m = 4001, sigma lies within 5e-4 (a quarter of
    # the benchmark's 2e-3) of sigma at PROXY_TOL/16 (measured -1.96e-4), and
    # the verdict's time term is at least that distance (2.7e-3).  sigma's
    # error falls as PROXY_TOL^(3/2) (third order in dt), so sigma at
    # PROXY_TOL/16 is 64 times closer to the limit; the two must differ, or
    # the patch did not reach the judged trajectory
    _, _, out_dir = long_run
    config = CONFIGS / "pde_decay_sandwich.json"
    judged = sandwich_of(out_dir)
    sigma, term = judged["fit"]["sigma"], judged["sigma_time_term"]
    with monkeypatch.context() as patch:
        patch.setattr(evolution, "PROXY_TOL", PROXY_TOL / 16)
        assert run_experiment(config, tmp_path / "tol_16") == EXIT_PASS
    error = abs(sigma - sandwich_of(tmp_path / "tol_16")["fit"]["sigma"])
    assert 0.0 < error <= 5e-4 and term >= error, (error, term)
    lo, hi = judged["sigma_window"]
    assert lo <= sigma - term and sigma + term <= hi
    # negative control: the window's lower edge within the time term of sigma,
    # below sigma itself, fails the verdict
    monkeypatch.setattr(rates, "EXPONENT_SLACK", judged["sigma_target"] - sigma + 0.5 * term)
    out = tmp_path / "edge"
    assert run_experiment(config, out) == EXIT_VERDICT
    moved = sandwich_of(out)
    assert moved["fit"] == judged["fit"] and moved["sigma_window"][0] < sigma
    assert not moved["sigma_ok"] and moved["upper"]["passed"] and moved["lower"]["passed"]


def test_criterion_10_subsolution_certificate(long_run):
    # the certificate of lower_bound.json, judged on the trajectory of
    # pde_decay_sandwich.json (test_cli checks that the two share it)
    run, _, _ = long_run
    doc = shipped("lower_bound")
    cert, env = doc["certificate"], DecayEnvelope(**doc["envelope"])
    state = solve_steady_state(run.spec.p, run.spec.n, bounds.STEADY_M)
    worst = math.inf
    details = []
    for tau0 in cert["tau0_list"]:
        sub = build_subsolution(env, run.spec.p, state, tau0)
        rep = subsolution_check(run, sub, state)
        worst = min(worst, rep.min_margin)
        details.append(f"tau0={tau0:.2f}: {rep.min_margin:.4f}")
    report(10, worst >= 0.0, "margins " + ", ".join(details))


# lower_bound's min_margin over t > 0 at its four horizons, and the number of
# snapshots with t > 0 up to each
LOWER_BOUND_MARGINS = [(0.3076690456189148, 49), (0.10287202376888155, 65),
                       (0.03279930552693175, 81), (0.010332930564621385, 97)]


def test_certificate_min_margin_is_the_trajectory_margin(long_run, lower_bound_dir):
    # the datum's margin is initial_margin, checked when the run is read; each
    # min_margin is the trajectory's own, above the datum's on every horizon
    run, _, _ = long_run
    margins = json.loads((lower_bound_dir / "manifest.json").read_text())["verdict"]["margins"]
    pinned = [(row["min_margin"], row["snapshots_checked"]) for row in margins]
    assert pinned == LOWER_BOUND_MARGINS
    assert all(row["min_margin"] > row["initial_margin"] for row in margins)
    # each is the margin at the first snapshot after the datum, t = 0.01
    t, p = run.times[1], run.spec.p
    assert t == 0.01
    env = DecayEnvelope(**shipped("lower_bound")["envelope"])
    state = solve_steady_state(p, run.spec.n, bounds.STEADY_M)
    for row in margins:
        sub = build_subsolution(env, p, state, row["tau0"])
        ball = run.grid.nodes <= sub.R_tau0
        w = bounds.evaluate_steady_state(state, sub.R_tau0, run.grid.nodes[ball])
        z = (t + 1.0) ** (1.0 / p) * run.values[1, ball]
        y = logistic_exact(math.log1p(t), sub.delta, p)
        assert float((z - y * w).min()) == row["min_margin"]


def test_time_error_is_the_largest_snapshot_error(long_run):
    # the one time-error figure is each snapshot's max|E3 - E2| over its own
    # sup, at its largest: reached late, at t = 649.4, inside the rate window
    # [10, 1e4] (over the datum's sup, the largest gap read 1.04e-4)
    run, _, out_dir = long_run
    errors = run.stats["snapshot_time_error"]
    worst = max(errors)
    verdict = json.loads((out_dir / "manifest.json").read_text())["verdict"]
    assert verdict["time_error"] == run.stats["time_error"] == worst == 0.006185468209303434
    at = run.times[errors.index(worst)]
    assert at == pytest.approx(649.38, abs=0.01)
    assert 10.0 <= at <= 1e4


def test_criterion_11_baseline(long_run):
    run, _, _ = long_run
    _, _, in_window, _ = rate_inputs(run)
    bl = baseline_check(run.times[in_window], run.series["sup_norm"][in_window], 1.0)
    report(11, bl.passed,
           f"compensated sup increasing over final decade: {bl.increasing_tail}; "
           f"envelope ratio {bl.envelope_worst_ratio:.2f} (headroom {bl.headroom})")


def test_judged_runs_stay_radially_nonincreasing(long_run, ladder):
    # every CLI datum is an envelope floor, so it is radially decreasing, and
    # the judged run keeps it so up to roundoff: each row's maximum is at
    # r = 0, so the sup series the baseline reads is the run's center value
    run9, _, _ = long_run
    ladder_result, _, _ = ladder
    for run in (run9, ladder_result.proxy):
        rise = float(np.diff(run.values, axis=1).max())
        assert rise <= evolution.FLOOR_TOL * run.params.eps, rise
        assert np.array_equal(run.values[:, 0], run.values.max(axis=1))
        assert np.array_equal(run.series["sup_norm"], run.values[:, 0])


# sha256 of manifest.json of each shipped config that evolves in time (the
# others are test_cli.STATIC_MANIFESTS).  The sandwich's moved twice: when its
# single run became a one-member ladder, the config's approx, the verdict's
# ladder key and ladder_report.json were new, and every other artifact kept its
# bytes; when its gauge came to be derived from the envelope and delta, only
# the config echo lost its L; when L came to be evaluated from ln s,
# upper_curve.csv moved by at most 1.1e-15 relative and the sandwich's upper C
# and worst_ratio by 4e-16; both it and ladder moved with every trajectory
# artifact when evolution.TOL went from 1e-5 to 2.5e-5, and the sandwich's
# verdict gained sigma_time_term and time_error_window; both moved in the
# artifact list alone when the manifest came to be the one record of the
# verdict: center_value.csv and ladder_report.json went from both, and
# sandwich.json and baseline.json from the sandwich's.  When the envelope floor
# came to be exp(-Lambda), ladder's datum (c0 = 2) moved by 2.2e-16 relative,
# its snapshots and sup_norm.csv by at most 3.8e-14, its eps Cauchy
# differences by 2.2e-11 and its time_error by 1.6e-11 relative; when the flux
# residual came to be Simpson's rule on the grid's spacing, lower_bound's
# steady_flux_residual went from 7.7e-14 to 0.0; lower_bound moved again when
# margins.json, whose every key the verdict holds, went from its artifacts and
# its verdict gained certificate_pass.  All three moved when the judged run
# came to be the third-order extrapolation of its own adaptive pass at
# evolution.PROXY_TOL: every artifact of the proxy and the verdict's
# time_error, and the sandwich's and the certificate's numbers that read it;
# ladder's members and eps Cauchy differences kept their bits.  All three
# moved when a step came to solve only its window's rows: their profiles (all
# but profile_t0.csv) and lq_1.csv by at most 9.6e-13 relative, far-field
# values a roundoff above eps coming to read eps; ladder's verdict kept its
# bits, lower_bound's moved in one center_margin_at_tau0 (5.7e-14) and the
# sandwich's in sigma (3.5e-15), C_fit, rms_residual, the baseline's worst
# ratio and sigma_time_term (1.6e-11), every pass unchanged.  All three moved
# in the artifact list alone when a run came to write one table per axis:
# the profiles were merged into profiles.csv, sup_norm.csv and lq_1.csv into
# series.csv and the sandwich's two curves into bound_curves.csv, every
# number, config and verdict unchanged.  All three moved in the verdict alone
# when each of its numbers came to be recorded once: time_error became the
# largest snapshot error relative to its own sup (the sandwich's
# time_error_window, which went), lower_bound's min_margin and
# snapshots_checked came to be the trajectory's, over t > 0, and the copies
# fit.p_fit, upper.t0, lower.t0 and ladder.members went
TRAJECTORY_MANIFESTS = {
    "pde_decay_sandwich": "4192f019768db1a3cd8ea56ccfcb04012de171e9016c5f947b891d6fd55264c3",
    "ladder": "46310c65b14768ececee8db54dd56f8f61d4c0006db37c815a8a2f3b19c1ac4a",
    "lower_bound": "dc4317d69859c8d20fa2d7ad449eb550569995e41f3990053b7912b5cbc40519",
}


def test_shipped_trajectory_manifests_pinned(long_run, ladder, lower_bound_dir,
                                             assert_one_record):
    # the time-stepping configs give the same bytes as earlier builds: the
    # manifest holds the config, every artifact's sha256 and the verdict, and
    # each artifact on disk matches its listed sha256.  Each run records each
    # number once
    _, _, sandwich_dir = long_run
    _, ladder_dir, _ = ladder
    out_dirs = {"pde_decay_sandwich": sandwich_dir, "ladder": ladder_dir,
                "lower_bound": lower_bound_dir}
    for name, sha in TRAJECTORY_MANIFESTS.items():
        out_dir = out_dirs[name]
        manifest = out_dir / "manifest.json"
        for entry in json.loads(manifest.read_text())["artifacts"]:
            digest = hashlib.sha256((out_dir / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"], (name, entry["path"])
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == sha, name
        assert_one_record(out_dir)


# criterion 12's deltas: 60 from 1e-2 down to 1e-200, one in each of 60 equal
# slices of the exponent, placed at random in its slice, so on no grid
TRANSCENDENTAL_DELTAS = (1e-2 * 1e-198 ** ((np.arange(60) + np.random.default_rng(12).random(60))
                                            / 60)).tolist()
LOG_GAUGE = SteepnessFunction.log_type(1.0, 4.0)


def transcendental_check(solve, gauges):
    """Criterion 12's check of ``solve`` on each gauge at every delta: whether
    the brute-force/bound ratio stays within 1 + 1e-12, and a line naming the
    worst ratio, its delta and the number of points checked."""
    beta, gamma, delta0 = 0.8, 0.5, 1e-2
    ratios = []
    for L in gauges:
        for delta in TRANSCENDENTAL_DELTAS:
            eta_bf, eta_bound = solve(L, beta, gamma, delta, delta0)
            ratios.append((eta_bf / eta_bound, delta))
    worst, at = max(ratios)
    return worst <= 1.0 + 1e-12, (f"max brute-force/bound ratio = {worst:.12f} at delta = "
                                  f"{at:.4g} over {len(ratios)} points")


def test_criterion_12_transcendental_bound():
    report(12, *transcendental_check(
        solve_transcendental, (LOG_GAUGE, SteepnessFunction.power_law(1.0))))


def test_criterion_12_fails_on_a_short_constant():
    # negative control: with C x 0.99 the log-type row fails; its ratio nears
    # the limit C = 1.1497 from below, 0.995 C by delta = 1e-200
    def short(*args):
        eta_bf, eta_bound = solve_transcendental(*args)
        return eta_bf, 0.99 * eta_bound
    passed, detail = transcendental_check(short, (LOG_GAUGE,))
    assert not passed, detail
