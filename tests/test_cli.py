import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from decaylab import bounds, cli, evolution
from decaylab.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_PASS, EXIT_VERDICT, main,
                          run_experiment)
from decaylab.errors import InputError, NumericError
from decaylab.steepness import HypothesisReport
from test_acceptance import TRAJECTORY_MANIFESTS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_json(path):
    return json.loads(path.read_text())


def verdict_of(out):
    """The verdict of the run in out, which its manifest alone records."""
    return read_json(out / "manifest.json")["verdict"]


def with_field(doc, dotted, value):
    """A deep copy of doc with the field at the dotted path set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = dotted.split(".")
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


TINY_DECAY = {
    "name": "tiny",
    "mode": "pde_decay",
    "problem": {"p": 1.0, "n": 1,
                "u0": {"kind": "StretchedExp", "c0": 1.0, "alpha": 1.0, "beta": 2.0}},
    "approx": {"ladder": {"eps_list": [1e-3], "R_list": [10.0]}, "m": 251},
    "t_end": 5.0,
    "snapshots": {"t_min": 0.5, "count": 6},
    "observers": ["lq:1"],
}


def test_steady_state_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "name": "ss", "mode": "steady_state", "problem": {"p": 1.0, "n": 2},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    summary = verdict_of(out)
    assert summary["center_value"] == pytest.approx(0.25, abs=1e-8)
    assert summary["pass"]
    manifest = read_json(out / "manifest.json")
    assert {e["path"] for e in manifest["artifacts"]} == {"steady_state.csv"}
    # manifest checksums match the bytes on disk
    for entry in manifest["artifacts"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_lfunction_audit_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "name": "audit", "mode": "lfunction_audit",
        "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    audit = verdict_of(out)
    assert audit["pass"]
    assert set(audit["checks"]) == {"near_multiplicativity", "ratio_bound",
                                    "convexity"}


def test_lfunction_audit_judges_a_steep_gauge(tmp_path):
    # at kappa = 400 L(s) underflows to 0 on most of the grid, so the audit
    # compares logarithms; at kappa = 1000, a = 2^1000 - 1 and a / ln(1/s)
    # overflows, so the ratio bound compares s L'/L ln(1/s) with a; a
    # RuntimeWarning (0/0, say) fails this test
    for kappa in (400.0, 1000.0):
        doc = read_json(CONFIGS / "lfunction_audit.json")
        doc["L"]["kappa"] = kappa
        out = tmp_path / f"run_{kappa:g}"
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(out)]) in (EXIT_PASS, EXIT_VERDICT)
        checks = verdict_of(out)["checks"]
        values = [v for check in checks.values() for v in check.values()
                  if not isinstance(v, bool)]
        assert len(values) == 7 and all(math.isfinite(v) for v in values)


def test_lfunction_audit_judges_an_overflowing_gauge(tmp_path):
    # at kappa = 2000, lambda0 = 0.01, L' and L'' overflow near s0, and the
    # convexity check divided inf by inf: the verdict was NaN (exit 3)
    doc = read_json(CONFIGS / "lfunction_audit.json")
    doc["L"].update(kappa=2000.0, lambda0=0.01)
    out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_PASS
    checks = verdict_of(out)["checks"]
    assert checks["convexity"] == {"max_violation": -1.0, "worst_s": 1e-8, "pass": True}


@pytest.mark.parametrize("gauge", [{"kind": "LogType", "kappa": 2.0, "M": 4.0},
                                   {"kind": "DoubleLogType", "kappa": 3.0, "M": 10.0}])
@pytest.mark.parametrize("lambda0", [37.0, 100.0])
def test_lfunction_audit_judges_a_wide_lambda_range(tmp_path, gauge, lambda0):
    # from lambda0 = 37 on, s^(1+lambda) at the grid's s = 1e-8 falls below
    # 1e-300, where L read 0, and the violation was infinite (exit 3); ln L of
    # it is formed from (1+lambda) ln s, so every violation is finite
    doc = {"name": "audit", "mode": "lfunction_audit", "L": dict(gauge, lambda0=lambda0)}
    out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_PASS
    checks = verdict_of(out)["checks"]
    violations = [checks["near_multiplicativity"]["max_violation"],
                  checks["ratio_bound"]["max_violation"],
                  checks["convexity"]["max_violation"]]
    assert all(math.isfinite(v) and v < 0.0 for v in violations), violations


@pytest.mark.parametrize("r", [1.0, 0.5])
def test_lfunction_audit_fails_a_power_law(tmp_path, r):
    # no constant a makes s^r near-multiplicative (L(s)/L(s^(1+lambda)) =
    # s^(-r lambda) is unbounded) or meet the ratio bound (s L'/L = r while
    # a/ln(1/s) vanishes as s -> 0): both checks fail with a reason and no NaN
    doc = {"name": "audit", "mode": "lfunction_audit", "L": {"kind": "PowerLaw", "r": r}}
    out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_VERDICT
    verdict = verdict_of(out)
    assert verdict["pass"] is False and verdict["checks"]["convexity"]["pass"]
    for name in ("near_multiplicativity", "ratio_bound"):
        check = verdict["checks"][name]
        assert check["pass"] is False and check["reason"].endswith("as s -> 0"), name


TINY_SCAN = {
    "name": "scan", "mode": "gn_scan",
    "grid": {"n": 3, "R": 20.0, "m": 1001},
    "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0},
    "request": {"q": 2.0},
    "family": {"kind": "StretchedExp", "c0": 1.0, "alpha": 1.0, "beta": 2.0,
               "scales": [0.1, 0.05], "widths": [1.0, 2.0]},
    "sharpness_scale": 1.25,
}


def test_gn_scan_mode(tmp_path):
    # one table: with sharpness_scale the probe is the column after ratio, and
    # its record holds only what depends on alpha; without it there is no
    # probe column and no probe record
    header = "member_id,width,scale,grad_norm,lq_norm,budget,ratio"
    probe = ["alpha_scale", "loglog_slope", "monotone_increasing", "ratio_max", "ratio_min",
             "ratio_spread"]
    no_probe = {key: val for key, val in TINY_SCAN.items() if key != "sharpness_scale"}
    cases = [(TINY_SCAN, header + ",probe_ratio", probe), (no_probe, header, [])]
    for k, (doc, columns, probe_keys) in enumerate(cases):
        out = tmp_path / f"run{k}"
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_PASS
        summary = verdict_of(out)
        assert summary["scan"]["members"] == 2
        assert sorted(summary.get("probe", ())) == probe_keys
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "scan.csv"]
        rows = (out / "scan.csv").read_text().splitlines()
        assert rows[0] == columns
        assert len(rows) == 3 and rows[1].split(",")[0] in ("s0.1_w1", "s0.05_w2")


def test_gn_scan_over_budget_fails(tmp_path):
    # no member meets a budget below its steepness integral, so the scan
    # certifies nothing and must not pass (a budget K <= 0 is a config error)
    cfg = write_config(tmp_path, {
        "name": "scan", "mode": "gn_scan",
        "grid": {"n": 3, "R": 20.0, "m": 1001},
        "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0},
        "request": {"q": 2.0, "K": 1e-6},
        "family": {"kind": "StretchedExp", "c0": 1.0, "alpha": 1.0, "beta": 2.0,
                   "scales": [0.1, 0.05], "widths": [1.0, 2.0]},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_VERDICT
    assert verdict_of(out)["pass"] is False


def test_pde_decay_mode_and_determinism(tmp_path, assert_one_record):
    # the run's 7 snapshots are fewer than the nine profiles spread over it:
    # profiles.csv holds each once
    cfg = write_config(tmp_path, TINY_DECAY)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_PASS
    assert main(["run", str(cfg), "--out", str(out2)]) == EXIT_PASS
    assert sorted(path.name for path in out1.iterdir()) == ["manifest.json", "profiles.csv",
                                                           "series.csv"]
    for name in ("series.csv", "profiles.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "series.csv").read_text().startswith("t,sup_norm,lq:1\n")
    series = np.loadtxt(out1 / "series.csv", delimiter=",", skiprows=1)
    assert series.shape == (7, 3)
    assert np.all(np.diff(series[:, 1]) <= 0)
    header = (out1 / "profiles.csv").read_text().split("\n", 1)[0]
    assert header == ",".join(["r", *(f"t={t:.17g}" for t in series[:, 0])])
    assert_one_record(out1)


def test_profiles_that_print_alike_are_written_once(tmp_path):
    # the profile snapshots of t in [0.9999995, 1] all print as t = 1 at 6
    # digits: each is written once, in its own column of profiles.csv headed
    # by its full time, the last column's maximum is the sup at t_end, and
    # report finds every artifact the manifest lists intact
    doc = dict(TINY_DECAY, t_end=1.0, snapshots={"t_min": 0.9999995, "count": 65})
    out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_PASS
    series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
    header = (out / "profiles.csv").read_text().splitlines()[0].split(",")
    picks = np.linspace(0, len(series) - 1, 9).astype(int)
    assert len(set(header)) == 10 and header == ["r", *(f"t={t:.17g}" for t in series[picks, 0])]
    assert {f"{t:.6g}" for t in series[picks[1:], 0]} == {"1"}
    profiles = np.loadtxt(out / "profiles.csv", delimiter=",", skiprows=1)
    assert profiles[:, -1].max() == series[-1, 1]
    assert main(["report", str(out)]) == EXIT_PASS
    assert "(ok)" in (out / "summary.md").read_text()
    assert "problems" not in (out / "summary.md").read_text()


def test_writer_refuses_a_name_twice(tmp_path):
    writer = cli.ArtifactWriter(tmp_path / "run")
    writer.write_text("a.csv", "x\n")
    with pytest.raises(InputError, match="artifact a.csv is already written"):
        writer.write_json("a.csv", {})
    assert writer.entries == [("a.csv", b"x\n")]


def test_pde_decay_ladder_mode(tmp_path, monkeypatch):
    ladders = []
    real_ladder = evolution.minimal_solution_ladder

    def recording_ladder(*args, **kwargs):
        ladders.append(real_ladder(*args, **kwargs))
        return ladders[-1]

    monkeypatch.setattr(evolution, "minimal_solution_ladder", recording_ladder)
    cfg = write_config(tmp_path, {
        "name": "lad", "mode": "pde_decay",
        "problem": {"p": 4.0, "n": 1,
                    "u0": {"kind": "StretchedExp", "c0": 2.0, "alpha": 0.25, "beta": 2.0}},
        "approx": {"ladder": {"eps_list": [1e-2, 1e-3], "R_list": [10.0, 20.0]}, "m": 501},
        "t_end": 10.0,
        "snapshots": {"t_min": 1.0, "count": 5},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    rep = verdict_of(out)["ladder"]
    assert rep["eps_monotonicity_violation"] <= 1e-8
    assert rep["R_monotonicity_violation"] <= 1e-8
    # the verdict's time error is the judged proxy's, the (min eps, max R) member
    (ladder,) = ladders
    proxy = ladder.proxy
    assert (proxy.params.eps, proxy.params.R) == (1e-3, 20.0)
    verdict = verdict_of(out)
    assert verdict["time_error"] == proxy.stats["time_error"] > 0.0


def counted_ladder(monkeypatch):
    """Replace evolution.minimal_solution_ladder, the CLI's one trajectory call,
    by a wrapper that records each call in the returned list."""
    calls = []
    real_ladder = evolution.minimal_solution_ladder

    def counting_ladder(*args, **kwargs):
        calls.append(args)
        return real_ladder(*args, **kwargs)

    monkeypatch.setattr(evolution, "minimal_solution_ladder", counting_ladder)
    return calls


TWO_SIDED = dict(
    TINY_DECAY,
    approx={"ladder": {"eps_list": [1e-4], "R_list": [12.0]}, "m": 301},
    t_end=500.0,
    snapshots={"t_min": 0.5, "count": 13},
    envelope=TINY_DECAY["problem"]["u0"],
    rate={"delta": 0.9, "window": [1.5, None]},
    certificate={"tau0_list": [math.log(51.0)]},
)
TWO_SIDED_STEADY_M = 1001  # bounds.STEADY_M of the runs of TWO_SIDED with a certificate


def test_rate_and_certificate_from_one_evolution(tmp_path, monkeypatch):
    # the sandwich and the subsolution certificate judge one trajectory, and
    # each artifact is the one a run with only that section writes
    monkeypatch.setattr(bounds, "STEADY_M", TWO_SIDED_STEADY_M)
    calls = counted_ladder(monkeypatch)
    docs = {"both": TWO_SIDED,
            "rate": {k: v for k, v in TWO_SIDED.items() if k != "certificate"},
            "cert": {k: v for k, v in TWO_SIDED.items() if k != "rate"}}
    rc, verdict, shas = {}, {}, {}
    for label, doc in docs.items():
        calls.clear()
        out = tmp_path / label
        rc[label] = main(["run", str(write_config(tmp_path, doc)), "--out", str(out)])
        assert len(calls) == 1, label
        manifest = read_json(out / "manifest.json")
        verdict[label] = manifest["verdict"]
        shas[label] = {e["path"]: e["sha256"] for e in manifest["artifacts"]}
    assert shas["both"] == {**shas["rate"], **shas["cert"]}
    assert {"bound_curves.csv", "steady_state.csv"} <= set(shas["both"])
    assert verdict["both"] == {**verdict["rate"], **verdict["cert"],
                               "pass": verdict["rate"]["pass"] and verdict["cert"]["pass"]}
    # on this short horizon the baseline check fails and the certificate
    # holds, so the merged verdict must fail: it is the AND of its sections
    assert (rc["both"], rc["rate"], rc["cert"]) == (EXIT_VERDICT, EXIT_VERDICT, EXIT_PASS)
    # the verdict keeps the certificate's own pass
    assert verdict["both"]["certificate_pass"] and not verdict["both"]["pass"]
    assert verdict["both"]["margins"][0]["min_margin"] >= 0.0


def test_certificate_fails_on_the_trajectory_margin(tmp_path, monkeypatch):
    # negative control of min_margin: the judged run, lowered to eps on the
    # ball at one snapshot with t > 0 before the horizon, fails the
    # certificate, while the datum's initial_margin keeps its bits
    monkeypatch.setattr(bounds, "STEADY_M", TWO_SIDED_STEADY_M)
    doc = {k: v for k, v in TWO_SIDED.items() if k != "rate"}
    cfg = write_config(tmp_path, doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "held")]) == EXIT_PASS
    held = verdict_of(tmp_path / "held")
    (tau0,) = doc["certificate"]["tau0_list"]
    env = bounds.DecayEnvelope(**doc["envelope"])
    radius = bounds.subsolution_radius(env, doc["problem"]["p"], tau0)
    real_ladder = evolution.minimal_solution_ladder

    def lowered_ladder(*args, **kwargs):
        ladder = real_ladder(*args, **kwargs)
        run = ladder.proxy
        k = int(np.flatnonzero(np.log1p(run.times) <= tau0)[-1])
        assert run.times[k] > 0.0
        run.values[k, run.grid.nodes <= radius] = run.params.eps
        return ladder

    monkeypatch.setattr(evolution, "minimal_solution_ladder", lowered_ladder)
    assert main(["run", str(cfg), "--out", str(tmp_path / "lowered")]) == EXIT_VERDICT
    lowered = verdict_of(tmp_path / "lowered")
    assert held["certificate_pass"] and not lowered["certificate_pass"]
    (row,) = lowered["margins"]
    assert row["min_margin"] < 0.0 < held["margins"][0]["min_margin"]
    assert row["initial_margin"] == held["margins"][0]["initial_margin"] > 0.0
    assert lowered["steady_flux_residual"] <= bounds.RESIDUAL_TOL


def test_rate_curves_span_the_window(tmp_path):
    # both curves are drawn, in one table, on the snapshots the sandwich
    # judges: a window that closes before t_end closes them too
    doc = {k: v for k, v in TWO_SIDED.items() if k != "certificate"}
    doc.update(t_end=2000.0, snapshots={"t_min": 0.5, "count": 17},
               rate=dict(TWO_SIDED["rate"], window=[1.5, 600.0]))
    out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) in (EXIT_PASS,
                                                                                 EXIT_VERDICT)
    fit = verdict_of(out)["sandwich"]["fit"]
    assert fit["t_window"][1] < 600.0
    assert (out / "bound_curves.csv").read_text().startswith("t,lower,upper\n")
    t = np.loadtxt(out / "bound_curves.csv", delimiter=",", skiprows=1)[:, 0]
    assert t.size == fit["n_points"]
    assert (t[0], t[-1]) == tuple(fit["t_window"])


def test_schema_errors_exit_2(tmp_path, monkeypatch, capsys):
    calls = counted_ladder(monkeypatch)
    shots = []
    real_shot = bounds._integrate_shot
    monkeypatch.setattr(bounds, "_integrate_shot",
                        lambda *args, **kwargs: shots.append(args) or real_shot(*args, **kwargs))
    bad = [
        {"name": "", "mode": "steady_state"},
        {"name": "x", "mode": "unknown"},
        {"name": "x", "mode": "steady_state"},  # missing problem
        {"mode": "steady_state"},
    ]
    for doc in bad:
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg)]) == EXIT_CONFIG
    # non-finite JSON constants and booleans in number fields fail closed
    nan_datum = json.loads(json.dumps(TINY_DECAY))
    nan_datum["problem"]["u0"]["c0"] = math.nan
    bool_dim = {"name": "x", "mode": "steady_state", "problem": {"p": 1.0, "n": True}}
    for doc in (nan_datum, bool_dim):
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    # a value of the wrong type anywhere in a config fails closed
    steady = {"name": "ss", "mode": "steady_state", "problem": {"p": 1.0, "n": 1}}
    audit = {"name": "audit", "mode": "lfunction_audit",
             "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0}}
    scan = {"name": "scan", "mode": "gn_scan", "grid": {"n": 3, "R": 20.0, "m": 201},
            "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0}, "request": {"q": 2.0},
            "family": {"kind": "StretchedExp", "beta": 2.0, "scales": [0.1]},
            "sharpness_scale": 1.25}
    ladder = with_field(TINY_DECAY, "approx", {"ladder": {
        "eps_list": [1e-2, 1e-3], "R_list": [10.0]}, "m": 251})
    rated = dict(TINY_DECAY, envelope=TINY_DECAY["problem"]["u0"], rate={"delta": 0.9})
    ill_typed = [
        with_field(TINY_DECAY, "problem.u0.c0", True),
        with_field(TINY_DECAY, "snapshots.count", True),
        with_field(audit, "L.kappa", True),
        with_field(TINY_DECAY, "problem.u0.c0", "2"),
        with_field(audit, "L.kappa", "2"),
        with_field(scan, "sharpness_scale", "1.25"),
        with_field(ladder, "approx.ladder.eps_list", [1e-2, "x"]),
        with_field(TINY_DECAY, "observers", ["lq:abc"]),
        with_field(ladder, "approx.m", 251.9),
        with_field(rated, "rate.window", [1.0]),
    ]
    # well-typed values out of range fail closed too, before numpy or the
    # solvers see them
    certified = dict(TINY_DECAY, envelope=TINY_DECAY["problem"]["u0"], certificate={})
    # the run's first snapshot after the datum is at tau = ln 1.01 = 0.00995
    early = with_field(certified, "snapshots.t_min", 0.01)
    out_of_range = [
        with_field(TINY_DECAY, "snapshots.count", -1),
        with_field(TINY_DECAY, "snapshots.t_min", 0),
        # a run that records nothing between t = 0 and t_end
        with_field(TINY_DECAY, "snapshots.t_min", 500.0),
        with_field(TINY_DECAY, "snapshots.t_min", 5.0),
        with_field(TINY_DECAY, "t_end", 0),
        with_field(ladder, "approx.m", 1),
        with_field(certified, "certificate.tau0_list", []),
        with_field(certified, "certificate.tau0_list", [-1.0]),
        # a horizon beyond tau = ln(t_end + 1), which the run never reaches
        with_field(certified, "certificate.tau0_list", [1.0, 20.0]),
        # a horizon before tau = ln(t_min + 1), at which the run has recorded
        # only the datum
        with_field(early, "certificate.tau0_list", [0.005]),
        with_field(early, "certificate.tau0_list", [1.0, 0.0099]),
        with_field(scan, "sharpness_scale", 0),
        with_field(scan, "sharpness_scale", -1.25),
        with_field(scan, "request.K", 0),
        with_field(scan, "request.K", -1.0),
    ]
    # the certificate is a section of pde_decay; its old mode is gone
    removed_mode = dict(TINY_DECAY, mode="lower_bound")
    # removed fields are unknown keys now, not silently ignored
    long_rated = with_field(with_field(rated, "t_end", 500.0), "rate.window", [1.5, None])
    removed_fields = [
        with_field(TINY_DECAY, "snapshots.kind", "log"),
        with_field(audit, "audit", {"lambda0": 1.0}),
        with_field(certified, "certificate.c1", 0.5),
        with_field(ladder, "approx.ladder.m_list", [251]),
        # a single run is the ladder of one member: eps and R have one field each
        with_field(TINY_DECAY, "approx", {"R": 10.0, "eps": 1e-3, "m": 251}),
        with_field(TINY_DECAY, "approx.eps", 1e-3),
        with_field(TINY_DECAY, "snapshots.include_zero", True),  # a run always records t = 0
        with_field(long_rated, "rate.slack", 0.1),  # the slack is rates.RATIO_SLACK
        # the rate's gauge is derived from the envelope and delta (rates.rate_model)
        with_field(long_rated, "L", {"kind": "LogType", "kappa": 0.95, "M": 4.0}),
    ]
    # settings that every run set alike are constants now: the steady state's
    # node count is bounds.STEADY_M, and the audit judges 400-point grids and
    # a convexity condition free of (p, q0); the message names the outermost
    # key that no reader asks for
    constants = [
        ("approx: unknown field", with_field(steady, "approx", {"m": 4001})),
        ("certificate.steady: unknown field",
         with_field(certified, "certificate.steady", {"m": 4001})),
        *(("audit: unknown field", with_field(audit, "audit", {key: value}))
          for key, value in (("p", 1.0), ("q0", 1.0), ("s_points", 400),
                             ("lambda_points", 400))),
    ]
    # a problem that ProblemSpec refuses names its section, also where a later
    # section would have failed on it first (rate: kappa must be positive)
    bad_problems = [
        ("problem: p >= 1 required, got 0.5", with_field(TINY_DECAY, "problem.p", 0.5)),
        ("problem: 1 <= n <= 3 required (the step is an M-matrix only for n <= 3), got 0",
         with_field(TINY_DECAY, "problem.n", 0)),
        ("problem: 1 <= n <= 3 required", with_field(rated, "problem.n", 0)),
        ("problem: 1 <= n <= 3 required", with_field(TINY_DECAY, "problem.n", -2)),
        # so does the steady_state mode, with the solver's own preconditions
        # (bounds.check_steady_problem), before any shot
        ("problem: p >= 1 required, got 0.5", with_field(steady, "problem.p", 0.5)),
        ("problem: n >= 1 required, got 0", with_field(steady, "problem.n", 0)),
    ]
    # what the rate verdict would refuse once it ran, depending only on the
    # config, is refused before any time stepping: a window that starts at
    # t <= 1 (LogCorrected needs ln ln t), holds fewer than 3 snapshots or
    # spans too few decades, a window whose last decade holds one snapshot,
    # on which the baseline's tail check is vacuous, and a delta <= 0, which
    # leaves the upper bound's gauge without its hypothesis
    shipped_rate = read_json(CONFIGS / "pde_decay_sandwich.json")
    shipped_rate.update(snapshots={"t_min": 0.01, "count": 6},
                        rate={"delta": 0.9, "window": [10.0, None]})
    shipped_rate["approx"]["m"] = 501  # the window holds t = 39.8, 631 and 1e4
    late_rate_errors = {
        "rate: window [0.5, 5.0] must start above t = 1": with_field(
            rated, "rate.window", [0.5, None]),
        "rate: window [1.5, 4.0] holds fewer than 3 samples": with_field(
            rated, "rate.window", [1.5, 4.0]),
        "rate: window [1.2, 5.0] spans 0.60 decades < 2": with_field(
            rated, "rate.window", [1.2, None]),
        "rate.window: the last decade [1000, 10000] holds 1 snapshot": shipped_rate,
        "rate.delta: expected a positive number, got 0": with_field(rated, "rate.delta", 0),
        "rate.delta: expected a positive number, got -0.5": with_field(
            rated, "rate.delta", -0.5),
    }
    # a misspelled section is read by no part of the run, so it cannot drop
    # its check without a word
    typo = {k: v for k, v in certified.items() if k != "certificate"}
    typo["certificat"] = certified["certificate"]
    # the unchecked descent observer is gone: its name is an unknown observer,
    # and its exponent an unknown field; so are the names of the sup series,
    # which every run writes, and of the center series, which no run writes
    removed_observer = [
        *((f"observers: unknown observer {name!r} (an observer is 'lq:<q>'; series.csv "
           "always holds sup_norm)", dict(TINY_DECAY, observers=[name]))
          for name in ("lyapunov", "sup_norm", "center_value")),
        ("lyapunov_q: unknown field", dict(TINY_DECAY, lyapunov_q=-1.0)),
    ]
    # one q under two names would write its series twice, and under one name
    # would drop an entry without a word
    repeated_q = [(f"observers: 'lq:1' and {name!r} name one q = 1",
                   dict(TINY_DECAY, observers=["lq:1", name])) for name in ("lq:1.0", "lq:1")]
    # a name is series.csv's column header, so the white space float() allows
    # around q, a line break in "lq:1\n", is refused
    spaced_q = [(f"observers: {name!r} needs a positive number after 'lq:'",
                 dict(TINY_DECAY, observers=[name])) for name in ("lq:1\n", "lq: 1")]
    # a grid that RadialGrid refuses, and a q that leaves alpha <= 0, name
    # their section or field; so do members that print alike at %g, which
    # would write two equal rows and fit a slope through repeated points, a
    # family of no members and one whose widest member the grid does not
    # resolve, which FamilySpec refuses for gn.family_scan too
    twice = "family: member s0.1_w1 is named twice"
    scan_errors = [
        ("family: scales and widths give no members",
         with_field(with_field(scan, "family.scales", []), "family.widths", [])),
        ("family: widest member (width 5) is not resolvable on R = 20: need width <= R/5",
         with_field(scan, "family.widths", [1, 5])),
        (twice, with_field(scan, "family.scales", [0.1, 0.1])),
        (twice, with_field(scan, "family.widths", [1, 1])),
        (twice, with_field(scan, "family.scales", [0.1, 0.1000001])),
        ("grid: outer radius must be positive, got -1.0", with_field(scan, "grid.R", -1.0)),
        ("grid: dimension must be a positive integer, got 0", with_field(scan, "grid.n", 0)),
        ("request.q: q = 7.0 must stay below the critical exponent 2n/(n-2) = 6.0 in "
         "dimension n = 3", with_field(scan, "request.q", 7.0)),
        ("request.q: q must be positive, got -1", with_field(scan, "request.q", -1)),
    ]
    # a gauge whose near-multiplicativity constant a overflows a double: 2^1024
    # at lambda0 = 1, the doubly log-type secants, and the rate's kappa = 1500.5
    overflowing = "the near-multiplicativity constant a overflows a double at kappa = "
    overflowing_gauges = [
        (f"L: {overflowing}1024,", with_field(audit, "L.kappa", 1024)),
        (f"L: {overflowing}2000,", with_field(audit, "L", {
            "kind": "DoubleLogType", "kappa": 2000, "M": 100})),
        (f"rate: {overflowing}1500.5,", with_field(rated, "rate.delta", 3000)),
    ]
    # a DoubleExp envelope needs gamma > 0: at gamma = 0 the rate's gauge
    # divides by zero, and at gamma < 0 the floor rises with r
    double_exp = {"kind": "DoubleExp", "c0": 1.0, "alpha": 1.0, "beta": 1.0}
    flat_gamma = dict(double_exp, gamma=0.0)
    bad_gamma = [
        ("problem.u0: DoubleExp envelope needs gamma > 0, got 0.0",
         with_field(with_field(rated, "problem.u0", flat_gamma), "envelope", flat_gamma)),
        ("family: DoubleExp envelope needs gamma > 0, got -1.0",
         with_field(scan, "family", dict(double_exp, gamma=-1.0, scales=[0.1]))),
    ]
    # a ladder of more than one member compares its snapshots from
    # evolution.CAUCHY_T_MIN = 1 on; a t_end before it used to end in a
    # traceback after all of the ladder's time stepping, with exit 1
    early_ladder = [
        ("t_end: a ladder of more than one member compares snapshots from t = 1 on, got 0.5",
         with_field(with_field(ladder, "t_end", 0.5), "snapshots", {"count": 5, "t_min": 0.1})),
    ]
    # an observer that overflows on the datum (exit 3 once the run starts) is
    # probed after every field is read and checked: a config error wins
    lq_overflow = with_field(TINY_DECAY, "observers", ["lq:1e-5"])
    config_before_probe = [
        ("rate.delta: expected a positive number, got -0.5",
         dict(lq_overflow, envelope=TINY_DECAY["problem"]["u0"], rate={"delta": -0.5})),
        ("certificate.tau0_list: must name at least one horizon",
         dict(lq_overflow, envelope=TINY_DECAY["problem"]["u0"], certificate={"tau0_list": []})),
        # two equal horizons would write two equal margins rows
        ("certificate.tau0_list: horizon 1 is listed twice",
         dict(lq_overflow, envelope=TINY_DECAY["problem"]["u0"],
              certificate={"tau0_list": [1.0, 0.5, 1]})),
        ("lyapunov_q: unknown field", dict(lq_overflow, lyapunov_q=-1.0)),
    ]
    for doc in (ill_typed + out_of_range + removed_fields + list(late_rate_errors.values())
                + [doc for _, doc in constants + bad_problems + overflowing_gauges
                   + config_before_probe + scan_errors + removed_observer + repeated_q
                   + spaced_q + bad_gamma + early_ladder]
                + [removed_mode, typo]):
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG, doc
    assert not (tmp_path / "run").exists()
    capsys.readouterr()
    for message, doc in [
        *late_rate_errors.items(), *constants, *bad_problems, *overflowing_gauges,
        *config_before_probe, *scan_errors, *removed_observer, *repeated_q, *spaced_q,
        *bad_gamma, *early_ladder,
        ("mode: 'unknown' not one of ('steady_state', 'lfunction_audit', 'gn_scan', "
         "'pde_decay')", bad[1]),
        ("rate.window: expected [number, number or null], got [1.0]", ill_typed[-1]),
        ("L: unknown field", removed_fields[-1]),
    ]:
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err, message
    nested_typo = with_field(certified, "certificate.stedy", {"m": 1001})
    assert main(["run", str(write_config(tmp_path, nested_typo))]) == EXIT_CONFIG
    assert "certificate.stedy: unknown field" in capsys.readouterr().err
    far = with_field(certified, "certificate.tau0_list", [1.0, 20.0])
    assert main(["run", str(write_config(tmp_path, far))]) == EXIT_CONFIG
    assert ("certificate.tau0_list.1: expected a positive number at most ln(t_end + 1)"
            in capsys.readouterr().err)
    early = with_field(early, "certificate.tau0_list", [1.0, 0.0099])
    assert main(["run", str(write_config(tmp_path, early))]) == EXIT_CONFIG
    assert ("certificate.tau0_list.1: expected a positive number at most ln(t_end + 1) = "
            "1.79176 and at least ln(t_min + 1) = 0.00995033, got 0.0099"
            in capsys.readouterr().err)
    late_start = with_field(TINY_DECAY, "snapshots.t_min", 500.0)
    assert main(["run", str(write_config(tmp_path, late_start))]) == EXIT_CONFIG
    assert "snapshots.t_min: must lie below t_end" in capsys.readouterr().err
    # a gauge reads only the fields of its own kind
    for gauge, field in (({"kind": "PowerLaw", "r": 1.0, "kappa": 2.0}, "L.kappa"),
                         ({"kind": "LogType", "kappa": 2.0, "M": 4.0, "s0": 0.01}, "L.s0")):
        assert main(["run", str(write_config(tmp_path, dict(audit, L=gauge)))]) == EXIT_CONFIG
        assert f"{field}: unknown field" in capsys.readouterr().err
    # a number literal that is no finite double is refused at load, before any
    # field is read (json.dumps cannot write one, so it goes in as text); these
    # used to end in a traceback, or exit 3 after the whole ladder had run
    huge = "1" + "0" * 400
    for doc, field, literal in ((rated, "rate.window", "[10, 1e400]"),
                                (rated, "rate.delta", "1e400"),
                                (rated, "envelope.alpha", "1e400"),
                                (ladder, "approx.ladder.R_list", "[1e400]"),
                                (ladder, "approx.ladder.R_list", f"[{huge}]"),
                                (ladder, "approx.m", huge),
                                (ladder, "approx.m", "-1e400")):
        cfg = write_config(tmp_path, with_field(doc, field, "@"))
        cfg.write_text(cfg.read_text().replace('"@"', literal))
        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert "is not a finite double" in capsys.readouterr().err, (field, literal[:8])
    assert not (tmp_path / "run").exists()
    broken = tmp_path / "broken.json"
    broken.write_text('{"name": "x", "mode":')
    assert main(["run", str(broken)]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert calls == [] and shots == []


def test_config_read_before_time_stepping(tmp_path, monkeypatch, capsys):
    # rate is used only after the evolution, yet a bad field in it must stop
    # the run before any time step
    calls = counted_ladder(monkeypatch)
    doc = with_field(TINY_DECAY, "rate", {"delta": "x"})
    doc["envelope"] = TINY_DECAY["problem"]["u0"]
    cfg = write_config(tmp_path, doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert 'rate.delta: expected a positive number, got "x"' in capsys.readouterr().err
    assert calls == []


def test_inadmissible_p_exit_2(tmp_path):
    # p outside the admissible range p >= 1 is an input error, not a crash
    cfg = write_config(tmp_path, {
        "name": "ss", "mode": "steady_state",
        "problem": {"p": 0.5, "n": 1},
    })
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG


def test_dimension_above_3_exit_2(tmp_path, monkeypatch):
    # the step's matrix is an M-matrix only for n <= 3 (its lower band at
    # r = h is (3 - n)/(2h^2)), so a larger n is an input error before any
    # time step, and leaves no run directory
    calls = counted_ladder(monkeypatch)
    out = tmp_path / "run"
    for n in (4, 6, 10):
        cfg = write_config(tmp_path, with_field(TINY_DECAY, "problem.n", n))
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert calls == []
    assert not out.exists()


def test_config_error_leaves_no_run_directory(tmp_path):
    # the run directory is created only once every field has been read
    out = tmp_path / "fresh"
    cfg = write_config(tmp_path, {"name": "x", "mode": "steady_state"})
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_failed_run_leaves_no_directory(tmp_path):
    # config errors that only the library's preconditions catch, in the
    # compute step, exit 2 and leave no run directory: the writer creates it
    # only with the manifest
    steady = {"name": "ss", "mode": "steady_state", "problem": {"p": 1.0, "n": 1}}
    scan = {"name": "scan", "mode": "gn_scan", "grid": {"n": 3, "R": 20.0, "m": 201},
            "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0}, "request": {"q": 2.0},
            "family": {"kind": "StretchedExp", "beta": 2.0, "scales": [0.1]}}
    late = [
        with_field(scan, "family.widths", [10]),
        with_field(scan, "request.q", 7),
        with_field(steady, "problem.p", 0.5),
        with_field(steady, "problem.n", 0),
    ]
    for k, doc in enumerate(late):
        out = tmp_path / f"run{k}"
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG, doc
        assert not out.exists(), doc


def test_approx_errors_exit_2_before_any_solve(tmp_path, monkeypatch, capsys):
    # every member of the ladder is checked in the read phase, so an approx
    # error stops the run before the certificate's steady-state solve and
    # before any time step, and leaves no run directory
    calls = counted_ladder(monkeypatch)
    solves = []
    monkeypatch.setattr(bounds, "solve_steady_state", lambda *args: solves.append(args))
    certified = dict(TINY_DECAY, envelope=TINY_DECAY["problem"]["u0"], certificate={})
    cases = {
        "eps must lie in (0, 1)": ("eps_list", [2.0]),
        "eps_list must be non-empty and strictly decreasing": ("eps_list", [1e-3, 1e-2]),
        "strictly increasing": ("R_list", [10.0, 5.0]),
        "whole number of spacings": ("R_list", [5.1, 10.0]),  # h = 0.04
        "R_list must be non-empty, positive": ("R_list", [-5.0]),
        "eps_list must be non-empty": ("eps_list", []),
    }
    out = tmp_path / "run"
    for message, (field, value) in cases.items():
        doc = with_field(certified, f"approx.ladder.{field}", value)
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "approx.ladder: " in err and message in err, err
    assert calls == [] and solves == []
    assert not out.exists()


def test_certificate_envelope_errors_exit_2_before_any_solve(tmp_path, monkeypatch, capsys):
    # an envelope that is not a floor of the judged member's lifted datum on
    # a horizon's ball, and a horizon below the envelope's inverse, are
    # refused in the read phase: no steady-state solve, no ladder call
    calls = counted_ladder(monkeypatch)
    solves = []
    real_solve = bounds.solve_steady_state
    monkeypatch.setattr(bounds, "solve_steady_state",
                        lambda *args: solves.append(args) or real_solve(*args))
    shipped = read_json(CONFIGS / "lower_bound.json")
    # p = 1, so c1 tau0 = 0.5 lies below Lambda(0) = ln 2 of this envelope
    low_horizon = dict(TINY_DECAY, envelope=dict(TINY_DECAY["problem"]["u0"], c0=0.5),
                       certificate={"tau0_list": [1.0]})
    cases = [
        ("envelope: initial datum drops below the envelope floor on the ball, first at r = 0",
         with_field(shipped, "envelope.c0", 2.0)),
        ("envelope: initial datum drops below the envelope floor on the ball, first at r = 0.01",
         with_field(shipped, "envelope.alpha", 0.5)),
        ("certificate.tau0_list: inverse argument below Lambda(0)", low_horizon),
    ]
    out = tmp_path / "run"
    for message, doc in cases:
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err, message
    assert calls == [] and solves == []
    assert not out.exists()


def test_unwritable_output_dir_exit_2(tmp_path, monkeypatch):
    # the run directory cannot be created below a regular file: a config
    # error, found when the run is written, and nothing is left behind
    monkeypatch.setattr(bounds, "STEADY_M", 101)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = write_config(tmp_path, {"name": "ss", "mode": "steady_state",
                                  "problem": {"p": 1.0, "n": 1}})
    assert main(["run", str(cfg), "--out", str(blocker / "run")]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json"]
    assert blocker.read_text() == ""


def test_numeric_failure_exit_3(tmp_path, monkeypatch):
    def diverge(writer):
        raise NumericError("steady-state shooting did not converge")

    monkeypatch.setitem(cli._RUNNERS, "steady_state", lambda cfg: diverge)
    cfg = write_config(tmp_path, {"name": "ss", "mode": "steady_state"})
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_NUMERIC


def test_lq_quasinorm_overflow_exit_3(tmp_path, capsys, monkeypatch):
    # at a small q the quasi-norm integral^(1/q) of a profile whose integral
    # exceeds 1 overflows a double: the shipped scan at q = 0.01, and a run's
    # L^q observer at q = 1e-5; neither leaves a run directory.  The observer
    # is probed on the lifted datum after the read phase, before any time step
    def no_ladder(*args):
        raise AssertionError("the ladder ran")
    monkeypatch.setattr(evolution, "minimal_solution_ladder", no_ladder)
    scan = with_field(read_json(CONFIGS / "gn_scan.json"), "request.q", 0.01)
    for doc, q in ((scan, "0.01"), (with_field(TINY_DECAY, "observers", ["lq:1e-5"]), "1e-05")):
        out = tmp_path / "run"
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_NUMERIC
        assert f"the L^q quasi-norm overflows a double at q = {q}" in capsys.readouterr().err
        assert not out.exists()


def test_gn_scan_ratio_not_a_positive_double_exit_3(tmp_path, capsys):
    # a member whose ratio is not a positive finite double fails the scan by
    # name, before the fit and the summary (a RuntimeWarning fails this test):
    # on 3 to 5 nodes an L^q norm is 0, at sharpness_scale = 1000 the weight
    # L^{-alpha} overflows, and at scale 1e300 both norms overflow; each ended
    # in a traceback (ZeroDivisionError, OverflowError, LinAlgError)
    shipped = read_json(CONFIGS / "gn_scan.json")
    cases = [(with_field(shipped, "grid.m", 3), "s0.116108_w2"),
             (with_field(shipped, "grid.m", 4), "s0.363721_w1"),
             (with_field(shipped, "grid.m", 5), "s0.363721_w1"),
             (with_field(shipped, "sharpness_scale", 1000), "s8.48893e-07_w16"),
             (with_field(shipped, "family.scales", [1e300] * 5), "s1e+300_w16")]
    for doc, member in cases:
        out = tmp_path / "run"
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_NUMERIC
        assert (f"member {member}: its ratio is not a positive finite double"
                in capsys.readouterr().err), member
        assert not out.exists()


def test_extrapolated_undershoot_exit_3(tmp_path, lift_half_pass, capsys):
    # each pass holds u >= eps, but full/2 - 4 half + 9/2 third falls below
    # eps by more than roundoff: the run fails closed and leaves no directory
    lift_half_pass(1e-9)
    cfg, out = write_config(tmp_path, TINY_DECAY), tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert "extrapolated snapshot" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_verdict_exit_3(tmp_path, capsys, monkeypatch):
    # a NaN in a verdict is a numeric failure, and no (non-JSON) manifest is
    # written; the audit judges every gauge it accepts, so the NaN is planted
    monkeypatch.setattr(cli, "check_near_multiplicativity",
                        lambda *args: HypothesisReport(math.nan, 0.5, 0.5, False))
    cfg = write_config(tmp_path, {
        "name": "audit", "mode": "lfunction_audit",
        "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert "verdict.checks.near_multiplicativity.max_violation" in capsys.readouterr().err
    # nor is the run directory created: it is made only with the manifest
    assert not out.exists()


def test_steady_state_overflowing_shot_is_a_death(tmp_path, monkeypatch):
    # at p = 200 the source w^(1-p) of the shot from the bracket's lower end
    # overflows a float; that shot has died, so shooting reaches the root and
    # the verdict judges the profile: at m = 101 its flux residual fails
    monkeypatch.setattr(bounds, "STEADY_M", 101)
    cfg = write_config(tmp_path, {
        "name": "ss", "mode": "steady_state", "problem": {"p": 200.0, "n": 1},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_VERDICT
    summary = verdict_of(out)
    assert not summary["pass"] and summary["flux_residual"] > 1e-8
    assert 0.0 <= summary["boundary_value"] < 1e-9


# the flux residual of each unconverged steady state, keyed by (p, steady_m)
# so that a re-pin keeps the test ids
UNCONVERGED_RESIDUALS = {(4.0, 11): 0.05391703554375371, (4.0, 21): 0.005088367004328909,
                         (2.0, 11): 0.007557696809529668}


@pytest.mark.parametrize("p, steady_m", UNCONVERGED_RESIDUALS)
def test_certificate_fails_an_unconverged_steady_state(tmp_path, monkeypatch, p, steady_m):
    # the subsolutions hold on this run, but their steady state is too coarse
    # to pass the steady_state mode: the certificate fails as that mode does
    residual = UNCONVERGED_RESIDUALS[p, steady_m]
    monkeypatch.setattr(bounds, "STEADY_M", steady_m)
    doc = dict(TINY_DECAY, problem=dict(TINY_DECAY["problem"], p=p),
               approx={"ladder": {"eps_list": [1e-5], "R_list": [10.0]}, "m": 251},
               t_end=50.0, snapshots={}, envelope=TINY_DECAY["problem"]["u0"],
               certificate={}, observers=[])
    out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_VERDICT
    verdict = verdict_of(out)
    assert verdict["steady_flux_residual"] == residual > bounds.RESIDUAL_TOL
    assert all(row["min_margin"] >= 0.0 for row in verdict["margins"])
    assert not verdict["pass"]


def test_steady_state_p_1_5_exit_0(tmp_path, monkeypatch):
    # the touchdown jump of w(1; a) at p = 1.5 stalls the secant; shooting
    # bisects from then on and converges within the shot cap
    monkeypatch.setattr(bounds, "STEADY_M", 1001)
    cfg = write_config(tmp_path, {
        "name": "ss", "mode": "steady_state", "problem": {"p": 1.5, "n": 1},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    summary = verdict_of(out)
    assert summary["pass"] and summary["flux_residual"] < 1e-8


def test_report_generation(tmp_path):
    cfg = write_config(tmp_path, TINY_DECAY)
    out = tmp_path / "run"
    main(["run", str(cfg), "--out", str(out)])
    assert main(["report", str(out)]) == EXIT_PASS
    text = (out / "summary.md").read_text()
    assert "# tiny" in text and "verdict" in text
    assert (out / "plot.gp").exists()
    assert "series.csv" in (out / "plot.gp").read_text()


@pytest.mark.parametrize("doc, plotted", [
    (TINY_DECAY, {"series.csv"}),
    ({k: v for k, v in TWO_SIDED.items() if k != "certificate"}, {"series.csv",
                                                                  "bound_curves.csv"}),
    ({"name": "ss", "mode": "steady_state", "problem": {"p": 1.0, "n": 1}},
     {"steady_state.csv"}),
    (TINY_SCAN, {"scan.csv"}),
], ids=["pde_decay", "pde_decay_rate", "steady_state", "gn_scan"])
def test_report_plots_listed_artifacts(tmp_path, monkeypatch, doc, plotted):
    # every file plot.gp names is on disk and listed in the run's manifest,
    # each column it plots is one of that file's, and the measured sup is
    # series.csv's second column
    monkeypatch.setattr(bounds, "STEADY_M", 101)
    out = tmp_path / "run"
    main(["run", str(write_config(tmp_path, doc)), "--out", str(out)])
    assert main(["report", str(out)]) == EXIT_PASS
    listed = {entry["path"] for entry in read_json(out / "manifest.json")["artifacts"]}
    curves = re.findall(r'"([^"]+)" using (\d+):(\d+)', (out / "plot.gp").read_text())
    assert {name for name, _, _ in curves} == plotted
    for name, x, y in curves:
        assert name in listed and (out / name).is_file(), name
        header = (out / name).read_text().split("\n", 1)[0].split(",")
        assert 1 <= int(x) <= len(header) and 1 <= int(y) <= len(header), (name, x, y)
    if "series.csv" in plotted:
        assert ("series.csv", "1", "2") in curves
        assert (out / "series.csv").read_text().startswith("t,sup_norm")


def test_report_flags_corrupted_csv(tmp_path):
    cfg = write_config(tmp_path, TINY_DECAY)
    out = tmp_path / "run"
    main(["run", str(cfg), "--out", str(out)])
    (out / "series.csv").write_text("t,sup_norm,lq:1\n1.0,not-a-number,1.0\n")
    assert main(["report", str(out)]) == EXIT_PASS
    text = (out / "summary.md").read_text()
    assert "CORRUPT" in text


def test_report_checks_sha256(tmp_path, monkeypatch):
    # an artifact is judged by its manifest digest, not by its format
    monkeypatch.setattr(bounds, "STEADY_M", 101)
    cfg = write_config(tmp_path, {"name": "ss", "mode": "steady_state",
                                  "problem": {"p": 1.0, "n": 1}})
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    rows = (out / "steady_state.csv").read_text().splitlines()
    r, w = rows[50].split(",")
    rows[50] = f"{r},{float(w) * 2.0!r}"
    (out / "steady_state.csv").write_text("\n".join(rows) + "\n")
    assert main(["report", str(out)]) == EXIT_PASS
    assert "- steady_state.csv: CORRUPT" in (out / "summary.md").read_text()
    (out / "steady_state.csv").unlink()
    assert main(["report", str(out)]) == EXIT_PASS
    assert "- steady_state.csv: MISSING" in (out / "summary.md").read_text()


def test_report_flags_files_the_manifest_does_not_list(tmp_path, monkeypatch):
    # a second run into the same directory leaves the first run's files
    # beside the new manifest, and so does a copy of the verdict that an older
    # build wrote: report lists each as EXTRA, and leaves out the manifest and
    # its own two outputs, also on a second report
    monkeypatch.setattr(bounds, "STEADY_M", 101)
    out = tmp_path / "run"
    steady = {"name": "ss", "mode": "steady_state", "problem": {"p": 1.0, "n": 1}}
    audit = {"name": "audit", "mode": "lfunction_audit",
             "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0}}
    for doc in (steady, audit):
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_PASS
    (out / "notes").mkdir()  # a directory is no artifact of any run
    (out / "summary.json").write_text(json.dumps(verdict_of(out)))
    for _ in range(2):
        assert main(["report", str(out)]) == EXIT_PASS
        text = (out / "summary.md").read_text()
        problems = text.split("## problems\n", 1)[1].splitlines()
        assert problems == ["- steady_state.csv: EXTRA", "- summary.json: EXTRA"]


def test_report_missing_manifest(tmp_path):
    assert main(["report", str(tmp_path)]) == EXIT_CONFIG


def test_report_malformed_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    for text in ('{"name": "x", "mode":', '{"name": "x", "artifacts": [], "verdict": {}}',
                 '[]', '{"name": "x", "mode": "gn_scan", "artifacts": [{"path": 1}], '
                 '"verdict": {}}',
                 # no sha256 to check against, and paths that leave the run directory
                 '{"name": "x", "mode": "gn_scan", "artifacts": [{"path": "scan.csv"}], '
                 '"verdict": {}}',
                 '{"name": "x", "mode": "gn_scan", "artifacts": [{"path": "../cfg.json", '
                 '"sha256": "0"}], "verdict": {}}',
                 '{"name": "x", "mode": "gn_scan", "artifacts": [{"path": "/abs/scan.csv", '
                 '"sha256": "0"}], "verdict": {}}',
                 '{"name": "x", "mode": "gn_scan", "artifacts": [{"path": "..", '
                 '"sha256": "0"}], "verdict": {}}'):
        manifest.write_text(text)
        assert main(["report", str(tmp_path)]) == EXIT_CONFIG, text
    assert not (tmp_path / "summary.md").exists()


def test_checked_in_configs_are_valid():
    # every field of every shipped config passes the read phase, and no key is
    # left unread; the returned compute step is not called
    names = {p.name for p in CONFIGS.glob("*.json")}
    assert {"steady_state.json", "lfunction_audit.json", "gn_scan.json",
            "pde_decay_sandwich.json", "ladder.json", "lower_bound.json"} <= names
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = cli.load_config(path)
        compute, out = cli._read_phase(cfg)
        assert callable(compute) and out == cfg["output_dir"], path.name


def test_certificate_and_sandwich_configs_share_the_trajectory():
    # criterion 10 of the acceptance gate judges lower_bound.json's certificate
    # on the trajectory of pde_decay_sandwich.json, so the fields that fix that
    # trajectory must not drift apart
    cert = read_json(CONFIGS / "lower_bound.json")
    rate = read_json(CONFIGS / "pde_decay_sandwich.json")
    for key in ("problem", "approx", "snapshots", "t_end"):
        assert cert[key] == rate[key], key


def per_cell_series_csv(header, columns):
    """The CSV text as the writer formatted it one cell at a time, before one
    template per row; kept verbatim as the oracle of ``write_series_csv``."""
    columns = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns]
    rows = [",".join(header)]
    for values in zip(*columns):
        rows.append(",".join(v if type(v) is str else f"{v:.17g}" for v in values))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("n_rows", [0, 1, 1001])
def test_series_csv_matches_per_cell_formatting(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e300, -2.5e-308, 1.0]
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    floats[:min(n_rows, len(special))] = special[:n_rows]
    ints = [int(k) for k in rng.integers(-10**6, 10**6, n_rows)]
    ints[:2] = [2**53 + 1, -10**20][:n_rows]
    ids = [f"w{k}:{x:.3g}%" for k, x in enumerate(floats)]
    columns = {
        "float_array": floats,
        "float_list": floats.tolist(),
        "float32_array": rng.standard_normal(n_rows).astype(np.float32),
        "int_array": rng.integers(-2**62, 2**62, n_rows),
        "int_list": ints,
        "bool_array": rng.random(n_rows) < 0.5,
        "bool_list": [bool(k % 3) for k in range(n_rows)],
        "str_list": ids,
        "mixed_list": [x if k % 2 else ids[k] for k, x in enumerate(floats.tolist())],
        "float64_scalars": list(floats),
    }
    writer = cli.ArtifactWriter(tmp_path / "run")
    writer.write_series_csv("table.csv", list(columns), list(columns.values()))
    assert writer.entries == [("table.csv",
                               per_cell_series_csv(list(columns), columns.values()).encode())]
    # one column, and no column at all
    for cols in ([floats], []):
        writer.write_series_csv(f"cols{len(cols)}.csv", ["x"] * len(cols), cols)
        assert writer.entries[-1][1] == per_cell_series_csv(["x"] * len(cols), cols).encode()
    assert not (tmp_path / "run").exists()


# sha256 of manifest.json of each shipped config that does no time stepping
# (the others are test_acceptance.TRAJECTORY_MANIFESTS): an automated part of
# the "manifests unchanged" oracle of a refactor.  lfunction_audit moved once,
# when the convexity check took s L''/L' in closed form; both it and
# steady_state moved once more, when their configs lost the settings that
# became constants, in the config echo alone; lfunction_audit and gn_scan
# moved when L came to be evaluated from ln s: the audit's max_violation by
# 8.9e-16, two scan budgets by 6.5e-7 and 2.5e-7 relative, whose nodes with
# 0 < phi < 1e-300 no longer read L = 0, and five ratios by at most 2.2e-16
# relative; lfunction_audit moved when its convexity key came to hold the one
# condition, d/ds (s L') >= 0: max_violation and worst_s, the violation's bits
# unchanged; all three moved in the artifact list alone when the manifest came
# to be the one record of the verdict: summary.json left steady_state and
# gn_scan, and audit.json left lfunction_audit; steady_state moved when the
# flux residual came to be Simpson's rule on the grid's spacing: its
# flux_residual from 3.6527e-14 to 3.6415e-14; gn_scan moved when its probe
# became the probe_ratio column of scan.csv (scan_probe.csv left it, and the
# probe record kept only its alpha-dependent keys), every ratio's bits unchanged
STATIC_MANIFESTS = {
    "steady_state": "7cd18b45548488369c04ee412976bebb368a5671c0df410dcc1168987455ad31",
    "lfunction_audit": "6adfddff59954ac34bd5149467ca1b762f6af512956b893c13c4b3b6b07687aa",
    "gn_scan": "526394081539f3924847b4263f8497a6620cfe07b8c3dc189f986b7a29dc9736",
}


def test_every_shipped_config_has_one_manifest_pin():
    pins = [*STATIC_MANIFESTS, *TRAJECTORY_MANIFESTS]
    assert sorted(pins) == sorted(path.stem for path in CONFIGS.glob("*.json"))


def test_static_manifests_pinned(tmp_path, assert_one_record):
    for name, sha in STATIC_MANIFESTS.items():
        out = tmp_path / name
        assert run_experiment(CONFIGS / f"{name}.json", out) == EXIT_PASS
        assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == sha, name
        assert_one_record(out)
    # the three widest members of the scan have a truncation tail the grid
    # does not resolve
    flagged = verdict_of(tmp_path / "gn_scan")["scan"]["tail_flagged"]
    assert [member.split("_")[1] for member in flagged] == ["w16", "w8", "w4"]


def test_two_sided_artifacts_pinned(tmp_path, monkeypatch, assert_one_record):
    # the time-stepping path (a one-member ladder at m = 301, the sandwich,
    # baseline and curves, the certificate) gives the same artifacts and
    # verdict as earlier builds, which evolved the single run without a
    # ladder and solved the steady state at a configured m = 1001; artifacts
    # are pinned, not the manifest, which echoes the config (upper_curve.csv
    # moved by at most 5.6e-16 relative when L came to be evaluated from ln s;
    # every trajectory artifact, margins.json and the verdict moved when
    # evolution.TOL went from 1e-5 to 2.5e-5, and the sandwich then gained
    # sigma_time_term and time_error_window; baseline.json, ladder_report.json
    # and sandwich.json, copies of the verdict's keys, and center_value.csv,
    # a copy of sup_norm.csv, went, and every other artifact kept its bytes;
    # margins.json and the verdict moved when the flux residual came to be
    # Simpson's rule on the grid's spacing: steady_flux_residual from 6.7e-16
    # to 0.0; margins.json, whose every key the verdict holds, went, and the
    # verdict gained certificate_pass; every trajectory artifact and the
    # verdict moved when the judged run came to be the third-order
    # extrapolation of its own adaptive pass at evolution.PROXY_TOL, and
    # profile_t0.csv and steady_state.csv kept their bytes; lq_1.csv and every
    # profile but profile_t0.csv moved, by roundoff, when a step came to solve
    # only its window's rows, and the verdict kept its bits; the nine profiles
    # were merged into profiles.csv, sup_norm.csv and lq_1.csv into series.csv
    # and both curves into bound_curves.csv, every number and the verdict
    # unchanged; the verdict moved when each of its numbers came to be recorded
    # once: time_error became the largest snapshot error relative to its own
    # sup (the sandwich's time_error_window, which went), the certificate's
    # min_margin and snapshots_checked came to be the trajectory's, over
    # t > 0, and the copies fit.p_fit, upper.t0, lower.t0 and ladder.members
    # went, every artifact unchanged)
    monkeypatch.setattr(bounds, "STEADY_M", TWO_SIDED_STEADY_M)
    out = tmp_path / "run"
    assert run_experiment(write_config(tmp_path, TWO_SIDED), out) == EXIT_VERDICT
    shas = sorted((path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                  for path in out.iterdir() if path.name != "manifest.json")
    assert shas == [
        ("bound_curves.csv", "40643b72910e93e7872ac655f43b6d4d58fb0894c65e62e110c36bcd1275445b"),
        ("profiles.csv", "58e05718a1c7da5c3a0f0e174c73951a0da97277b3d96336b1e784b26d7c6cbc"),
        ("series.csv", "7ec125c8dd614abd34ef0afd958db061fe3efbc8824cc9703a1136a9a7b741ec"),
        ("steady_state.csv", "b1e56344c473782e4a504cac4a09cd0474a9cb0ba9aa1ac39d72d850b2539f7a"),
    ]
    assert_one_record(out)
    verdict = verdict_of(out)
    assert verdict.pop("ladder") == {
        "eps_monotonicity_violation": 0.0, "R_monotonicity_violation": 0.0,
        "eps_cauchy_sup_reldiff": [], "R_cauchy_sup_reldiff": []}
    digest = hashlib.sha256(json.dumps(verdict, sort_keys=True).encode()).hexdigest()
    assert digest == "2c57c2fe43535c31bc84049f74c8ca68f9658288e1bb9b5364b248ade7c51000"
