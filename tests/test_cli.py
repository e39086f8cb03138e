import hashlib
import json
import math

import numpy as np
import pytest

from decaylab import cli, evolution
from decaylab.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_PASS, EXIT_VERDICT, main,
                          run_experiment)
from decaylab.errors import NumericError
from decaylab.steepness import HypothesisReport


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_json(path):
    return json.loads(path.read_text())


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
    "approx": {"R": 10.0, "eps": 1e-3, "m": 251},
    "t_end": 5.0,
    "snapshots": {"t_min": 0.5, "count": 6},
    "observers": ["lq:1"],
}


def test_steady_state_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "name": "ss", "mode": "steady_state",
        "problem": {"p": 1.0, "n": 2}, "approx": {"m": 2001},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    summary = read_json(out / "summary.json")
    assert summary["center_value"] == pytest.approx(0.25, abs=1e-8)
    assert summary["pass"]
    manifest = read_json(out / "manifest.json")
    assert {e["path"] for e in manifest["artifacts"]} == {"steady_state.csv",
                                                          "summary.json"}
    # manifest checksums match the bytes on disk
    for entry in manifest["artifacts"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_lfunction_audit_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "name": "audit", "mode": "lfunction_audit",
        "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0},
        "audit": {"p": 1.0, "q0": 1.0, "s_points": 120, "lambda_points": 120},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    audit = read_json(out / "audit.json")
    assert audit["pass"]
    assert set(audit["checks"]) == {"near_multiplicativity", "ratio_bound",
                                    "convexity"}


def test_lfunction_audit_judges_a_steep_gauge(tmp_path):
    # at kappa = 400 L(s) underflows to 0 on most of the grid, so the audit
    # compares logarithms; at kappa = 1000, a = 2^1000 - 1 and a / ln(1/s)
    # overflows, so the ratio bound compares s L'/L ln(1/s) with a; a
    # RuntimeWarning (0/0, say) fails this test
    from pathlib import Path
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    for kappa in (400.0, 1000.0):
        doc = read_json(cfg_dir / "lfunction_audit.json")
        doc["L"]["kappa"] = kappa
        out = tmp_path / f"run_{kappa:g}"
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(out)]) in (EXIT_PASS, EXIT_VERDICT)
        checks = read_json(out / "audit.json")["checks"]
        values = [v for check in checks.values() for v in check.values()
                  if not isinstance(v, bool)]
        assert len(values) == 7 and all(math.isfinite(v) for v in values)


def test_lfunction_audit_judges_an_overflowing_gauge(tmp_path):
    # at kappa = 2000, lambda0 = 0.01, L' and L'' overflow near s0, and the
    # convexity check divided inf by inf: the verdict was NaN (exit 3)
    from pathlib import Path
    doc = read_json(Path(__file__).resolve().parents[1] / "configs" / "lfunction_audit.json")
    doc["L"].update(kappa=2000.0, lambda0=0.01)
    out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_PASS
    checks = read_json(out / "audit.json")["checks"]
    assert checks["convexity"] == {"weak_violation": -1.0, "strong_violation": -1.0,
                                   "pass": True}


def test_gn_scan_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "name": "scan", "mode": "gn_scan",
        "grid": {"n": 3, "R": 20.0, "m": 1001},
        "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0},
        "request": {"q": 2.0},
        "family": {"kind": "StretchedExp", "c0": 1.0, "alpha": 1.0, "beta": 2.0,
                   "scales": [0.1, 0.05], "widths": [1.0, 2.0]},
        "sharpness_scale": 1.25,
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    summary = read_json(out / "summary.json")
    assert summary["scan"]["members"] == 2
    for name in ("scan.csv", "scan_probe.csv"):
        rows = (out / name).read_text().splitlines()
        assert rows[0] == "member_id,width,scale,grad_norm,lq_norm,budget,ratio"
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
    assert read_json(out / "manifest.json")["verdict"]["pass"] is False


def test_pde_decay_mode_and_determinism(tmp_path):
    cfg = write_config(tmp_path, TINY_DECAY)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_PASS
    assert main(["run", str(cfg), "--out", str(out2)]) == EXIT_PASS
    for name in ("sup_norm.csv", "center_value.csv", "lq_1.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    sup = np.loadtxt(out1 / "sup_norm.csv", delimiter=",", skiprows=1)
    assert sup.shape[1] == 2
    assert np.all(np.diff(sup[:, 1]) <= 0)


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
    rep = read_json(out / "ladder_report.json")
    assert rep["eps_monotonicity_violation"] <= 1e-8
    assert rep["R_monotonicity_violation"] <= 1e-8
    # the verdict's time error is the judged proxy's, the (min eps, max R) member
    (ladder,) = ladders
    proxy = ladder.proxy
    assert (proxy.params.eps, proxy.params.R) == (1e-3, 20.0)
    verdict = read_json(out / "manifest.json")["verdict"]
    assert verdict["time_error"] == proxy.stats["time_error"] > 0.0


def counted_evolve(monkeypatch):
    """Replace evolution.evolve by a wrapper that records each call in the returned list."""
    calls = []
    real_evolve = evolution.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args)
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(evolution, "evolve", counting_evolve)
    return calls


TWO_SIDED = dict(
    TINY_DECAY,
    approx={"R": 12.0, "eps": 1e-4, "m": 301},
    t_end=500.0,
    snapshots={"t_min": 0.5, "count": 13},
    envelope=TINY_DECAY["problem"]["u0"],
    L={"kind": "LogType", "kappa": 0.95, "M": 4.0, "lambda0": 1.0},
    rate={"delta": 0.9, "window": [1.5, None]},
    certificate={"steady": {"m": 1001}, "tau0_list": [math.log(51.0)]},
)


def test_rate_and_certificate_from_one_evolution(tmp_path, monkeypatch):
    # the sandwich and the subsolution certificate judge one trajectory, and
    # each artifact is the one a run with only that section writes
    calls = counted_evolve(monkeypatch)
    docs = {"both": TWO_SIDED,
            "rate": {k: v for k, v in TWO_SIDED.items() if k != "certificate"},
            "cert": {k: v for k, v in TWO_SIDED.items() if k not in ("rate", "L")}}
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
    assert {"sandwich.json", "margins.json", "steady_state.csv"} <= set(shas["both"])
    assert verdict["both"] == {**verdict["rate"], **verdict["cert"],
                               "pass": verdict["rate"]["pass"] and verdict["cert"]["pass"]}
    # on this short horizon the baseline check fails and the certificate
    # holds, so the merged verdict must fail: it is the AND of its sections
    assert (rc["both"], rc["rate"], rc["cert"]) == (EXIT_VERDICT, EXIT_VERDICT, EXIT_PASS)
    margins = read_json(tmp_path / "cert" / "margins.json")
    assert margins["pass"] and margins["margins"][0]["min_margin"] >= 0.0


def test_rate_curves_span_the_window(tmp_path):
    # both curves are drawn on the snapshots the sandwich judges: a window
    # that closes before t_end closes them too
    doc = {k: v for k, v in TWO_SIDED.items() if k != "certificate"}
    doc.update(t_end=2000.0, snapshots={"t_min": 0.5, "count": 17},
               rate=dict(TWO_SIDED["rate"], window=[1.5, 600.0]))
    out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) in (EXIT_PASS,
                                                                                 EXIT_VERDICT)
    fit = read_json(out / "sandwich.json")["fit"]
    assert fit["t_window"][1] < 600.0
    for name in ("lower_curve.csv", "upper_curve.csv"):
        t = np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 0]
        assert t.size == fit["n_points"], name
        assert (t[0], t[-1]) == tuple(fit["t_window"]), name


def test_schema_errors_exit_2(tmp_path, monkeypatch, capsys):
    calls = counted_evolve(monkeypatch)
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
    steady = {"name": "ss", "mode": "steady_state",
              "problem": {"p": 1.0, "n": 1}, "approx": {"m": 101}}
    audit = {"name": "audit", "mode": "lfunction_audit",
             "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0, "lambda0": 1.0},
             "audit": {"s_points": 20, "lambda_points": 20}}
    scan = {"name": "scan", "mode": "gn_scan", "grid": {"n": 3, "R": 20.0, "m": 201},
            "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0}, "request": {"q": 2.0},
            "family": {"kind": "StretchedExp", "beta": 2.0, "scales": [0.1]},
            "sharpness_scale": 1.25}
    ladder = with_field(TINY_DECAY, "approx", {"ladder": {
        "eps_list": [1e-2, 1e-3], "R_list": [10.0]}, "m": 251})
    rated = dict(TINY_DECAY, envelope=TINY_DECAY["problem"]["u0"],
                 L={"kind": "LogType", "kappa": 0.95, "M": 4.0}, rate={"delta": 0.9})
    ill_typed = [
        with_field(TINY_DECAY, "problem.u0.c0", True),
        with_field(TINY_DECAY, "snapshots.count", True),
        with_field(audit, "audit.s_points", True),
        with_field(steady, "approx.m", True),
        with_field(audit, "L.kappa", True),
        with_field(TINY_DECAY, "problem.u0.c0", "2"),
        with_field(audit, "L.kappa", "2"),
        with_field(scan, "sharpness_scale", "1.25"),
        with_field(ladder, "approx.ladder.eps_list", [1e-2, "x"]),
        with_field(TINY_DECAY, "observers", ["lq:abc"]),
        with_field(ladder, "approx.m", 251.9),
        with_field(steady, "approx", []),
        with_field(rated, "rate.window", [1.0]),
    ]
    # well-typed values out of range fail closed too, before numpy or the
    # solvers see them
    certified = dict(TINY_DECAY, envelope=TINY_DECAY["problem"]["u0"], certificate={})
    out_of_range = [
        with_field(TINY_DECAY, "snapshots.count", -1),
        with_field(TINY_DECAY, "snapshots.t_min", 0),
        with_field(TINY_DECAY, "t_end", 0),
        with_field(steady, "approx.m", 1),
        with_field(ladder, "approx.m", 1),
        with_field(certified, "certificate.steady", {"m": 1}),
        with_field(audit, "audit.s_points", -1),
        with_field(certified, "certificate.tau0_list", []),
        with_field(certified, "certificate.tau0_list", [-1.0]),
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
        with_field(audit, "audit.lambda0", 1.0),
        with_field(certified, "certificate.c1", 0.5),
        with_field(ladder, "approx.ladder.m_list", [251]),
        with_field(TINY_DECAY, "snapshots.include_zero", True),  # a run always records t = 0
        with_field(long_rated, "rate.slack", 0.1),  # the slack is rates.RATIO_SLACK
    ]
    # what the rate verdict would refuse once it ran, depending only on the
    # config, is refused before any time stepping: a window that starts at
    # t <= 1 (LogCorrected needs ln ln t), holds fewer than 3 snapshots or
    # spans too few decades, and a gauge that does not match the envelope
    late_rate_errors = [
        with_field(rated, "rate.window", [0.5, None]),
        with_field(rated, "rate.window", [1.5, 4.0]),
        with_field(rated, "rate.window", [1.2, None]),
        with_field(long_rated, "L.kappa", 2.0),
    ]
    # a misspelled section is read by no part of the run, so it cannot drop
    # its check without a word
    typo = {k: v for k, v in certified.items() if k != "certificate"}
    typo["certificat"] = certified["certificate"]
    # the unchecked descent observer is gone: its name is an unknown observer,
    # and its exponent an unknown field
    lyapunov = dict(TINY_DECAY, observers=["lyapunov"],
                    L={"kind": "LogType", "kappa": 2.0, "M": 4.0})
    removed_observer = [lyapunov, dict(lyapunov, lyapunov_q=-1.0)]
    for doc in (ill_typed + out_of_range + removed_fields + late_rate_errors + removed_observer
                + [removed_mode, typo]):
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG, doc
    assert not (tmp_path / "run").exists()
    capsys.readouterr()
    nested_typo = with_field(certified, "certificate.stedy", {"m": 1001})
    assert main(["run", str(write_config(tmp_path, nested_typo))]) == EXIT_CONFIG
    assert "certificate.stedy: unknown field" in capsys.readouterr().err
    # a gauge reads only the fields of its own kind
    for gauge, field in (({"kind": "PowerLaw", "r": 1.0, "kappa": 2.0}, "L.kappa"),
                         ({"kind": "LogType", "kappa": 2.0, "M": 4.0, "s0": 0.01}, "L.s0")):
        assert main(["run", str(write_config(tmp_path, dict(audit, L=gauge)))]) == EXIT_CONFIG
        assert f"{field}: unknown field" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text('{"name": "x", "mode":')
    assert main(["run", str(broken)]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert calls == []


def test_config_read_before_time_stepping(tmp_path, monkeypatch):
    # rate is used only after the evolution, yet a bad field in it must stop
    # the run before any time step
    calls = counted_evolve(monkeypatch)
    doc = with_field(TINY_DECAY, "rate", {"delta": "x"})
    doc["envelope"] = TINY_DECAY["problem"]["u0"]
    doc["L"] = {"kind": "LogType", "kappa": 0.95, "M": 4.0}
    cfg = write_config(tmp_path, doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert calls == []


def test_inadmissible_p_exit_2(tmp_path):
    # p outside the admissible range p >= 1 is an input error, not a crash
    cfg = write_config(tmp_path, {
        "name": "ss", "mode": "steady_state",
        "problem": {"p": 0.5, "n": 1}, "approx": {"m": 101},
    })
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG


def test_dimension_above_3_exit_2(tmp_path, monkeypatch):
    # the step's matrix is an M-matrix only for n <= 3 (its lower band at
    # r = h is (3 - n)/(2h^2)), so a larger n is an input error before any
    # time step, and leaves no run directory
    calls = counted_evolve(monkeypatch)
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


def test_failed_run_leaves_no_directory(tmp_path, monkeypatch):
    # config errors that only the library's preconditions catch, in the
    # compute step, exit 2 and leave no run directory: the writer creates it
    # only with the manifest
    calls = counted_evolve(monkeypatch)
    steady = {"name": "ss", "mode": "steady_state",
              "problem": {"p": 1.0, "n": 1}, "approx": {"m": 101}}
    audit = {"name": "audit", "mode": "lfunction_audit",
             "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0},
             "audit": {"s_points": 20, "lambda_points": 20}}
    scan = {"name": "scan", "mode": "gn_scan", "grid": {"n": 3, "R": 20.0, "m": 201},
            "L": {"kind": "LogType", "kappa": 2.0, "M": 4.0}, "request": {"q": 2.0},
            "family": {"kind": "StretchedExp", "beta": 2.0, "scales": [0.1]}}
    ladder = with_field(TINY_DECAY, "approx", {"ladder": {
        "eps_list": [1e-3, 1e-2], "R_list": [10.0, 20.0]}, "m": 251})
    # p = 1, so c1 tau0 = 0.5 lies below Lambda(0) = ln 2 of this envelope
    low_horizon = dict(TINY_DECAY, envelope=dict(TINY_DECAY["problem"]["u0"], c0=0.5),
                       certificate={"tau0_list": [1.0], "steady": {"m": 101}})
    late = [
        with_field(TINY_DECAY, "approx.R", -5),
        with_field(TINY_DECAY, "problem.n", 0),
        ladder,
        low_horizon,
        with_field(audit, "audit.p", 0.5),
        with_field(scan, "family.widths", [10]),
        with_field(scan, "request.q", 7),
        with_field(steady, "problem.p", 0.5),
        with_field(steady, "problem.n", 0),
    ]
    for k, doc in enumerate(late):
        out = tmp_path / f"run{k}"
        calls.clear()
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG, doc
        assert not out.exists(), doc
        if doc is low_horizon:
            # the certificate is judged before the trajectory is evolved
            assert calls == []


def test_unwritable_output_dir_exit_2(tmp_path):
    # the run directory cannot be created below a regular file: a config
    # error, found when the run is written, and nothing is left behind
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = write_config(tmp_path, {"name": "ss", "mode": "steady_state",
                                  "problem": {"p": 1.0, "n": 1}, "approx": {"m": 101}})
    assert main(["run", str(cfg), "--out", str(blocker / "run")]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json"]
    assert blocker.read_text() == ""


def test_numeric_failure_exit_3(tmp_path, monkeypatch):
    def diverge(writer):
        raise NumericError("steady-state shooting did not converge")

    monkeypatch.setitem(cli._RUNNERS, "steady_state", lambda cfg: diverge)
    cfg = write_config(tmp_path, {"name": "ss", "mode": "steady_state"})
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_NUMERIC


def test_extrapolated_undershoot_exit_3(tmp_path, lift_full_pass, capsys):
    # each pass holds u >= eps, but 2 * half - full falls below eps by more
    # than roundoff: the run fails closed and leaves no directory
    lift_full_pass(1e-9)
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
    assert not (out / "manifest.json").exists()
    # nor any artifact: they are written only with the manifest
    assert not (out / "audit.json").exists()


def test_steady_state_overflow_exit_3(tmp_path):
    # at p = 200 the shot's source w^(1-p) overflows a float
    cfg = write_config(tmp_path, {
        "name": "ss", "mode": "steady_state",
        "problem": {"p": 200.0, "n": 1}, "approx": {"m": 101},
    })
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_NUMERIC


def test_steady_state_p_1_5_exit_0(tmp_path):
    # the touchdown jump of w(1; a) at p = 1.5 stalls the secant; shooting
    # bisects from then on and converges within the shot cap
    cfg = write_config(tmp_path, {
        "name": "ss", "mode": "steady_state",
        "problem": {"p": 1.5, "n": 1}, "approx": {"m": 1001},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    summary = read_json(out / "summary.json")
    assert summary["pass"] and summary["flux_residual"] < 1e-8


def test_report_generation(tmp_path):
    cfg = write_config(tmp_path, TINY_DECAY)
    out = tmp_path / "run"
    main(["run", str(cfg), "--out", str(out)])
    assert main(["report", str(out)]) == EXIT_PASS
    text = (out / "summary.md").read_text()
    assert "# tiny" in text and "verdict" in text
    assert (out / "plot.gp").exists()
    assert "sup_norm.csv" in (out / "plot.gp").read_text()


def test_report_flags_corrupted_csv(tmp_path):
    cfg = write_config(tmp_path, TINY_DECAY)
    out = tmp_path / "run"
    main(["run", str(cfg), "--out", str(out)])
    (out / "sup_norm.csv").write_text("t,value\n1.0,not-a-number\n")
    assert main(["report", str(out)]) == EXIT_PASS
    text = (out / "summary.md").read_text()
    assert "CORRUPT" in text


def test_report_checks_sha256(tmp_path):
    # an artifact is judged by its manifest digest, not by its format
    cfg = write_config(tmp_path, {"name": "ss", "mode": "steady_state",
                                  "problem": {"p": 1.0, "n": 1}, "approx": {"m": 101}})
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    summary = out / "summary.json"
    summary.write_text(summary.read_text().replace('"pass": true', '"pass": false'))
    rows = (out / "steady_state.csv").read_text().splitlines()
    r, w = rows[50].split(",")
    rows[50] = f"{r},{float(w) * 2.0!r}"
    (out / "steady_state.csv").write_text("\n".join(rows) + "\n")
    assert main(["report", str(out)]) == EXIT_PASS
    text = (out / "summary.md").read_text()
    assert "- summary.json: CORRUPT" in text
    assert "- steady_state.csv: CORRUPT" in text
    (out / "summary.json").unlink()
    assert main(["report", str(out)]) == EXIT_PASS
    assert "- summary.json: MISSING" in (out / "summary.md").read_text()


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
    from pathlib import Path
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    names = {p.name for p in cfg_dir.glob("*.json")}
    assert {"steady_state.json", "lfunction_audit.json", "gn_scan.json",
            "pde_decay_sandwich.json", "ladder.json", "lower_bound.json"} <= names
    for path in sorted(cfg_dir.glob("*.json")):
        cfg = cli.load_config(path)
        compute, out = cli._read_phase(cfg)
        assert callable(compute) and out == cfg["output_dir"], path.name


def test_certificate_and_sandwich_configs_share_the_trajectory():
    # criterion 10 of the acceptance gate judges lower_bound.json's certificate
    # on the trajectory of pde_decay_sandwich.json, so the fields that fix that
    # trajectory must not drift apart
    from pathlib import Path
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    cert = read_json(cfg_dir / "lower_bound.json")
    rate = read_json(cfg_dir / "pde_decay_sandwich.json")
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
        writer.write_series_csv("one.csv", ["x"] * len(cols), cols)
        assert writer.entries[-1][1] == per_cell_series_csv(["x"] * len(cols), cols).encode()
    assert not (tmp_path / "run").exists()


def test_static_manifests_pinned(tmp_path):
    # the three configs that do no time stepping give pinned manifest bytes:
    # an automated part of the "manifests unchanged" oracle of a refactor
    # (lfunction_audit moved once, when the convexity check took s L''/L' in
    # closed form)
    from pathlib import Path
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    pinned = {
        "steady_state": "bcf70b2dfd3cc4dd558878a78f799a561258aecfd58e0902922f03ed793230ec",
        "lfunction_audit": "937928bf98d6e0c6660256e282146f30eb5255365a372baefa9010741891861a",
        "gn_scan": "504ec10462957878dab55583787efd8b5d58ddd74fcf6ad074511f37fe94c8b5",
    }
    for name, sha in pinned.items():
        out = tmp_path / name
        assert run_experiment(cfg_dir / f"{name}.json", out) == EXIT_PASS
        assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == sha, name
    # the three narrowest members of the scan, and of the probe, have a
    # truncation tail the grid does not resolve
    verdict = read_json(tmp_path / "gn_scan" / "manifest.json")["verdict"]
    for scan in ("scan", "probe"):
        flagged = verdict[scan]["tail_flagged"]
        assert [member.split("_")[1] for member in flagged] == ["w16", "w8", "w4"], scan


def test_two_sided_artifacts_pinned(tmp_path):
    # the time-stepping path (one evolve at m = 301, the sandwich, baseline
    # and curves, the certificate) gives the same artifacts and verdict as
    # earlier builds; artifacts are pinned, not the manifest, which echoes
    # the config
    out = tmp_path / "run"
    assert run_experiment(write_config(tmp_path, TWO_SIDED), out) == EXIT_VERDICT
    shas = sorted((path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                  for path in out.iterdir() if path.name != "manifest.json")
    assert shas == [
        ("baseline.json", "98008e42598ab9d674351acbe37d61f3a772bdfea7887cd0d288985fffbdc9d5"),
        ("center_value.csv", "e1d8003a080082490abc05bff2e443530c4b1f061559cb906459e78c1d482c80"),
        ("lower_curve.csv", "5ad4b27250772c6950baec1f85ef92ec47d70444c9d6b928fa50efc1bf99fad1"),
        ("lq_1.csv", "da3467de38ad8fcc7fc8dca2ae1d0523c12923b547a8b79798ab355f4f2fb19f"),
        ("margins.json", "e41b3e52dbbf84878ce2e7f6f0e08feadea05e95bdc32dd10f74cfe60c9fd862"),
        ("profile_t0.5.csv", "a4b7253ce7ef386d43532ead2cb5ccc501b670689a62f429bb91b78981dc0740"),
        ("profile_t0.csv", "190eb503fc16e46edc291e7cdd2c2367f0572792c906937bcb08cbe349e437aa"),
        ("profile_t1.58114.csv", "4b616b9679ef900e7bed676d3ae70ccf06d47b446b83ab1591c37cc50e354771"),
        ("profile_t158.114.csv", "99fab4d54f500e9c84c5341ebd45248ea8e5c0f8177c31b45541ee44d36c63b1"),
        ("profile_t2.81171.csv", "ff5a2effd6eedef1fababed2e19d2ac500a9c7ace9fa604be8a00f559745bc2b"),
        ("profile_t28.1171.csv", "540844685660e3db529189775041cad861c09891504d084f0d1a7979176b75ce"),
        ("profile_t50.csv", "c5f6fbd0e20478a494675c141bc5fe66d9b9655abcf0f429b53fd7bb6ef9d2b5"),
        ("profile_t500.csv", "c8a39c60f3f39ce44b14f80bc05ccc094ef18e2006f01fcd25e4cab0acb2da36"),
        ("profile_t8.8914.csv", "7081dcaacfd2f2944cb3fab2e7f43f96be086fab305ef2f9c109fa99e6ea6f02"),
        ("sandwich.json", "f374e2567f3b7544b0a6f362b3a28af6dfda9717f2222bcc111809250ce015ba"),
        ("steady_state.csv", "b1e56344c473782e4a504cac4a09cd0474a9cb0ba9aa1ac39d72d850b2539f7a"),
        ("sup_norm.csv", "e1d8003a080082490abc05bff2e443530c4b1f061559cb906459e78c1d482c80"),
        ("upper_curve.csv", "73949b0dd23339c7eedb9d038b816cdf5f8d55e25f13ee4c3ea6111b936367f6"),
    ]
    verdict = read_json(out / "manifest.json")["verdict"]
    digest = hashlib.sha256(json.dumps(verdict, sort_keys=True).encode()).hexdigest()
    assert digest == "915da5d7e835923768c00df2c4ffc8c79209fdbc2cf0fc6d36010b4eff013582"
