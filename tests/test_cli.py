import hashlib
import json
import math

import numpy as np
import pytest

from decaylab import cli, evolution
from decaylab.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_PASS, main, run_experiment)
from decaylab.errors import NumericError


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
    "snapshots": {"kind": "log", "t_min": 0.5, "count": 6, "include_zero": True},
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
        "audit": {"lambda0": 1.0, "p": 1.0, "q0": 1.0,
                  "s_points": 120, "lambda_points": 120},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    audit = read_json(out / "audit.json")
    assert audit["pass"]
    assert set(audit["checks"]) == {"near_multiplicativity", "ratio_bound",
                                    "convexity"}


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
    assert (out / "scan.csv").exists() and (out / "scan_probe.csv").exists()


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


def test_pde_decay_ladder_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "name": "lad", "mode": "pde_decay",
        "problem": {"p": 4.0, "n": 1,
                    "u0": {"kind": "StretchedExp", "c0": 2.0, "alpha": 0.25, "beta": 2.0}},
        "approx": {"ladder": {"eps_list": [1e-2, 1e-3], "R_list": [10.0, 20.0],
                              "m_list": [251, 501]}},
        "t_end": 10.0,
        "snapshots": {"kind": "log", "t_min": 1.0, "count": 5, "include_zero": True},
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    rep = read_json(out / "ladder_report.json")
    assert rep["eps_monotonicity_violation"] <= 1e-8
    assert rep["R_monotonicity_violation"] <= 1e-8


def test_lower_bound_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "name": "lb", "mode": "lower_bound",
        "problem": {"p": 1.0, "n": 1,
                    "u0": {"kind": "StretchedExp", "c0": 1.0, "alpha": 1.0, "beta": 2.0}},
        "approx": {"R": 12.0, "eps": 1e-4, "m": 301},
        "t_end": 50.0,
        "snapshots": {"kind": "log", "t_min": 0.5, "count": 9, "include_zero": True},
        "envelope": {"kind": "StretchedExp", "c0": 1.0, "alpha": 1.0, "beta": 2.0},
        "steady": {"m": 1001},
        "tau0_list": [math.log(51.0)],
    })
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
    doc = read_json(out / "margins.json")
    assert doc["pass"]
    assert doc["margins"][0]["min_margin"] >= 0.0


def test_schema_errors_exit_2(tmp_path):
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
        "eps_list": [1e-2, 1e-3], "R_list": [10.0], "m_list": [251]}})
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
        with_field(ladder, "approx.ladder.m_list", [251.9]),
        with_field(steady, "approx", []),
        with_field(rated, "rate.window", [1.0]),
    ]
    for doc in ill_typed:
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG, doc
    broken = tmp_path / "broken.json"
    broken.write_text('{"name": "x", "mode":')
    assert main(["run", str(broken)]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG


def test_config_read_before_time_stepping(tmp_path, monkeypatch):
    # rate is used only after the evolution, yet a bad field in it must stop
    # the run before any time step
    calls = []
    real_evolve = evolution.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args)
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(evolution, "evolve", counting_evolve)
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


def test_numeric_failure_exit_3(tmp_path, monkeypatch):
    def diverge(cfg, writer):
        raise NumericError("steady-state shooting did not converge")

    monkeypatch.setitem(cli._RUNNERS, "steady_state", diverge)
    cfg = write_config(tmp_path, {"name": "ss", "mode": "steady_state"})
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_NUMERIC


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


def test_report_missing_manifest(tmp_path):
    assert main(["report", str(tmp_path)]) == EXIT_CONFIG


def test_checked_in_configs_are_valid(tmp_path):
    from decaylab.cli import load_config
    from pathlib import Path
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    names = {p.name for p in cfg_dir.glob("*.json")}
    assert {"steady_state.json", "lfunction_audit.json", "gn_scan.json",
            "pde_decay_sandwich.json", "ladder.json", "lower_bound.json"} <= names
    for path in sorted(cfg_dir.glob("*.json")):
        load_config(path)
