"""Experiment orchestration: JSON configs in, CSV/JSON artifacts out.

Usage:
    decaylab run <config.json> [--out DIR]
    decaylab report <run_dir>

Modes: ``steady_state``, ``lfunction_audit``, ``gn_scan``, ``pde_decay``,
``lower_bound``.  Every run writes a ``manifest.json`` listing each artifact
with its sha256; outputs are deterministic for a fixed config and build (no
wall-clock text, fixed iteration orders, fixed float formatting).

Exit codes: 0 pass, 1 verdict failure, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds, evolution, gn, radial, rates
from .errors import DecayLabError, InputError, NumericError
from .steepness import (SteepnessFunction, check_convexity_condition,
                        check_near_multiplicativity, check_ratio_bound)

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

MODES = ("steady_state", "lfunction_audit", "gn_scan", "pde_decay", "lower_bound")


class ConfigError(InputError):
    pass


def _require(cfg: dict, field: str, typ=None, ctx: str = "config"):
    if field not in cfg:
        raise ConfigError(f"{ctx}.{field}: required field missing")
    val = cfg[field]
    # bool is an int subclass; no field takes one, so true/false never pass as numbers
    if typ is not None and (isinstance(val, bool) or not isinstance(val, typ)):
        raise ConfigError(f"{ctx}.{field}: expected {typ}, got {type(val).__name__}")
    return val


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def load_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a JSON object")
    name = _require(cfg, "name", str)
    if not name:
        raise ConfigError("name: must be non-empty")
    mode = _require(cfg, "mode", str)
    if mode not in MODES:
        raise ConfigError(f"mode: {mode!r} not one of {MODES}")
    return cfg


class ArtifactWriter:
    """Writes files under the run directory and accumulates the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            probe = out_dir / ".write_probe"
            probe.write_bytes(b"")
            probe.unlink()
        except OSError as exc:
            raise ConfigError(f"output_dir: {out_dir} is not writable ({exc})") from exc
        self.entries = []

    def _register(self, name: str, data: bytes):
        (self.out_dir / name).write_bytes(data)
        self.entries.append({"path": name,
                             "sha256": hashlib.sha256(data).hexdigest()})

    def write_text(self, name: str, text: str):
        self._register(name, text.encode())

    def write_json(self, name: str, doc):
        self.write_text(name, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def write_series_csv(self, name: str, header, columns):
        rows = ["" + ",".join(header)]
        for values in zip(*columns):
            rows.append(",".join(f"{v:.17g}" for v in values))
        self.write_text(name, "\n".join(rows) + "\n")

    def finish(self, cfg: dict, verdict: dict):
        manifest = {
            "name": cfg["name"],
            "mode": cfg["mode"],
            "config": cfg,
            "artifacts": sorted(self.entries, key=lambda e: e["path"]),
            "verdict": verdict,
        }
        (self.out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _steepness_from_cfg(doc: dict, ctx: str = "L") -> SteepnessFunction:
    _require(doc, "kind", str, ctx)
    try:
        return SteepnessFunction.from_json(doc)
    except (KeyError, InputError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _envelope_from_cfg(doc: dict, ctx: str = "envelope") -> bounds.DecayEnvelope:
    kind = _require(doc, "kind", str, ctx)
    gamma = _require(doc, "gamma", (int, float), ctx) if kind == "DoubleExp" else None
    try:
        if kind == "Table":
            return bounds.DecayEnvelope(kind="Table",
                                        s_table=np.asarray(doc["s"], dtype=float),
                                        lambda_table=np.asarray(doc["lambda"], dtype=float))
        return bounds.DecayEnvelope(kind=kind, c0=doc.get("c0", 1.0),
                                    alpha=doc.get("alpha", 1.0),
                                    beta=doc.get("beta", 1.0), gamma=gamma)
    except (KeyError, InputError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _u0_from_cfg(doc: dict):
    """Radial initial datum: the floor of a closed-form envelope."""
    if _require(doc, "kind", str, "problem.u0") == "Table":
        raise ConfigError("problem.u0.kind: a datum needs a closed-form kind, not 'Table'")
    return _envelope_from_cfg(doc, "problem.u0").floor


def _snapshots_from_cfg(doc: dict, t_end: float) -> np.ndarray:
    kind = doc.get("kind", "log")
    if kind != "log":
        raise ConfigError(f"snapshots.kind: only 'log' is supported, got {kind!r}")
    t_min = doc.get("t_min", 0.01)
    count = doc.get("count", 65)
    snaps = np.geomspace(t_min, t_end, count)
    if doc.get("include_zero", True):
        snaps = np.concatenate([[0.0], snaps])
    return snaps


# -- mode runners ------------------------------------------------------------

def _run_steady_state(cfg: dict, writer: ArtifactWriter) -> dict:
    prob = _require(cfg, "problem", dict)
    p = _require(prob, "p", (int, float), "problem")
    n = _require(prob, "n", int, "problem")
    m = cfg.get("approx", {}).get("m", 4001)
    state = bounds.solve_steady_state(p, n, m)
    residual = bounds.steady_state_residual(state)
    writer.write_series_csv("steady_state.csv", ["r", "w"],
                            [state.r_nodes, state.w])
    verdict = {
        "center_value": state.center_value,
        "boundary_value": state.boundary_value,
        "flux_residual": residual,
        "sign_changes_in_bracket": state.sign_changes,
        "pass": bool(residual <= 1e-8),
    }
    writer.write_json("summary.json", verdict)
    return verdict


def _run_lfunction_audit(cfg: dict, writer: ArtifactWriter) -> dict:
    L = _steepness_from_cfg(_require(cfg, "L", dict))
    audit = cfg.get("audit", {})
    lambda0 = audit.get("lambda0", L.lambda0 if not math.isnan(L.lambda0) else 1.0)
    p = audit.get("p", 1.0)
    q0 = audit.get("q0", 1.0)
    s_points = audit.get("s_points", 400)
    l_points = audit.get("lambda_points", 400)

    s_hi = min(L.s0, 1e6) * (1.0 - 1e-9)
    s_grid = np.geomspace(min(L.s0, 1.0) * 1e-8, s_hi, s_points)
    lam_grid = np.linspace(lambda0 * 1e-3, lambda0 * (1.0 - 1e-9), l_points)
    checks = {}
    if not math.isnan(L.a):
        rep = check_near_multiplicativity(L, lambda0, L.a, s_grid, lam_grid)
        checks["near_multiplicativity"] = {
            "max_violation": rep.max_violation, "worst_s": rep.worst_s,
            "worst_lambda": rep.worst_lambda, "pass": rep.passed}
        ratio_grid = np.geomspace(min(L.s0, 1.0) * 1e-8, min(L.s0, 1.0) * (1 - 1e-9),
                                  s_points)
        rep2 = check_ratio_bound(L, L.a, ratio_grid)
        checks["ratio_bound"] = {"max_violation": rep2.max_violation,
                                 "worst_s": rep2.worst_s, "pass": rep2.passed}
    conv = check_convexity_condition(L, p, q0, s_grid)
    checks["convexity"] = {
        "weak_violation": conv.weak.max_violation,
        "strong_violation": conv.strong.max_violation,
        "pass": conv.passed,
    }
    ok = all(c["pass"] for c in checks.values())
    verdict = {"L": L.to_json(), "checks": checks, "pass": ok}
    writer.write_json("audit.json", verdict)
    return verdict


def _run_gn_scan(cfg: dict, writer: ArtifactWriter) -> dict:
    gcfg = _require(cfg, "grid", dict)
    grid = radial.RadialGrid(_require(gcfg, "n", int, "grid"),
                             _require(gcfg, "R", (int, float), "grid"),
                             _require(gcfg, "m", int, "grid"))
    L = _steepness_from_cfg(_require(cfg, "L", dict))
    rcfg = _require(cfg, "request", dict)
    req = gn.GNRequest(n=grid.n, q=_require(rcfg, "q", (int, float), "request"),
                       L=L, K=rcfg.get("K"))
    fcfg = _require(cfg, "family", dict)
    try:
        fam = gn.FamilySpec(kind=_require(fcfg, "kind", str, "family"),
                            c0=fcfg.get("c0", 1.0), alpha=fcfg.get("alpha", 1.0),
                            beta=fcfg.get("beta", 1.0), gamma=fcfg.get("gamma"),
                            scales=fcfg.get("scales", [1.0]),
                            widths=fcfg.get("widths", [1.0]))
    except InputError as exc:
        raise ConfigError(f"family: {exc}") from exc

    scan = gn.family_scan(fam, req, grid)
    writer.write_text("scan.csv", scan.to_csv())
    summary = {"scan": scan.summary()}
    probe_scale = cfg.get("sharpness_scale")
    if probe_scale:
        probe = gn.family_scan(fam, req, grid, alpha_scale=float(probe_scale))
        writer.write_text("scan_probe.csv", probe.to_csv())
        summary["probe"] = probe.summary()
    writer.write_json("summary.json", summary)
    summary["pass"] = True
    return summary


def _build_problem(cfg: dict):
    prob = _require(cfg, "problem", dict)
    spec = evolution.ProblemSpec(p=_require(prob, "p", (int, float), "problem"),
                                 n=_require(prob, "n", int, "problem"),
                                 u0=_u0_from_cfg(_require(prob, "u0", dict, "problem")))
    t_end = _require(cfg, "t_end", (int, float))
    snaps = _snapshots_from_cfg(cfg.get("snapshots", {}), t_end)
    return spec, t_end, snaps


def _observers_from_cfg(cfg: dict, spec):
    obs = {}
    for name in cfg.get("observers", []):
        if name in ("sup_norm", "center_value"):
            continue
        if name.startswith("lq:"):
            obs[name] = evolution.observer_lq(float(name.split(":", 1)[1]))
        elif name == "lyapunov":
            L = _steepness_from_cfg(_require(cfg, "L", dict))
            q = cfg.get("lyapunov_q", 1.0)
            obs[name] = evolution.observer_lyapunov(L, spec.p, q)
        else:
            raise ConfigError(f"observers: unknown observer {name!r}")
    return obs


def _write_run_series(writer: ArtifactWriter, run, prefix: str = ""):
    for name in sorted(run.series):
        fname = name.replace(":", "_")
        writer.write_series_csv(f"{prefix}{fname}.csv", ["t", "value"],
                                [run.times, run.series[name]])
    keep = np.unique(np.linspace(0, len(run.times) - 1, 9).astype(int))
    for k in keep:
        writer.write_series_csv(f"{prefix}profile_t{run.times[k]:.6g}.csv",
                                ["r", "u"],
                                [run.grid.nodes, run.profiles[k].values])


def _run_pde_decay(cfg: dict, writer: ArtifactWriter) -> dict:
    spec, t_end, snaps = _build_problem(cfg)
    obs = _observers_from_cfg(cfg, spec)
    acfg = _require(cfg, "approx", dict)
    verdict: dict = {}

    if "ladder" in acfg:
        lcfg = acfg["ladder"]
        eps_list = [float(e) for e in _require(lcfg, "eps_list", list, "approx.ladder")]
        R_list = [float(R) for R in _require(lcfg, "R_list", list, "approx.ladder")]
        m_list = [int(m) for m in _require(lcfg, "m_list", list, "approx.ladder")]
        if len(m_list) != len(R_list):
            raise ConfigError("approx.ladder.m_list: must match R_list in length")
        ladder = evolution.minimal_solution_ladder(
            spec, eps_list, R_list, dict(zip(R_list, m_list)), t_end, snaps, obs)
        run = ladder.proxy
        verdict["ladder"] = ladder.report()
        writer.write_json("ladder_report.json", verdict["ladder"])
    else:
        params = evolution.ApproxParams(
            R=_require(acfg, "R", (int, float), "approx"),
            eps=_require(acfg, "eps", (int, float), "approx"),
            m=_require(acfg, "m", int, "approx"),
            dt_init=acfg.get("dt_init", 1e-4), dt_max=acfg.get("dt_max", 1.0),
            safety=acfg.get("safety", 0.5))
        run = evolution.evolve(spec, params, t_end, snaps, obs)

    _write_run_series(writer, run)

    rate_cfg = cfg.get("rate")
    ok = True
    if rate_cfg is not None:
        env = _envelope_from_cfg(_require(cfg, "envelope", dict))
        L = _steepness_from_cfg(_require(cfg, "L", dict))
        window = tuple(rate_cfg.get("window", (10.0, None)))
        sandwich = rates.sandwich_report(
            run, env, L, spec.p, spec.n, _require(rate_cfg, "delta", (int, float), "rate"),
            window=window, slack=rate_cfg.get("slack", rates.RATIO_SLACK))
        verdict["sandwich"] = sandwich.to_json()
        writer.write_json("sandwich.json", verdict["sandwich"])
        baseline = rates.baseline_check(run.times, run.series["center_value"],
                                        spec.p, t0=window[0], t_hi=window[1])
        verdict["baseline"] = baseline.to_json()
        writer.write_json("baseline.json", verdict["baseline"])
        t_grid = run.times[run.times >= window[0]]
        curve = rates.lower_bound_curve(env, spec.p, 1.0 / (2.0 * spec.p),
                                        sandwich.lower.C, t_grid)
        writer.write_series_csv("lower_curve.csv", ["t", "value"], [t_grid, curve])
        upper_curve = rates.upper_bound_curve(L, spec.p, spec.n, sandwich.upper.C,
                                              t_grid)
        writer.write_series_csv("upper_curve.csv", ["t", "value"],
                                [t_grid, upper_curve])
        ok = sandwich.passed and baseline.passed
    verdict["pass"] = bool(ok)
    return verdict


def _run_lower_bound(cfg: dict, writer: ArtifactWriter) -> dict:
    spec, t_end, snaps = _build_problem(cfg)
    acfg = _require(cfg, "approx", dict)
    params = evolution.ApproxParams(
        R=_require(acfg, "R", (int, float), "approx"),
        eps=_require(acfg, "eps", (int, float), "approx"),
        m=_require(acfg, "m", int, "approx"))
    env = _envelope_from_cfg(_require(cfg, "envelope", dict))
    run = evolution.evolve(spec, params, t_end, snaps)
    _write_run_series(writer, run)

    steady_m = cfg.get("steady", {}).get("m", 4001)
    state = bounds.solve_steady_state(spec.p, spec.n, steady_m)
    writer.write_series_csv("steady_state.csv", ["r", "w"],
                            [state.r_nodes, state.w])

    tau0_list = cfg.get("tau0_list")
    if tau0_list is None:
        tau0_list = [math.log(t_end + 1.0)]
    c1 = cfg.get("c1")
    margins = []
    ok = True
    for tau0 in tau0_list:
        ss = bounds.build_subsolution(env, spec.p, state, float(tau0), c1)
        rep = bounds.subsolution_check(run, ss, state)
        margins.append({
            "tau0": float(tau0), "R_tau0": ss.R_tau0, "delta": ss.delta,
            "min_margin": rep.min_margin, "initial_margin": rep.initial_margin,
            "center_margin_at_tau0": rep.center_margin_at_tau0,
            "snapshots_checked": rep.snapshots_checked,
            "resolution_warning": rep.resolution_warning,
        })
        ok = ok and rep.min_margin >= 0.0
    verdict = {"steady_center": state.center_value,
               "steady_flux_residual": bounds.steady_state_residual(state),
               "margins": margins, "pass": bool(ok)}
    writer.write_json("margins.json", verdict)
    return verdict


_RUNNERS = {
    "steady_state": _run_steady_state,
    "lfunction_audit": _run_lfunction_audit,
    "gn_scan": _run_gn_scan,
    "pde_decay": _run_pde_decay,
    "lower_bound": _run_lower_bound,
}


def run_experiment(config_path: Path, out_dir=None) -> int:
    cfg = load_config(config_path)
    out = Path(out_dir) if out_dir else Path(cfg.get("output_dir", f"out/{cfg['name']}"))
    writer = ArtifactWriter(out)
    verdict = _RUNNERS[cfg["mode"]](cfg, writer)
    writer.finish(cfg, verdict)
    return EXIT_PASS if verdict.get("pass", True) else EXIT_VERDICT


# -- reporting ---------------------------------------------------------------

def _plot_script(mode: str, run_dir: Path):
    """gnuplot script referencing only files inside the run directory."""
    if mode in ("pde_decay", "lower_bound") and (run_dir / "sup_norm.csv").exists():
        plot = 'plot "sup_norm.csv" using 1:2 with lines title "measured"'
        if (run_dir / "upper_curve.csv").exists():
            plot += ', "upper_curve.csv" using 1:2 with lines title "upper bound"'
        if (run_dir / "lower_curve.csv").exists():
            plot += ', "lower_curve.csv" using 1:2 with lines title "lower bound"'
        return ('set datafile separator ","\nset logscale xy\n'
                'set xlabel "t"\nset ylabel "sup norm"\n' + plot + "\n")
    if mode == "gn_scan" and (run_dir / "scan.csv").exists():
        return ('set datafile separator ","\nset logscale x\n'
                'set xlabel "gradient norm"\nset ylabel "ratio"\n'
                'plot "scan.csv" using 4:7 with linespoints title "ratio"\n')
    if mode == "steady_state" and (run_dir / "steady_state.csv").exists():
        return ('set datafile separator ","\nset xlabel "r"\nset ylabel "w"\n'
                'plot "steady_state.csv" using 1:2 with lines title "steady state"\n')
    return None


def report(run_dir: Path) -> int:
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"error: no manifest.json in {run_dir}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = json.loads(manifest_path.read_text())
    mode = manifest["mode"]
    lines = [f"# {manifest['name']}", "", f"mode: {mode}", ""]
    problems = []
    for entry in manifest["artifacts"]:
        path = run_dir / entry["path"]
        status = "ok"
        if not path.exists():
            status = "MISSING"
        elif entry["path"].endswith(".csv"):
            try:
                rows = list(csv.reader(path.open()))
                float(rows[-1][-1])
            except Exception:
                status = "CORRUPT"
        if status != "ok":
            problems.append(f"- {entry['path']}: {status}")
        lines.append(f"- `{entry['path']}` ({status})")
    lines.append("")
    lines.append("## verdict")
    lines.append("```json")
    lines.append(json.dumps(manifest["verdict"], indent=2, sort_keys=True))
    lines.append("```")
    if problems:
        lines.append("")
        lines.append("## problems")
        lines.extend(problems)
    (run_dir / "summary.md").write_text("\n".join(lines) + "\n")

    script = _plot_script(mode, run_dir)
    if script is not None:
        (run_dir / "plot.gp").write_text(script)
    print(f"wrote {run_dir / 'summary.md'}")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decaylab",
        description="steepness-weighted interpolation and degenerate-diffusion decay lab")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None)
    p_rep = sub.add_parser("report", help="summarize a finished run directory")
    p_rep.add_argument("run_dir", type=Path)
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run_experiment(args.config, args.out)
        return report(args.run_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DecayLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
