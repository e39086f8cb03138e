"""Experiment orchestration: JSON configs in, CSV/JSON artifacts out.

Usage:
    decaylab run <config.json> [--out DIR]
    decaylab report <run_dir>

Modes: ``steady_state``, ``lfunction_audit``, ``gn_scan``, ``pde_decay``,
``lower_bound``.  Every run writes a ``manifest.json`` listing each artifact
with its sha256; outputs are deterministic for a fixed config and build (no
wall-clock text, fixed iteration orders, fixed float formatting).

Every config field is type-checked, and a run reads all of its fields before
it computes anything, so a missing or wrongly typed field (``"2"`` or ``true``
for a number, ``2.5`` for an integer) exits 2 before any time stepping.

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
from .errors import DecayLabError, InputError
from .steepness import (SteepnessFunction, check_convexity_condition,
                        check_near_multiplicativity, check_ratio_bound)

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

MODES = ("steady_state", "lfunction_audit", "gn_scan", "pde_decay", "lower_bound")


class ConfigError(InputError):
    pass


# A field kind: what it holds, in words, and a test of one JSON value.  Types
# match exactly, so true/false pass only where a bool is asked for.
NUMBER = ("a number", lambda val: type(val) in (int, float))
INTEGER = ("an integer", lambda val: type(val) is int)
STRING = ("a string", lambda val: type(val) is str)
BOOLEAN = ("true or false", lambda val: type(val) is bool)
OBJECT = ("an object", lambda val: type(val) is dict)
LIST = ("a list", lambda val: type(val) is list)
WINDOW = ("[number, number or null]", lambda val: type(val) is list and len(val) == 2
          and type(val[0]) in (int, float) and type(val[1]) in (int, float, type(None)))
_REQUIRED = object()


class _Section:
    """One JSON object of a config and its dotted path; every read is type-checked."""

    def __init__(self, doc: dict, path: str = ""):
        self.doc = doc
        self.path = path

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def read(self, key: str, kind, default=_REQUIRED):
        if key not in self.doc:
            if default is _REQUIRED:
                raise ConfigError(f"{self._at(key)}: required field missing")
            return default
        val = self.doc[key]
        if not kind[1](val):
            raise ConfigError(f"{self._at(key)}: expected {kind[0]}, got {json.dumps(val)}")
        return val

    def list_of(self, key: str, kind, default=_REQUIRED) -> list:
        """A list whose items are of ``kind``; item i has the path ``<key>.i``."""
        items = _Section(dict(enumerate(self.read(key, LIST, default))), self._at(key))
        return [items.read(i, kind) for i in items.doc]

    def section(self, key: str, default=_REQUIRED):
        """The nested object ``key``, or ``default`` (``{}`` or None) when absent."""
        doc = self.read(key, OBJECT, default)
        return None if doc is None else _Section(doc, self._at(key))

    def build(self, make, **fields):
        """``make(**fields)``, reporting a failed precondition at this section."""
        try:
            return make(**fields)
        except InputError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc


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
    root = _Section(cfg)
    if not root.read("name", STRING):
        raise ConfigError("name: must be non-empty")
    mode = root.read("mode", STRING)
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


def _steepness(sec: _Section) -> SteepnessFunction:
    sec.read("kind", STRING)
    for key in ("kappa", "M", "s0", "lambda0", "r"):
        sec.read(key, NUMBER, None)
    try:
        return sec.build(SteepnessFunction.from_json, doc=sec.doc)
    except KeyError as exc:
        raise ConfigError(f"{sec._at(exc.args[0])}: required field missing") from None


def _envelope_fields(sec: _Section) -> dict:
    """kind, c0, alpha, beta and (DoubleExp only) gamma of a closed-form envelope."""
    kind = sec.read("kind", STRING)
    return {"kind": kind, "c0": sec.read("c0", NUMBER, 1.0),
            "alpha": sec.read("alpha", NUMBER, 1.0), "beta": sec.read("beta", NUMBER, 1.0),
            "gamma": sec.read("gamma", NUMBER) if kind == "DoubleExp" else None}


def _envelope(sec: _Section) -> bounds.DecayEnvelope:
    return sec.build(bounds.DecayEnvelope, **_envelope_fields(sec))


def _problem(cfg: _Section):
    """Problem (its datum an envelope's floor), end time and snapshot times."""
    prob = cfg.section("problem")
    spec = evolution.ProblemSpec(p=prob.read("p", NUMBER), n=prob.read("n", INTEGER),
                                 u0=_envelope(prob.section("u0")).floor)
    t_end = cfg.read("t_end", NUMBER)
    snap = cfg.section("snapshots", {})
    kind = snap.read("kind", STRING, "log")
    if kind != "log":
        raise ConfigError(f"snapshots.kind: only 'log' is supported, got {kind!r}")
    snaps = np.geomspace(snap.read("t_min", NUMBER, 0.01), t_end,
                         snap.read("count", INTEGER, 65))
    if snap.read("include_zero", BOOLEAN, True):
        snaps = np.concatenate([[0.0], snaps])
    return spec, t_end, snaps


def _approx_params(sec: _Section) -> evolution.ApproxParams:
    return evolution.ApproxParams(R=sec.read("R", NUMBER), eps=sec.read("eps", NUMBER),
                                  m=sec.read("m", INTEGER))


def _observers(cfg: _Section, names: list, p: float, L):
    obs = {}
    for name in names:
        if name in ("sup_norm", "center_value"):
            continue
        if name.startswith("lq:"):
            try:
                q = float(name[3:])
            except ValueError:
                q = math.nan
            if not 0.0 < q < math.inf:
                raise ConfigError(f"observers: {name!r} needs a positive number after 'lq:'")
            obs[name] = evolution.observer_lq(q)
        elif name == "lyapunov":
            obs[name] = evolution.observer_lyapunov(L, p, cfg.read("lyapunov_q", NUMBER, 1.0))
        else:
            raise ConfigError(f"observers: unknown observer {name!r}")
    return obs


# -- mode runners ------------------------------------------------------------
# Each runner reads all of its config fields before it computes anything.

def _run_steady_state(cfg: _Section, writer: ArtifactWriter) -> dict:
    prob = cfg.section("problem")
    p, n = prob.read("p", NUMBER), prob.read("n", INTEGER)
    m = cfg.section("approx", {}).read("m", INTEGER, 4001)
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


def _run_lfunction_audit(cfg: _Section, writer: ArtifactWriter) -> dict:
    L = _steepness(cfg.section("L"))
    audit = cfg.section("audit", {})
    lambda0 = audit.read("lambda0", NUMBER, L.lambda0 if not math.isnan(L.lambda0) else 1.0)
    p = audit.read("p", NUMBER, 1.0)
    q0 = audit.read("q0", NUMBER, 1.0)
    s_points = audit.read("s_points", INTEGER, 400)
    l_points = audit.read("lambda_points", INTEGER, 400)

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


def _run_gn_scan(cfg: _Section, writer: ArtifactWriter) -> dict:
    gcfg = cfg.section("grid")
    grid = radial.RadialGrid(gcfg.read("n", INTEGER), gcfg.read("R", NUMBER),
                             gcfg.read("m", INTEGER))
    L = _steepness(cfg.section("L"))
    rcfg = cfg.section("request")
    req = gn.GNRequest(n=grid.n, q=rcfg.read("q", NUMBER), L=L, K=rcfg.read("K", NUMBER, None))
    fcfg = cfg.section("family")
    fam = fcfg.build(gn.FamilySpec, **_envelope_fields(fcfg),
                     scales=fcfg.list_of("scales", NUMBER, [1.0]),
                     widths=fcfg.list_of("widths", NUMBER, [1.0]))
    probe_scale = cfg.read("sharpness_scale", NUMBER, None)

    scan = gn.family_scan(fam, req, grid)
    writer.write_text("scan.csv", scan.to_csv())
    summary = {"scan": scan.summary()}
    if probe_scale:
        probe = gn.family_scan(fam, req, grid, alpha_scale=float(probe_scale))
        writer.write_text("scan_probe.csv", probe.to_csv())
        summary["probe"] = probe.summary()
    writer.write_json("summary.json", summary)
    summary["pass"] = True
    return summary


def _write_run_series(writer: ArtifactWriter, run):
    for name in sorted(run.series):
        writer.write_series_csv(f"{name.replace(':', '_')}.csv", ["t", "value"],
                                [run.times, run.series[name]])
    keep = np.unique(np.linspace(0, len(run.times) - 1, 9).astype(int))
    for k in keep:
        writer.write_series_csv(f"profile_t{run.times[k]:.6g}.csv", ["r", "u"],
                                [run.grid.nodes, run.profiles[k].values])


def _run_pde_decay(cfg: _Section, writer: ArtifactWriter) -> dict:
    spec, t_end, snaps = _problem(cfg)
    names = cfg.list_of("observers", STRING, [])
    rate = cfg.section("rate", None)
    L = _steepness(cfg.section("L")) if rate is not None or "lyapunov" in names else None
    obs = _observers(cfg, names, spec.p, L)
    acfg = cfg.section("approx")
    lcfg = acfg.section("ladder", None)
    if lcfg is not None:
        eps_list = [float(e) for e in lcfg.list_of("eps_list", NUMBER)]
        R_list = [float(R) for R in lcfg.list_of("R_list", NUMBER)]
        m_list = lcfg.list_of("m_list", INTEGER)
        if len(m_list) != len(R_list):
            raise ConfigError("approx.ladder.m_list: must match R_list in length")
    else:
        params = _approx_params(acfg)
    if rate is not None:
        env = _envelope(cfg.section("envelope"))
        delta = rate.read("delta", NUMBER)
        slack = rate.read("slack", NUMBER, rates.RATIO_SLACK)
        window = tuple(rate.read("window", WINDOW, [10.0, None]))

    verdict: dict = {"pass": True}
    if lcfg is not None:
        ladder = evolution.minimal_solution_ladder(
            spec, eps_list, R_list, dict(zip(R_list, m_list)), t_end, snaps, obs)
        run = ladder.proxy
        verdict["ladder"] = ladder.report()
        writer.write_json("ladder_report.json", verdict["ladder"])
    else:
        run = evolution.evolve(spec, params, t_end, snaps, obs)

    _write_run_series(writer, run)

    if rate is not None:
        sandwich = rates.sandwich_report(run, env, L, spec.p, spec.n, delta,
                                         window=window, slack=slack)
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
        upper_curve = rates.upper_bound_curve(L, spec.p, spec.n, sandwich.upper.C, t_grid)
        writer.write_series_csv("upper_curve.csv", ["t", "value"], [t_grid, upper_curve])
        verdict["pass"] = bool(sandwich.passed and baseline.passed)
    return verdict


def _run_lower_bound(cfg: _Section, writer: ArtifactWriter) -> dict:
    spec, t_end, snaps = _problem(cfg)
    params = _approx_params(cfg.section("approx"))
    env = _envelope(cfg.section("envelope"))
    steady_m = cfg.section("steady", {}).read("m", INTEGER, 4001)
    tau0_list = cfg.list_of("tau0_list", NUMBER, [math.log(t_end + 1.0)])
    c1 = cfg.read("c1", NUMBER, None)

    run = evolution.evolve(spec, params, t_end, snaps)
    _write_run_series(writer, run)

    state = bounds.solve_steady_state(spec.p, spec.n, steady_m)
    writer.write_series_csv("steady_state.csv", ["r", "w"],
                            [state.r_nodes, state.w])

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
    cfg = _Section(load_config(config_path))
    out = cfg.read("output_dir", STRING, f"out/{cfg.doc['name']}")
    writer = ArtifactWriter(Path(out_dir or out))
    verdict = _RUNNERS[cfg.doc["mode"]](cfg, writer)
    writer.finish(cfg.doc, verdict)
    return EXIT_PASS if verdict["pass"] else EXIT_VERDICT


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
                with path.open(newline="") as fh:
                    rows = list(csv.reader(fh))
                float(rows[-1][-1])
            except (OSError, csv.Error, IndexError, ValueError):
                status = "CORRUPT"
        if status != "ok":
            problems.append(f"- {entry['path']}: {status}")
        lines.append(f"- `{entry['path']}` ({status})")
    lines += ["", "## verdict", "```json",
              json.dumps(manifest["verdict"], indent=2, sort_keys=True), "```"]
    if problems:
        lines += ["", "## problems", *problems]
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
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DecayLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
