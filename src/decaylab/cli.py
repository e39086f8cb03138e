"""Experiment orchestration: JSON configs in, CSV/JSON artifacts out.

Usage:
    decaylab run <config.json> [--out DIR]
    decaylab report <run_dir>

Modes: ``steady_state``, ``lfunction_audit``, ``gn_scan``, ``pde_decay``.  A
``pde_decay`` run evolves an (eps, R) ladder of one member or more and judges
its proxy with each of its sections, ``rate`` (two-sided rates) and
``certificate`` (separated subsolution); it passes when all of them do.
The ``steady_state`` mode and the certificate share one steady-state path,
``_steady_state``, which solves on ``bounds.STEADY_M`` nodes and passes at a
flux residual within ``bounds.RESIDUAL_TOL``.
Every run writes a ``manifest.json`` listing each artifact with its sha256;
its ``verdict`` is the one record of the run's verdict, which no artifact
copies (a certificate's own pass is its ``certificate_pass``, since the
verdict's ``pass`` is the AND of every section).  A ``pde_decay`` run writes
one table per axis: ``series.csv`` (``t``, ``sup_norm``, then each observer),
``profiles.csv`` (``r``, then nine snapshots spread over the run) and, with
``rate``, ``bound_curves.csv`` (``t``, ``lower``, ``upper`` on the rate window).
Its sup series is also its center value, since the run stays radially
nonincreasing.  A ``gn_scan`` run writes ``scan.csv``, one row per member;
with ``sharpness_scale`` its ``probe_ratio`` column, the sharpness probe,
follows ``ratio``.  Outputs are deterministic for a fixed config and build (no
wall-clock text, fixed iteration orders, fixed float formatting).

Every config field is type-checked (some are range-checked too), and a run
reads all of its fields before it computes anything, so a missing, wrongly
typed or out-of-range field (``"2"`` or ``true`` for a number, ``2.5`` for an
integer, ``0`` for ``t_end``, or one before ``evolution.CAUCHY_T_MIN`` in a
ladder of more than one member, a certificate horizon beyond ``ln(t_end + 1)``,
before ``ln(t_min + 1)``, which would check the datum alone, or listed twice),
a ladder that ``evolution.ladder_params`` refuses, a key no part of the run
reads (``"certificat"``, or a gauge field of another kind), or a ``rate``
window that its verdict would refuse exits 2 before any time stepping; so
does a certificate horizon outside the envelope's inverse, or an envelope
that is not a floor of the judged member's datum on a horizon's ball.  Each
input has one field: a gauge ``L`` has the fields of its kind
(``SteepnessFunction.fields``), the rate's gauge is derived from the envelope
and ``rate.delta`` (``rates.rate_model``), and a run's eps and R are the lists
of ``approx.ladder``, whose node count ``approx.m`` is that of its largest ball.
A verdict that holds a NaN or an infinity is a numeric failure: it exits 3.
``ArtifactWriter.finish`` alone creates the run directory, after the verdict,
with the artifacts and then the manifest, so a run that exits 2 or 3 leaves
no directory.  ``report`` checks each artifact against the manifest's sha256
and flags any other file of the run directory as EXTRA.

Exit codes: 0 pass, 1 verdict failure, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bounds, evolution, gn, radial, rates
from .errors import DecayLabError, InputError, NumericError
from .steepness import (POWER_LAW_FAILURES, SteepnessFunction, check_convexity_condition,
                        check_near_multiplicativity, check_ratio_bound)

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

AUDIT_POINTS = 400  # points of each grid of the lfunction_audit mode


class ConfigError(InputError):
    pass


# A field kind: what it holds, in words, and a test of one JSON value.  Types
# match exactly, so true/false pass only where a bool is asked for.
NUMBER = ("a number", lambda val: type(val) in (int, float))
POSITIVE = ("a positive number", lambda val: type(val) in (int, float) and val > 0)
INTEGER = ("an integer", lambda val: type(val) is int)
COUNT = ("a positive integer", lambda val: type(val) is int and val > 0)
NODES = ("an integer >= 3", lambda val: type(val) is int and val >= 3)
STRING = ("a string", lambda val: type(val) is str)
OBJECT = ("an object", lambda val: type(val) is dict)
LIST = ("a list", lambda val: type(val) is list)
WINDOW = ("[number, number or null]", lambda val: type(val) is list and len(val) == 2
          and type(val[0]) in (int, float) and type(val[1]) in (int, float, type(None)))
_REQUIRED = object()


class _Section:
    """One JSON object of a config and its dotted path; every read is type-checked."""

    def __init__(self, doc: dict, path: str = "", seen=None):
        self.doc = doc
        self.path = path
        self.seen = set() if seen is None else seen  # paths asked for, shared with subsections

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def read(self, key: str, kind, default=_REQUIRED):
        self.seen.add(self._at(key))
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
        return None if doc is None else _Section(doc, self._at(key), self.seen)

    def unread(self):
        """Dotted paths of the keys in and below this section that no read asked for."""
        for key, val in self.doc.items():
            if self._at(key) not in self.seen:
                yield self._at(key)
            elif type(val) is dict:
                yield from _Section(val, self._at(key), self.seen).unread()

    def build(self, make, at=None, **fields):
        """``make(**fields)``, reporting a failed precondition at this section,
        or at its field ``at``."""
        try:
            return make(**fields)
        except InputError as exc:
            raise ConfigError(f"{self.path if at is None else self._at(at)}: {exc}") from exc


def _finite(text: str, parse=float):
    """A JSON number literal, parsed by ``parse``, that is a finite double:
    NaN, Infinity, 1e400 and a 400-digit integer are refused at load."""
    try:
        val = parse(text)
        if math.isfinite(float(val)):
            return val
    except (ValueError, OverflowError):
        pass
    shown = text if len(text) <= 24 else f"{text[:12]}...({len(text)} characters)"
    raise ConfigError(f"number {shown} is not a finite double")


def load_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, parse_float=_finite, parse_constant=_finite,
                         parse_int=lambda digits: _finite(digits, int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a JSON object")
    root = _Section(cfg)
    if not root.read("name", STRING):
        raise ConfigError("name: must be non-empty")
    mode = root.read("mode", STRING)
    if mode not in _RUNNERS:
        raise ConfigError(f"mode: {mode!r} not one of {tuple(_RUNNERS)}")
    return cfg


class ArtifactWriter:
    """Keeps a run's artifacts until ``finish`` creates the run directory and
    writes them, then the manifest; no other code creates a run directory."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.entries = []  # (name, bytes) of each artifact, in the order written

    def _register(self, name: str, data: bytes):
        if any(name == known for known, _ in self.entries):
            raise InputError(f"artifact {name} is already written")
        self.entries.append((name, data))

    def write_text(self, name: str, text: str):
        self._register(name, text.encode())

    def write_json(self, name: str, doc):
        self.write_text(name, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def write_series_csv(self, name: str, header, columns):
        """One row per index of the columns; a str cell as it is, a number as %.17g.

        Array columns are read as Python numbers.  Each column gets one format,
        ``%.17g`` when all its cells are float, int or bool and ``%s`` when all
        are str, and one template formats a whole row; any other column is
        formatted cell by cell first.  ``"%.17g" % v`` and ``f"{v:.17g}"`` give
        the same digits for a float, an int or a bool.
        """
        columns = [col.tolist() if isinstance(col, np.ndarray) else list(col) for col in columns]
        formats = []
        for k, col in enumerate(columns):
            kinds = set(map(type, col))
            if kinds <= {float, int, bool}:
                formats.append("%.17g")
            else:
                if kinds != {str}:
                    columns[k] = [v if type(v) is str else f"{v:.17g}" for v in col]
                formats.append("%s")
        rows = map(",".join(formats).__mod__, zip(*columns))
        self.write_text(name, "\n".join([",".join(header), *rows]) + "\n")

    def finish(self, cfg: dict, verdict: dict):
        manifest = {
            "name": cfg["name"],
            "mode": cfg["mode"],
            "config": cfg,
            "artifacts": sorted(({"path": name, "sha256": hashlib.sha256(data).hexdigest()}
                                 for name, data in self.entries), key=lambda e: e["path"]),
            "verdict": verdict,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            for name, data in self.entries:
                (self.out_dir / name).write_bytes(data)
            (self.out_dir / "manifest.json").write_text(text)
        except OSError as exc:
            raise ConfigError(f"output_dir: {self.out_dir} is not writable ({exc})") from exc


def _steepness(sec: _Section) -> SteepnessFunction:
    """A gauge from the fields of its kind only; another kind's field is left unread."""
    kind = sec.read("kind", STRING)
    fields = sec.build(SteepnessFunction.fields, kind=kind)
    return sec.build(SteepnessFunction.from_json, doc={"kind": kind, **{
        key: sec.read(key, NUMBER, _REQUIRED if default is None else default)
        for key, default in fields.items()}})


def _envelope(sec: _Section) -> bounds.DecayEnvelope:
    """kind, c0, alpha, beta and (DoubleExp only) gamma of a closed-form envelope."""
    kind = sec.read("kind", STRING)
    return sec.build(bounds.DecayEnvelope, kind=kind, c0=sec.read("c0", NUMBER, 1.0),
                     alpha=sec.read("alpha", NUMBER, 1.0), beta=sec.read("beta", NUMBER, 1.0),
                     gamma=sec.read("gamma", NUMBER) if kind == "DoubleExp" else None)


def _problem(cfg: _Section):
    """Problem (its datum an envelope's floor), end time and the times a run
    records: t = 0 and a geometric grid up to t_end."""
    prob = cfg.section("problem")
    spec = prob.build(evolution.ProblemSpec, p=prob.read("p", NUMBER),
                      n=prob.read("n", INTEGER), u0=_envelope(prob.section("u0")).floor)
    t_end = cfg.read("t_end", POSITIVE)
    snap = cfg.section("snapshots", {})
    t_min = snap.read("t_min", POSITIVE, 0.01)
    if not t_min < t_end:
        raise ConfigError(f"snapshots.t_min: must lie below t_end = {t_end:g}, got {t_min:g}")
    snaps = np.concatenate([[0.0], np.geomspace(t_min, t_end, snap.read("count", COUNT, 65))])
    return spec, t_end, evolution.normalize_snapshots(snaps, t_end)


def _observers(names: list):
    by_q = {}       # q -> the entry that asks for it; each series is written once
    for name in names:
        if name.startswith("lq:"):
            try:
                q = float(name[3:])
            except ValueError:
                q = math.nan
            if not 0.0 < q < math.inf or name[3:] != name[3:].strip():  # it heads a column
                raise ConfigError(f"observers: {name!r} needs a positive number after 'lq:'")
            if q in by_q:
                raise ConfigError(f"observers: {by_q[q]!r} and {name!r} name one q = {q:g}")
            by_q[q] = name
        else:
            raise ConfigError(f"observers: unknown observer {name!r} (an observer is "
                              "'lq:<q>'; series.csv always holds sup_norm)")
    return {name: evolution.observer_lq(q) for q, name in by_q.items()}


def _steady_state(writer: ArtifactWriter, p: float, n: int):
    """The steady state w_1 on bounds.STEADY_M nodes, written to steady_state.csv,
    its flux residual, and whether that is within bounds.RESIDUAL_TOL."""
    state = bounds.solve_steady_state(p, n, bounds.STEADY_M)
    writer.write_series_csv("steady_state.csv", ["r", "w"], [state.r_nodes, state.w])
    residual = bounds.steady_state_residual(state)
    return state, residual, bool(residual <= bounds.RESIDUAL_TOL)


# -- mode runners ------------------------------------------------------------
# Each runner reads all of its config fields and returns the step that computes
# the run and hands its artifacts to the writer, so a config error stops the run
# before any work.

def _run_steady_state(cfg: _Section):
    prob = cfg.section("problem")
    p, n = prob.read("p", NUMBER), prob.read("n", INTEGER)
    prob.build(bounds.check_steady_problem, p=p, n=n)

    def compute(writer: ArtifactWriter) -> dict:
        state, residual, converged = _steady_state(writer, p, n)
        return {
            "center_value": state.center_value,
            "boundary_value": state.boundary_value,
            "flux_residual": residual,
            "pass": converged,
        }
    return compute


def _run_lfunction_audit(cfg: _Section):
    L = _steepness(cfg.section("L"))

    def compute(writer: ArtifactWriter) -> dict:
        s_hi = min(L.s0, 1e6) * (1.0 - 1e-9)
        s_grid = np.geomspace(min(L.s0, 1.0) * 1e-8, s_hi, AUDIT_POINTS)
        if L.kind == "PowerLaw":  # both checks refuse it, for these reasons
            checks = {name: {"pass": False, "reason": why}
                      for name, why in POWER_LAW_FAILURES.items()}
        else:  # a log-type gauge, with its own a and lambda0
            checks = {}
            lam_grid = np.linspace(L.lambda0 * 1e-3, L.lambda0 * (1.0 - 1e-9), AUDIT_POINTS)
            rep = check_near_multiplicativity(L, s_grid, lam_grid)
            checks["near_multiplicativity"] = {
                "max_violation": rep.max_violation, "worst_s": rep.worst_s,
                "worst_lambda": rep.worst_lambda, "pass": rep.passed}
            ratio_grid = np.geomspace(min(L.s0, 1.0) * 1e-8, min(L.s0, 1.0) * (1 - 1e-9),
                                      AUDIT_POINTS)
            rep = check_ratio_bound(L, ratio_grid)
            checks["ratio_bound"] = {"max_violation": rep.max_violation,
                                     "worst_s": rep.worst_s, "pass": rep.passed}
        rep = check_convexity_condition(L, s_grid)
        checks["convexity"] = {"max_violation": rep.max_violation, "worst_s": rep.worst_s,
                               "pass": rep.passed}
        return {"L": L.to_json(), "checks": checks,
                "pass": all(c["pass"] for c in checks.values())}
    return compute


def _run_gn_scan(cfg: _Section):
    gcfg = cfg.section("grid")
    grid = gcfg.build(radial.RadialGrid, n=gcfg.read("n", INTEGER), R=gcfg.read("R", NUMBER),
                      m=gcfg.read("m", NODES))
    L = _steepness(cfg.section("L"))
    rcfg = cfg.section("request")
    q, K = rcfg.read("q", NUMBER), rcfg.read("K", POSITIVE, None)
    rcfg.build(gn._alpha, at="q", q=q, n=grid.n)  # below the critical exponent
    fcfg = cfg.section("family")
    fam = fcfg.build(gn.FamilySpec, envelope=_envelope(fcfg),
                     scales=fcfg.list_of("scales", NUMBER, [1.0]),
                     widths=fcfg.list_of("widths", NUMBER, [1.0]))
    fcfg.build(fam.check_resolvable, grid=grid)
    probe_scale = cfg.read("sharpness_scale", POSITIVE, None)
    columns = ["member_id", "width", "scale", "grad_norm", "lq_norm", "budget", "ratio",
               *(["probe_ratio"] if probe_scale is not None else [])]

    def compute(writer: ArtifactWriter) -> dict:
        scan = gn.family_scan(fam, grid, q, L, K, probe_scale)
        # one row per member, one column per field of gn.ScanRow
        writer.write_series_csv("scan.csv", columns, [[getattr(row, col) for row in scan.rows]
                                                      for col in columns])
        # every member within budget (family_scan refuses a ratio that is not a positive double)
        return {**scan.summary(), "pass": all(row.budget_ok for row in scan.rows)}
    return compute


def _write_run_series(writer: ArtifactWriter, run):
    """The judged run's series.csv and profiles.csv (module docstring)."""
    names = ["sup_norm", *sorted(set(run.series) - {"sup_norm"})]
    writer.write_series_csv("series.csv", ["t", *names],
                            [run.times, *(run.series[name] for name in names)])
    picks = np.unique(np.linspace(0, len(run.times) - 1, 9).astype(int))
    writer.write_series_csv("profiles.csv", ["r", *(f"t={run.times[k]:.17g}" for k in picks)],
                            [run.grid.nodes, *run.values[picks]])


def _run_pde_decay(cfg: _Section):
    spec, t_end, snaps = _problem(cfg)
    obs = _observers(cfg.list_of("observers", STRING, []))
    rate = cfg.section("rate", None)
    cert = cfg.section("certificate", None)
    acfg = cfg.section("approx")
    m = acfg.read("m", NODES)  # nodes on the ladder's largest ball
    lcfg = acfg.section("ladder")
    eps_list = [float(e) for e in lcfg.list_of("eps_list", NUMBER)]
    R_list = [float(R) for R in lcfg.list_of("R_list", NUMBER)]
    params = lcfg.build(evolution.ladder_params, eps_list=eps_list, R_list=R_list, m=m)
    if len(params) > 1 and not t_end >= evolution.CAUCHY_T_MIN:
        raise ConfigError(f"t_end: a ladder of more than one member compares snapshots from "
                          f"t = {evolution.CAUCHY_T_MIN:g} on, got {t_end:g}")
    if obs or cert is not None:
        # the judged member's lifted datum: the certificate's floor is checked
        # on it here, and each observer is probed on it before the time stepping
        grid = radial.RadialGrid(spec.n, R_list[-1], m)
        datum = evolution.initial_profile(spec, params[eps_list[-1], R_list[-1]], grid)
    if rate is not None or cert is not None:
        env = _envelope(cfg.section("envelope"))
    if rate is not None:
        delta = rate.read("delta", POSITIVE)
        window = tuple(rate.read("window", WINDOW, [10.0, None]))
        _, model, L = rate.build(rates.rate_model, env=env, p=spec.p, n=spec.n, delta=delta)
        in_window = rate.build(rates.rate_window, times=snaps, window=window, model=model)
        rate.build(rates.baseline_tail, at="window", t=snaps[in_window])
    if cert is not None:
        # tau = ln(t + 1) of the run's last snapshot, and of its first with t > 0
        horizon, first = math.log(t_end + 1.0), float(np.log1p(snaps[1]))
        reached = (f"a positive number at most ln(t_end + 1) = {horizon:g} and at least "
                   f"ln(t_min + 1) = {first:g}", lambda val: POSITIVE[1](val)
                   and first <= val * (1.0 + 1e-12) and val <= horizon * (1.0 + 1e-12))
        tau0_list = cert.list_of("tau0_list", reached, [horizon])
        if not tau0_list:
            raise ConfigError("certificate.tau0_list: must name at least one horizon")
        twice = [tau0 for k, tau0 in enumerate(tau0_list) if tau0 in tau0_list[:k]]
        if twice:  # two equal margins rows
            raise ConfigError(f"certificate.tau0_list: horizon {twice[0]:g} is listed twice")
        # the judged member's lifted datum lies above the envelope on each ball
        for tau0 in tau0_list:
            ball = grid.nodes <= cert.build(bounds.subsolution_radius, at="tau0_list",
                                            env=env, p=spec.p, tau0=tau0)
            cfg.build(bounds.check_envelope_floor, at="envelope", env=env,
                      r=grid.nodes[ball], u0=datum[ball])

    def compute(writer: ArtifactWriter) -> dict:
        for observe in obs.values():  # one that overflows fails before any step or shot
            observe(grid, datum)
        if cert is not None:
            # the separated subsolutions y(tau) w_R, built before the time stepping
            state, residual, converged = _steady_state(writer, spec.p, spec.n)
            subs = [cert.build(bounds.build_subsolution, env=env, p=spec.p, steady=state,
                               tau0=tau0) for tau0 in tau0_list]
        ladder = evolution.minimal_solution_ladder(spec, eps_list, R_list, m, t_end, snaps, obs)
        run = ladder.proxy  # the (min eps, max R) member, the one judged
        verdict = {"pass": True, "ladder": ladder.report(), "time_error": run.stats["time_error"]}
        del ladder  # frees the members' passes, which no other verdict reads

        _write_run_series(writer, run)

        if rate is not None:
            sandwich = rates.sandwich_report(run, env, delta, window)
            verdict["sandwich"] = sandwich.to_json()
            # the baseline and the curves read the snapshots the sandwich judged
            t_grid = run.times[in_window]
            # the run stays radially nonincreasing, so its sup is its center value
            baseline = rates.baseline_check(t_grid, run.series["sup_norm"][in_window], spec.p)
            verdict["baseline"] = baseline.to_json()
            writer.write_series_csv("bound_curves.csv", ["t", "lower", "upper"], [
                t_grid, rates.lower_bound_curve(env, spec.p, sandwich.lower.C, t_grid),
                rates.upper_bound_curve(L, spec.p, spec.n, sandwich.upper.C, t_grid)])
            verdict["pass"] = bool(sandwich.passed and baseline.passed)

        if cert is not None:
            # each subsolution stays below the same run, on a steady state that passes
            margins = [{"tau0": ss.tau0, "R_tau0": ss.R_tau0, "delta": ss.delta,
                        **asdict(bounds.subsolution_check(run, ss, state))} for ss in subs]
            passed = converged and all(row["min_margin"] >= 0.0 for row in margins)
            verdict.update({"steady_center": state.center_value,
                            "steady_flux_residual": residual, "margins": margins,
                            "certificate_pass": passed, "pass": verdict["pass"] and passed})
        return verdict
    return compute


_RUNNERS = {
    "steady_state": _run_steady_state,
    "lfunction_audit": _run_lfunction_audit,
    "gn_scan": _run_gn_scan,
    "pde_decay": _run_pde_decay,
}


def _non_finite(doc, path: str):
    """Dotted paths of the NaNs and infinities in doc, keys in sorted order."""
    if isinstance(doc, float) and not math.isfinite(doc):
        yield path
    elif isinstance(doc, (dict, list, tuple)):
        for key, val in sorted(doc.items()) if isinstance(doc, dict) else enumerate(doc):
            yield from _non_finite(val, f"{path}.{key}")


def _read_phase(doc: dict):
    """The compute step and output directory of a config; a key no reader asks for is refused."""
    cfg = _Section(doc, seen={"name", "mode"})  # both read by load_config
    out = cfg.read("output_dir", STRING, f"out/{doc['name']}")
    compute = _RUNNERS[doc["mode"]](cfg)
    unread = list(cfg.unread())
    if unread:
        raise ConfigError(f"{', '.join(unread)}: unknown field, read by no part of the run")
    return compute, out


def run_experiment(config_path: Path, out_dir=None) -> int:
    doc = load_config(config_path)
    compute, out = _read_phase(doc)
    writer = ArtifactWriter(Path(out_dir or out))
    verdict = compute(writer)
    bad = next(_non_finite(verdict, "verdict"), None)
    if bad is not None:
        raise NumericError(f"{bad} is not a finite number")
    writer.finish(doc, verdict)
    return EXIT_PASS if verdict["pass"] else EXIT_VERDICT


# -- reporting ---------------------------------------------------------------

def _plot_script(mode: str, run_dir: Path):
    """gnuplot script referencing only files inside the run directory."""
    if mode == "pde_decay" and (run_dir / "series.csv").exists():
        plot = 'plot "series.csv" using 1:2 with lines title "measured"'
        if (run_dir / "bound_curves.csv").exists():
            plot += (', "bound_curves.csv" using 1:3 with lines title "upper bound"'
                     ', "bound_curves.csv" using 1:2 with lines title "lower bound"')
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
    """Write summary.md and plot.gp for a run directory, judging each artifact
    by its manifest: MISSING when absent, CORRUPT when its sha256 differs,
    and any other file but the manifest and report's own output EXTRA."""
    manifest_path = run_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
        name, mode, verdict = manifest["name"], manifest["mode"], manifest["verdict"]
        artifacts = [(entry["path"], entry["sha256"]) for entry in manifest["artifacts"]]
        for rel, sha in artifacts:
            if not (type(rel) is str and rel not in ("", "..") and Path(rel).name == rel
                    and type(sha) is str):
                raise TypeError(f"artifact {rel!r}: needs a file name in the run "
                                "directory and a sha256 string")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{manifest_path}: missing or malformed manifest "
                          f"({type(exc).__name__}: {exc})") from exc
    lines = [f"# {name}", "", f"mode: {mode}", ""]
    problems = []
    for rel, sha in artifacts:
        try:
            digest = hashlib.sha256((run_dir / rel).read_bytes()).hexdigest()
        except (OSError, ValueError):  # absent, or not a readable file
            digest = None
        status = "MISSING" if digest is None else "ok" if digest == sha else "CORRUPT"
        if status != "ok":
            problems.append(f"- {rel}: {status}")
        lines.append(f"- `{rel}` ({status})")
    listed = {rel for rel, _ in artifacts} | {"manifest.json", "summary.md", "plot.gp"}
    problems += [f"- {path.name}: EXTRA" for path in sorted(run_dir.iterdir())
                 if path.is_file() and path.name not in listed]
    lines += ["", "## verdict", "```json",
              json.dumps(verdict, indent=2, sort_keys=True), "```"]
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
