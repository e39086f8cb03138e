"""Span tracer that instruments decaylab from outside the package.

Every instrumented name is replaced, for the duration of ``Tracer.installed()``,
by a wrapper in the namespace where its caller looks it up at call time
(``decaylab.evolution.dgtsv`` for the solver, ``decaylab.cli.check_convexity_condition``
for the steepness audit, ...).  Nothing under ``src/`` changes.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and pass id;
* a *leaf* is for calls made hundreds of thousands of times per pass (the
  tridiagonal solve, one steady-state shot).  Leaves are aggregated per parent
  span into (calls, busy seconds, units), so the trace stays small and the
  wrapper stays cheap.

A span's self time is its duration minus the time covered by its child spans
and its leaves; a leaf's self time is its busy time.  The layer of a name is
its first dotted component, which is the decaylab module that defines the
function.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "evolution", "bounds", "rates", "gn", "radial", "steepness")

# Tridiagonal solve on m unknowns: about 8 m flops, and 5 arrays of m doubles
# (three diagonals, right-hand side, solution) move through memory.
SOLVE_FLOPS_PER_NODE = 8
SOLVE_BYTES_PER_NODE = 5 * 8
# Counts that do not depend on the machine; a fixed seed must repeat them exactly.
COUNT_METRICS = ("evolution.solves", "bounds.shots", "gn.members", "cli.artifacts",
                 "cli.io_bytes")


def _evolve_name(args, kwargs):
    schedule = kwargs.get("dt_schedule", args[5] if len(args) > 5 else None)
    return "evolution.evolve.replay" if schedule is not None else "evolution.evolve.adaptive"


def _manifest_bytes(args, kwargs, result):
    return (args[0].out_dir / "manifest.json").stat().st_size


def _instruments(cli, evolution, bounds, rates, gn):
    """(owner, attribute, kind, span name, units) for every wrapped name."""
    writer = cli.ArtifactWriter
    return [
        (cli, "run_experiment", "span", "cli.run_experiment", None),
        (cli, "load_config", "span", "cli.load_config", None),
        (writer, "__init__", "span", "cli.io.open", None),
        (writer, "write_text", "span", "cli.io.write_text", None),
        (writer, "write_json", "span", "cli.io.write_json", None),
        (writer, "write_series_csv", "span", "cli.io.write_series_csv", None),
        (writer, "_register", "span", "cli.io.register",
         lambda args, kwargs, result: len(args[2])),
        (writer, "finish", "span", "cli.io.finish", _manifest_bytes),
        (cli, "check_near_multiplicativity", "span",
         "steepness.check_near_multiplicativity", None),
        (cli, "check_ratio_bound", "span", "steepness.check_ratio_bound", None),
        (cli, "check_convexity_condition", "span", "steepness.check_convexity_condition", None),
        (evolution, "evolve", "span", _evolve_name, None),
        (evolution, "minimal_solution_ladder", "span", "evolution.ladder", None),
        (evolution, "dgtsv", "leaf", "evolution.dgtsv",
         lambda args, kwargs, result: len(args[1])),
        (evolution, "observer_lq", "factory", "evolution.observer", None),
        (evolution, "observer_lyapunov", "factory", "evolution.observer", None),
        (evolution, "lq_quasinorm", "span", "radial.lq_quasinorm", None),
        (bounds, "solve_steady_state", "span", "bounds.solve_steady_state", None),
        (bounds, "_integrate_shot", "leaf", "bounds.shot", None),
        (bounds, "steady_state_residual", "span", "bounds.steady_state_residual", None),
        (bounds, "build_subsolution", "span", "bounds.build_subsolution", None),
        (bounds, "subsolution_check", "span", "bounds.subsolution_check", None),
        (rates, "lower_bound_curve", "span", "bounds.lower_bound_curve", None),
        (rates, "sandwich_report", "span", "rates.sandwich_report", None),
        (rates, "baseline_check", "span", "rates.baseline_check", None),
        (gn, "family_scan", "span", "gn.family_scan",
         lambda args, kwargs, result: len(result.rows)),
        (gn, "lq_quasinorm", "span", "radial.lq_quasinorm", None),
        (gn, "grad_l2_norm", "span", "radial.grad_l2_norm", None),
        (gn, "steepness_integral", "span", "radial.steepness_integral", None),
    ]


class Tracer:
    """Keeps spans and leaf aggregates in memory until the run ends."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent, pass_id, units]
        self.leaves = {}   # (parent, name) -> [calls, busy_s, units]
        self.pass_id = 0
        self._stack = []

    def span(self, name, fn, units=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else -1
            rec = [label, 0.0, 0.0, parent, self.pass_id, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if units is not None:
                rec[5] = units(args, kwargs, result)
            return result
        return wrapper

    def leaf(self, name, fn, units=None):
        leaves, stack = self.leaves, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            busy = perf_counter() - t0
            key = (stack[-1] if stack else -1, name)
            agg = leaves.get(key)
            if agg is None:
                agg = leaves[key] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += busy
            if units is not None:
                agg[2] += units(args, kwargs, result)
            return result
        return wrapper

    def factory(self, name, fn):
        """Wrap a function that returns a callable: trace the callable."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn(*args, **kwargs))
        return wrapper

    @contextmanager
    def installed(self, cli, evolution, bounds, rates, gn):
        saved = []
        try:
            for owner, attr, kind, name, units in _instruments(cli, evolution, bounds,
                                                                 rates, gn):
                orig = getattr(owner, attr)
                if kind == "factory":
                    wrapped = self.factory(name, orig)
                else:
                    wrapped = getattr(self, kind)(name, orig, units)
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def pass_totals(self, pass_id: int) -> dict:
        """name -> {calls, total_s, self_s, units} over one pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, pid, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (parent, _), (_, busy, _) in self.leaves.items():
            if parent >= 0:
                child[parent] += busy
        totals: dict = {}

        def add(name, calls, total, self_time, units):
            t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "units": 0})
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += self_time
            t["units"] += units

        for i, (name, start, end, _, pid, units) in enumerate(self.spans):
            if pid == pass_id:
                add(name, 1, end - start, end - start - child[i], units)
        for (parent, name), (calls, busy, units) in self.leaves.items():
            if parent >= 0 and self.spans[parent][4] == pass_id:
                add(name, calls, busy, busy, units)
        return totals

    def to_json(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "pass": pid,
                       "units": u} for n, s, e, p, pid, u in self.spans],
            "leaves": [{"name": n, "parent": p, "pass": self.spans[p][4] if p >= 0 else None,
                        "calls": c, "busy_s": b, "units": u}
                       for (p, n), (c, b, u) in self.leaves.items()],
        }


def layer_metrics(totals: dict, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass, from ``Tracer.pass_totals``."""
    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def prefixed(prefix, field):
        return sum(t[field] for n, t in totals.items() if n.startswith(prefix))

    solves = get("evolution.dgtsv", "calls")
    solve_s = get("evolution.dgtsv", "total_s")
    nodes = get("evolution.dgtsv", "units")
    out = {
        "evolution.solves": solves,
        "evolution.solve_s": solve_s,
        "evolution.us_per_solve": 1e6 * solve_s / solves if solves else 0.0,
        "evolution.step_overhead_s": prefixed("evolution.evolve.", "self_s"),
        "evolution.adaptive_s": get("evolution.evolve.adaptive", "total_s"),
        "evolution.replay_s": get("evolution.evolve.replay", "total_s"),
        "evolution.observer_s": get("evolution.observer", "total_s"),
        "evolution.ladder_s": get("evolution.ladder", "self_s"),
        "evolution.solve_flops": SOLVE_FLOPS_PER_NODE * nodes,
        "evolution.solve_bytes": SOLVE_BYTES_PER_NODE * nodes,
        "bounds.steady_state_s": get("bounds.solve_steady_state", "total_s"),
        "bounds.shots": get("bounds.shot", "calls"),
        "bounds.subsolution_check_s": get("bounds.subsolution_check", "total_s"),
        "bounds.subsolution_checks": get("bounds.subsolution_check", "calls"),
        "rates.sandwich_s": get("rates.sandwich_report", "total_s"),
        "rates.baseline_s": get("rates.baseline_check", "total_s"),
        "gn.family_scan_s": get("gn.family_scan", "total_s"),
        "gn.members": get("gn.family_scan", "units"),
        "radial.norm_s": prefixed("radial.", "total_s"),
        "radial.norm_calls": prefixed("radial.", "calls"),
        "steepness.check_s": prefixed("steepness.", "total_s"),
        "cli.load_config_s": get("cli.load_config", "total_s"),
        "cli.io_s": prefixed("cli.io.", "self_s"),
        "cli.io_bytes": prefixed("cli.io.", "units"),
        "cli.artifacts": get("cli.io.register", "calls") + get("cli.io.finish", "calls"),
    }
    covered = 0.0
    for layer in LAYERS:
        self_s = prefixed(layer + ".", "self_s")
        out[f"{layer}.self_s"] = self_s
        covered += self_s
    out["trace.coverage"] = covered / pass_s
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_solve"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_flops"):
        return "flops"
    if name == "trace.coverage":
        return "fraction"
    return "count"
