"""Workload inputs, generated from the committed configs and a seed, and the
correctness gate applied to every config run.

Seed 0 gives exactly the inputs described below.  Any other seed moves the
continuous datum parameters ``c0`` and ``alpha`` to one of the levels
``1 + JITTER_STEP * k`` with ``k`` in -2..2, so by at most 1%.  Levels are
discrete so that the seed code's headline numbers can be recorded for every
input a seed can produce (``reference.json``).

The jitter is small because run-to-run spread is measured over runs with
different seeds, so the work of a pass must hardly depend on the seed: at 5% the
number of solves moves by up to 5% (``two_sided_p1``) and 8% (``ladder_p4``).
The degenerate steady-state ``p`` is not jittered at all: the shot count of
its shooting changes erratically with ``p`` (94 to 144 shots for
p = 2 * (1 +- 0.002)), so no jitter of it keeps the pass time steady.

Workloads and why each was chosen:

* ``two_sided_p1`` - the paper's two-sided rate claim: the sandwich and the
  separated-subsolution certificate, both at m = 1001 (h = 0.04), evolving the
  same trajectory.  Time stepping dominates.
* ``ladder_p4`` - ``configs/ladder.json``: one adaptive lead run and five
  members replaying its dt schedule, then the ordering and Cauchy checks.
* ``static_checks`` - the code that does not step in time: steady-state
  shooting at (p, n) = (1, 2), (2, 1), (4, 1), the gauge-function audit and
  the GN family scan with its sharpness probe.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

JITTER_STEP = 0.005
JITTER_LEVELS = (-2, -1, 0, 1, 2)

# Absolute or relative tolerance of each headline number against the value
# the seed code gives for the same input.
TOLERANCES = {
    "sigma": ("abs", 2e-3),
    "steady_center": ("rel", 1e-6),
    "center_value": ("rel", 1e-6),
    "scan.ratio_max": ("rel", 1e-6),
    "scan.ratio_min": ("rel", 1e-6),
    "probe.ratio_max": ("rel", 1e-6),
    "probe.ratio_min": ("rel", 1e-6),
}
LADDER_MONOTONICITY_TOL = 1e-8

# Machine-independent counts of one seed-0 pass of the seed code.  A change
# that alters the work (step control, shooting) moves them on purpose, so a
# mismatch is reported, not counted as a failed verdict.
SEED_CODE_COUNTS = {
    "two_sided_p1": {"evolution.solves": 2 * 52457, "bounds.shots": 25, "gn.members": 0,
                     "cli.artifacts": 31, "cli.io_bytes": 873655},
    "ladder_p4": {"evolution.solves": 349314, "bounds.shots": 0, "gn.members": 0,
                  "cli.artifacts": 13, "cli.io_bytes": 604183},
    "static_checks": {"evolution.solves": 0, "bounds.shots": 22 + 144 + 81,
                      "gn.members": 10, "cli.artifacts": 15, "cli.io_bytes": 463857},
}


class Jitter:
    """Per-parameter jitter levels, drawn from a seed or given explicitly."""

    def __init__(self, seed: int = 0, levels=None):
        self._rng = random.Random(seed) if seed else None
        self.levels = dict(levels or {})

    def factor(self, name: str) -> float:
        if name not in self.levels:
            self.levels[name] = self._rng.choice(JITTER_LEVELS) if self._rng else 0
        return 1.0 + JITTER_STEP * self.levels[name]

    def key(self, *names) -> str:
        return ",".join(f"{n}={self.levels[n]:+d}" for n in names)


def _load(configs: Path, fname: str) -> dict:
    return json.loads((configs / fname).read_text())


def two_sided_p1(configs: Path, jitter: Jitter):
    c0, alpha = jitter.factor("c0"), jitter.factor("alpha")
    key = jitter.key("c0", "alpha")
    out = []
    for fname in ("pde_decay_sandwich.json", "lower_bound.json"):
        cfg = _load(configs, fname)
        cfg["approx"]["m"] = 1001
        # the envelope equals the datum at seed 0; scaling both alike keeps
        # it a floor of the datum
        for doc in (cfg["problem"]["u0"], cfg["envelope"]):
            doc["c0"] *= c0
            doc["alpha"] *= alpha
        out.append((cfg, key))
    return out


def ladder_p4(configs: Path, jitter: Jitter):
    cfg = _load(configs, "ladder.json")
    u0 = cfg["problem"]["u0"]
    u0["c0"] *= jitter.factor("c0")
    u0["alpha"] *= jitter.factor("alpha")
    return [(cfg, jitter.key("c0", "alpha"))]


def static_checks(configs: Path, jitter: Jitter):
    base = _load(configs, "steady_state.json")
    out = [(base, "")]
    for p in (2.0, 4.0):
        cfg = copy.deepcopy(base)
        cfg["name"] = f"steady_state_p{p:g}_n1"
        cfg["problem"] = {"p": p, "n": 1}
        out.append((cfg, ""))
    out.append((_load(configs, "lfunction_audit.json"), ""))
    cfg = _load(configs, "gn_scan.json")
    cfg["family"]["c0"] *= jitter.factor("gn_c0")
    cfg["family"]["alpha"] *= jitter.factor("gn_alpha")
    out.append((cfg, jitter.key("gn_c0", "gn_alpha")))
    return out


WORKLOADS = {
    "two_sided_p1": two_sided_p1,
    "ladder_p4": ladder_p4,
    "static_checks": static_checks,
}

# The speed probe of each workload (``speed.PROBES``): a frozen copy of the
# kernel that dominates its pass.
SPEED_PROBES = {
    "two_sided_p1": "step_p1",
    "ladder_p4": "step_p4",
    "static_checks": "shot_p2",
}


def headline(verdict: dict) -> dict:
    """The numbers of a verdict that the gate compares with the seed code."""
    if "sandwich" in verdict:
        return {"sigma": verdict["sandwich"]["fit"]["sigma"]}
    if "steady_center" in verdict:
        return {"steady_center": verdict["steady_center"]}
    if "center_value" in verdict:
        return {"center_value": verdict["center_value"]}
    if "scan" in verdict:
        return {f"{part}.{field}": verdict[part][field]
                for part in ("scan", "probe") for field in ("ratio_max", "ratio_min")}
    return {}


def _non_finite(doc, path=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _non_finite(v, f"{path}.{k}")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _non_finite(v, f"{path}[{i}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        yield path


def gate(name: str, key: str, rc: int, verdict, reference: dict) -> list:
    """Reasons a config run fails the correctness gate (empty when it passes)."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    if verdict.get("pass") is not True:
        problems.append("verdict is not pass")
    problems += [f"non-finite {p}" for p in _non_finite(verdict)]
    if "ladder" in verdict:
        lad = verdict["ladder"]
        worst = max(lad["eps_monotonicity_violation"], lad["R_monotonicity_violation"])
        if not worst <= LADDER_MONOTONICITY_TOL:
            problems.append(f"ladder monotonicity violation {worst!r}")
    try:
        values = headline(verdict)
    except (KeyError, TypeError):
        return problems + ["verdict lacks a headline number"]
    if values:
        ref = reference.get(name, {}).get(key)
        if ref is None:
            return problems + [f"no reference for {name} at {key!r}"]
        for field, value in values.items():
            kind, tol = TOLERANCES[field]
            allowed = tol * (abs(ref[field]) if kind == "rel" else 1.0)
            if not abs(value - ref[field]) <= allowed:
                problems.append(f"{field} = {value!r}, seed code {ref[field]!r}")
    return problems
