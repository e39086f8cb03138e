import functools
import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from decaylab import bounds, evolution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("decaylab", derandomize=True, deadline=None, database=None)
settings.load_profile("decaylab")


@pytest.fixture(scope="session")
def rng():
    """Property-test generator seed; solvers never consume randomness."""
    seed = int(os.environ.get("RNG_SEED", "20240817"))
    return np.random.default_rng(seed)


def _perfbench_module(name):
    """A module of perfbench, loaded from its file: the benchmark configures
    and instruments decaylab from outside the package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def perfbench_tracer():
    return _perfbench_module("tracer")


@pytest.fixture(scope="session")
def perfbench_workloads():
    return _perfbench_module("workloads")


@pytest.fixture(scope="session")
def traced_steady_state(perfbench_tracer):
    """``solve(p, n, m=4001)`` -> (shots, state) of solve_steady_state(p, n, m),
    solved once a session: the root-finding shots the tracer counts (the one
    that records the profile is left out) and the steady state."""

    @functools.cache
    def solve(p, n, m=4001):
        tracer = perfbench_tracer.Tracer()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_integrate_shot", tracer.leaf(
                "bounds.shot", bounds._integrate_shot,
                lambda args, kwargs, result: args[3] == m and not kwargs.get("record")))
            state = bounds.solve_steady_state(p, n, m)
        return sum(units for _, _, units in tracer.leaves.values()), state
    return solve


@pytest.fixture
def lift_full_pass(monkeypatch):
    """``lift(x)`` raises the full pass's boundary node by x * eps at every
    snapshot, so that 2 * half - full lies x * eps below eps there."""
    real_march = evolution._march

    def lift(x):
        def march(stepper, u, snaps, schedule=None, halves=1):
            values, dts, retries = real_march(stepper, u, snaps, schedule, halves)
            if halves == 1:
                values[:, -1] += x * stepper.eps
            return values, dts, retries

        monkeypatch.setattr(evolution, "_march", march)
    return lift


@pytest.fixture(scope="session")
def assert_one_record():
    """``check(out_dir)``: the run in out_dir records each number once.  No two
    artifacts have the same sha256, and no JSON artifact parses equal to the
    verdict, which the manifest holds, to the verdict without its ``pass``, or
    to one of its top-level values, nor to an object whose every top-level key
    the verdict holds with an equal value."""

    def check(out_dir):
        manifest = json.loads((out_dir / "manifest.json").read_text())
        verdict = manifest["verdict"]
        copies = [verdict, {key: val for key, val in verdict.items() if key != "pass"},
                  *verdict.values()]
        digests = {}
        for entry in manifest["artifacts"]:
            data = (out_dir / entry["path"]).read_bytes()
            twin = digests.setdefault(hashlib.sha256(data).hexdigest(), entry["path"])
            assert twin == entry["path"], (twin, entry["path"])
            if entry["path"].endswith(".json"):
                doc = json.loads(data)
                part = isinstance(doc, dict) and all(
                    key in verdict and verdict[key] == val for key, val in doc.items())
                assert doc not in copies and not part, entry["path"]
    return check
