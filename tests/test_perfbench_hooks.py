"""The benchmark in perfbench/ instruments decaylab by name from outside the
package; every name it wraps must keep resolving, so a refactor that deletes
or moves one fails here rather than in a benchmark run."""

import importlib.util
import inspect
from pathlib import Path

from decaylab import bounds, cli, evolution, gn, rates

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    instruments = load_tracer()._instruments(cli, evolution, bounds, rates, gn)
    assert instruments
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in instruments if not hasattr(owner, attr)]
    assert missing == []


def test_evolve_keeps_dt_schedule_sixth():
    # the tracer names replayed runs by reading dt_schedule from args[5]
    assert list(inspect.signature(evolution.evolve).parameters)[5] == "dt_schedule"
