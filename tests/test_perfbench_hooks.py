"""The benchmark in perfbench/ instruments decaylab by name from outside the
package; every name it wraps must keep resolving, so a refactor that deletes
or moves one fails here rather than in a benchmark run."""

import inspect

import numpy as np
import pytest

from decaylab import bounds, cli, evolution, gn, rates


def test_traced_names_resolve(perfbench_tracer):
    instruments = perfbench_tracer._instruments(cli, evolution, bounds, rates, gn)
    assert instruments
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in instruments if not hasattr(owner, attr)]
    assert missing == []


def test_evolve_keeps_dt_schedule_sixth():
    # the tracer names replayed runs by reading dt_schedule from args[5]
    assert list(inspect.signature(evolution.evolve).parameters)[5] == "dt_schedule"


def test_tracer_counts_every_shot(monkeypatch, perfbench_tracer):
    # solve_steady_state must look _integrate_shot up in the module on every
    # shot: a local alias would hide shots from the bounds.shots counter
    tracer = perfbench_tracer.Tracer()
    monkeypatch.setattr(bounds, "_integrate_shot",
                        tracer.leaf("bounds.shot", bounds._integrate_shot))
    bounds.solve_steady_state(1.0, 2, 4001)
    assert sum(calls for calls, _, _ in tracer.leaves.values()) == 5


# root-finding shots at m = 4001 that the whole bracket search takes: a
# death in the last step reads as its stage value w + h*v3, which is linear
# in w(0), so the secant lands on the touchdown of p > 1 and a 16-ulp
# minimum step crosses it; the secant still bisects once it stalls
SHOTS_PINNED = {(1.0, 1): 6, (1.0, 2): 4, (4.0, 1): 32}
# the counts when a last-step death read -h: no (p, n) may take more
SHOTS_BEFORE = {
    (1.0, 1): 7, (1.0, 2): 4, (1.0, 3): 10, (1.25, 1): 50, (1.25, 2): 57, (1.25, 3): 57,
    (1.5, 1): 53, (1.5, 2): 50, (1.5, 3): 56, (2.0, 1): 57, (2.0, 2): 50, (2.0, 3): 53,
    (3.0, 1): 52, (3.0, 2): 51, (3.0, 3): 54, (4.0, 1): 63, (4.0, 2): 62, (4.0, 3): 57,
    (6.0, 1): 29, (6.0, 2): 36, (6.0, 3): 39,
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_tracer_counts_shots_to_the_root(traced_steady_state, p, n):
    shots, _ = traced_steady_state(p, n)
    if (p, n) in SHOTS_PINNED:
        assert shots == SHOTS_PINNED[p, n]
    assert shots <= SHOTS_BEFORE[p, n]


def test_shots_to_the_root_over_the_grid(traced_steady_state):
    # 947 when a last-step death read -h
    assert sum(traced_steady_state(p, n)[0] for p, n in SHOTS_BEFORE) <= 500


def test_integrate_shot_keeps_its_parameters():
    assert list(inspect.signature(bounds._integrate_shot).parameters) == [
        "a", "p", "n", "m", "record"]


def test_tracer_counts_every_solve(monkeypatch, perfbench_tracer):
    # the step must look dgtsv up in the module on every solve, and pass the
    # main diagonal second: the tracer counts solves and reads len(args[1])
    # as the nodes of one
    tracer = perfbench_tracer.Tracer()
    monkeypatch.setattr(evolution, "dgtsv",
                        tracer.leaf("evolution.dgtsv", evolution.dgtsv,
                                    lambda args, kwargs, result: len(args[1])))
    spec = evolution.ProblemSpec(p=2.0, n=2, u0=lambda r: np.exp(-r**2))

    def traced():
        calls = sum(calls for calls, _, _ in tracer.leaves.values())
        units = sum(units for _, _, units in tracer.leaves.values())
        tracer.leaves.clear()
        return calls, units

    run = evolution.evolve(spec, evolution.ApproxParams(R=5.0, eps=1e-3, m=51), 1.0,
                           [0.0, 1.0])
    assert traced() == (run.stats["solves"], 51 * run.stats["solves"])
    ladder = evolution.minimal_solution_ladder(spec, [1e-2, 1e-3], [5.0], 51, 1.0,
                                               [0.0, 1.0])
    assert len(ladder.members) == 2
    assert traced() == (ladder.solves, 51 * ladder.solves)
