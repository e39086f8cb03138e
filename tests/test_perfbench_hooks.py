"""The benchmark in perfbench/ instruments decaylab by name from outside the
package and builds its inputs from the shipped configs; every name it wraps
must keep resolving, every config it builds must keep passing the read phase,
and the seed-0 configs of two workloads must keep passing its correctness
gate, so a refactor that breaks any of these fails here rather than in a
benchmark run."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from decaylab import bounds, cli, evolution, gn, rates

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_resolve(perfbench_tracer):
    instruments = perfbench_tracer._instruments(cli, evolution, bounds, rates, gn)
    assert instruments
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in instruments if not hasattr(owner, attr)]
    assert missing == []


def test_benchmark_configs_pass_the_read_phase(perfbench_workloads, tmp_path):
    # the configs every workload builds at seed 0 pass the read phase, and no
    # compute step runs: a config-schema change that breaks the benchmark's
    # overrides fails here rather than in a benchmark run
    configs = ROOT / "configs"
    built = {name: make(configs, perfbench_workloads.Jitter(0))
             for name, make in perfbench_workloads.WORKLOADS.items()}
    assert set(built) == {"two_sided_p1", "ladder_p4", "static_checks"}
    for name, runs in built.items():
        for cfg, _ in runs:
            path = tmp_path / f"{cfg['name']}.json"
            path.write_text(json.dumps(cfg))
            compute, _ = cli._read_phase(cli.load_config(path))
            assert callable(compute), (name, cfg["name"])


@pytest.mark.parametrize("workload", ["two_sided_p1", "static_checks"])
def test_seed_configs_pass_the_benchmark_gate(perfbench_workloads, tmp_path, workload):
    # the seed-0 configs of a workload, run as the benchmark runs them, pass
    # its correctness gate against reference.json: a change that moves a
    # gated number (a GN ratio, sigma, a steady-state center) fails here
    # rather than in a benchmark run
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    wl = perfbench_workloads
    for cfg, key in wl.WORKLOADS[workload](ROOT / "configs", wl.Jitter(0)):
        path, out = tmp_path / f"{cfg['name']}.json", tmp_path / cfg["name"]
        path.write_text(json.dumps(cfg))
        rc = cli.run_experiment(path, out_dir=out)
        verdict = json.loads((out / "manifest.json").read_text())["verdict"] if rc == 0 else None
        assert wl.gate(cfg["name"], key, rc, verdict, reference) == [], cfg["name"]


def test_tracer_spans_the_audit_checks(perfbench_tracer, perfbench_workloads, tmp_path):
    # the tracer wraps the three gauge checks where the audit calls them, in
    # cli; a refactor that calls them from elsewhere would leave
    # steepness.check_s at 0 without a word, so the seed-0 audit config must
    # open one span of each
    wl = perfbench_workloads
    cfg = next(cfg for cfg, _ in wl.WORKLOADS["static_checks"](ROOT / "configs", wl.Jitter(0))
               if cfg["mode"] == "lfunction_audit")
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(cfg))
    tracer = perfbench_tracer.Tracer()
    with tracer.installed(cli, evolution, bounds, rates, gn):
        assert cli.run_experiment(path, out_dir=tmp_path / "run") == 0
    names = [span[0] for span in tracer.spans if span[0].startswith("steepness.")]
    assert sorted(names) == ["steepness.check_convexity_condition",
                             "steepness.check_near_multiplicativity",
                             "steepness.check_ratio_bound"]


def test_tracer_spans_the_radial_norms(perfbench_tracer, perfbench_workloads, tmp_path):
    # the tracer wraps the three norms where gn and the L^q observer look them
    # up; a refactor that moves a norm off those names would leave
    # radial.norm_s at 0 without a word.  The seed-0 GN scan opens one span of
    # each per member of the scan and of the probe, and each snapshot's
    # observer span holds one L^q span
    wl = perfbench_workloads
    cfg = next(cfg for cfg, _ in wl.WORKLOADS["static_checks"](ROOT / "configs", wl.Jitter(0))
               if cfg["mode"] == "gn_scan")
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(cfg))
    tracer = perfbench_tracer.Tracer()
    with tracer.installed(cli, evolution, bounds, rates, gn):
        assert cli.run_experiment(path, out_dir=tmp_path / "run") == 0
    names = [span[0] for span in tracer.spans if span[0].startswith("radial.")]
    assert {name: names.count(name) for name in set(names)} == {
        "radial.lq_quasinorm": 10, "radial.grad_l2_norm": 10, "radial.steepness_integral": 10}

    tracer = perfbench_tracer.Tracer()
    spec = evolution.ProblemSpec(p=2.0, n=2, u0=lambda r: np.exp(-r**2))
    with tracer.installed(cli, evolution, bounds, rates, gn):
        run = evolution.evolve(spec, evolution.ApproxParams(R=5.0, eps=1e-3, m=51), 1.0,
                               [0.0, 0.5, 1.0], {"lq_1": evolution.observer_lq(1.0)})
    observers = [k for k, span in enumerate(tracer.spans) if span[0] == "evolution.observer"]
    assert len(observers) == len(run.times) == 3
    children = [(span[0], span[3]) for span in tracer.spans if span[3] in observers]
    assert children == [("radial.lq_quasinorm", k) for k in observers]


def test_evolve_keeps_dt_schedule_sixth():
    # the tracer names replayed runs by reading dt_schedule from args[5]
    assert list(inspect.signature(evolution.evolve).parameters)[5] == "dt_schedule"


def test_tracer_counts_every_shot(monkeypatch, perfbench_tracer):
    # solve_steady_state must look _integrate_shot up in the module on every
    # shot: a local alias would hide shots from the bounds.shots counter.  The
    # tracer counts a shot when it returns, so no root-finding shot may raise:
    # at p = 200 the shot from the bracket's lower end overflows w^(1-p)
    real = bounds._integrate_shot
    for (p, n, m), shots in {(1.0, 2, 4001): 5, (200.0, 1, 1001): 27}.items():
        tracer = perfbench_tracer.Tracer()
        traced = tracer.leaf("bounds.shot", real)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return traced(*args, **kwargs)

        monkeypatch.setattr(bounds, "_integrate_shot", counted)
        bounds.solve_steady_state(p, n, m)
        assert len(calls) == shots, p
        assert sum(count for count, _, _ in tracer.leaves.values()) == shots, p


# root-finding shots at m = 4001 that the whole bracket search takes: a
# death in the last step reads as its stage value w + h*v3, which is linear
# in w(0), so the secant lands on the touchdown of p > 1; a death before the
# last step proposes the center the rescaling law gives, and once a survivor
# follows a death the line through the last two last-step deaths is shot
SHOTS_PINNED = {(1.0, 1): 6, (1.0, 2): 4, (2.0, 1): 14, (4.0, 1): 18}
# the counts of the secant search without rescaling proposals, at m = 4001
# and m = 1001 (471 and 443 over the grid): no (p, n) may take more
SHOTS_SECANT = {
    4001: {(1.0, 1): 6, (1.0, 2): 4, (1.0, 3): 5, (1.25, 1): 15, (1.25, 2): 19,
           (1.25, 3): 21, (1.5, 1): 17, (1.5, 2): 19, (1.5, 3): 22, (2.0, 1): 22,
           (2.0, 2): 20, (2.0, 3): 32, (3.0, 1): 28, (3.0, 2): 25, (3.0, 3): 30,
           (4.0, 1): 32, (4.0, 2): 31, (4.0, 3): 31, (6.0, 1): 24, (6.0, 2): 31,
           (6.0, 3): 37},
    1001: {(1.0, 1): 5, (1.0, 2): 4, (1.0, 3): 4, (1.25, 1): 15, (1.25, 2): 19,
           (1.25, 3): 23, (1.5, 1): 16, (1.5, 2): 21, (1.5, 3): 22, (2.0, 1): 20,
           (2.0, 2): 17, (2.0, 3): 21, (3.0, 1): 23, (3.0, 2): 27, (3.0, 3): 27,
           (4.0, 1): 24, (4.0, 2): 32, (4.0, 3): 25, (6.0, 1): 28, (6.0, 2): 34,
           (6.0, 3): 36},
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_tracer_counts_shots_to_the_root(traced_steady_state, p, n):
    shots, _ = traced_steady_state(p, n)
    if (p, n) in SHOTS_PINNED:
        assert shots == SHOTS_PINNED[p, n]
    for m, ceilings in SHOTS_SECANT.items():
        assert traced_steady_state(p, n, m)[0] <= ceilings[p, n], m


def test_shots_to_the_root_over_the_grid(traced_steady_state):
    # 947 when a last-step death read -h, 471 and 443 without the proposals
    for m, total in ((4001, 354), (1001, 336)):
        assert sum(traced_steady_state(p, n, m)[0] for p, n in SHOTS_SECANT[m]) <= total, m


# root-finding shots off the grid, at p between and beyond its points, as the
# rescaling-law proposals take them (261 at m = 4001 and 242 at m = 1001): no
# (p, n) may take more
SHOTS_OFF_GRID = {
    4001: {(1.75, 1): 27, (1.75, 2): 12, (1.75, 3): 17, (2.5, 1): 26, (2.5, 2): 15,
           (2.5, 3): 19, (5.0, 1): 21, (5.0, 2): 21, (5.0, 3): 25, (8.0, 1): 29,
           (8.0, 2): 30, (8.0, 3): 19},
    1001: {(1.75, 1): 17, (1.75, 2): 19, (1.75, 3): 15, (2.5, 1): 17, (2.5, 2): 17,
           (2.5, 3): 20, (5.0, 1): 21, (5.0, 2): 20, (5.0, 3): 20, (8.0, 1): 27,
           (8.0, 2): 19, (8.0, 3): 30},
}


@pytest.mark.parametrize("m", [4001, 1001])
def test_shots_to_the_root_off_the_grid(traced_steady_state, m):
    counts = {(p, n): traced_steady_state(p, n, m)[0] for p, n in SHOTS_OFF_GRID[m]}
    assert {key: count for key, count in counts.items()
            if count > SHOTS_OFF_GRID[m][key]} == {}
    assert sum(counts.values()) <= {4001: 261, 1001: 242}[m]


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
