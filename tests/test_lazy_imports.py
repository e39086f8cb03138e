"""decaylab imports scipy only when a run takes a time step: the static modes
load none of it, and a time-stepping run loads scipy.linalg for LAPACK's
tridiagonal solver.  Each check runs in a fresh interpreter, since this one
has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(script, *args):
    """Run script in a fresh interpreter with src/ on the path; return its last
    line of output, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


STATIC_RUNS = """
import json, sys
from pathlib import Path
import decaylab.cli as cli
from decaylab import bounds

def scipy_loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

report = {"import": scipy_loaded(), "codes": {}}
tmp = Path(sys.argv[1])
bounds.STEADY_M = 201
for name in ("steady_state", "gn_scan", "lfunction_audit"):
    cfg = Path(sys.argv[2]) / f"{name}.json"
    report["codes"][name] = cli.run_experiment(cfg, out_dir=tmp / name)
report["runs"] = scipy_loaded()
print(json.dumps(report))
"""


def test_static_modes_load_no_scipy(tmp_path):
    report = run_fresh(STATIC_RUNS, tmp_path, ROOT / "configs")
    assert report["codes"] == {"steady_state": 0, "gn_scan": 0, "lfunction_audit": 0}
    assert report["import"] == []
    assert report["runs"] == []


PDE_RUN = """
import json, sys
from pathlib import Path
import decaylab.cli as cli

doc = {"name": "tiny", "mode": "pde_decay",
       "problem": {"p": 1.0, "n": 1,
                   "u0": {"kind": "StretchedExp", "c0": 1.0, "alpha": 1.0, "beta": 2.0}},
       "approx": {"ladder": {"eps_list": [1e-3], "R_list": [10.0]}, "m": 51},
       "t_end": 1.0, "snapshots": {"t_min": 0.5, "count": 3}}
cfg = Path(sys.argv[1]) / "tiny.json"
cfg.write_text(json.dumps(doc))
code = cli.run_experiment(cfg, out_dir=Path(sys.argv[1]) / "run")
print(json.dumps({"code": code, "linalg": "scipy.linalg" in sys.modules,
                  "integrate": "scipy.integrate" in sys.modules}))
"""


def test_time_stepping_run_loads_only_scipy_linalg(tmp_path):
    assert run_fresh(PDE_RUN, tmp_path) == {"code": 0, "linalg": True, "integrate": False}


TRACED_EVOLVE = """
import importlib.util, json, sys
import numpy as np
from decaylab import bounds, cli, evolution, gn, rates

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)

report = {"linalg_before": "scipy.linalg" in sys.modules}
tracer = tracer_module.Tracer()
with tracer.installed(cli, evolution, bounds, rates, gn):
    wrapped = evolution.dgtsv
    run = evolution.evolve(evolution.ProblemSpec(2.0, 1, lambda r: np.exp(-r ** 2)),
                           evolution.ApproxParams(R=5.0, eps=1e-3, m=41), 0.5, [0.25])
    report["kept"] = evolution.dgtsv is wrapped
    report["counted"] = sum(calls for (_, name), (calls, _, _) in tracer.leaves.items()
                            if name == "evolution.dgtsv")
    report["solves"] = run.stats["solves"]
from scipy.linalg.lapack import dgtsv
report["restored"] = evolution.dgtsv is dgtsv
print(json.dumps(report))
"""


def test_tracer_wraps_dgtsv_before_the_first_stepper():
    # the tracer reads evolution.dgtsv and installs its wrapper before any
    # _Stepper exists; the first stepper must keep that wrapper, which then
    # counts every solve, and removing it leaves LAPACK's routine there
    report = run_fresh(TRACED_EVOLVE, ROOT / "perfbench" / "tracer.py")
    assert report["linalg_before"] is False
    assert report["kept"] is True
    assert report["solves"] > 0
    assert report["counted"] == report["solves"]
    assert report["restored"] is True
