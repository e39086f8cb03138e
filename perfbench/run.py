"""decaylab benchmark: time to verdict, with per-module layers when traced.

    python3 perfbench/run.py --workload two_sided_p1 --seed 0 --seconds 30 --trace 0

One process drives ``decaylab.cli.run_experiment`` as a closed loop with one
client: a pass runs every config of the workload in turn, and the next pass
starts when the previous one ends.  Passes repeat until ``--seconds`` would be
exceeded (at least one pass).  Configs are generated from ``configs/`` and
the seed (see ``workloads.py``); run directories live in a temporary
directory under ``.perfbench/`` and are removed at exit.

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation: ``time_to_verdicts_s`` (median pass), ``setup_s`` (median
time for a fresh interpreter to import decaylab and load the configs) and
``peak_rss_mb``.  Both times are wall seconds rescaled to a reference CPU
speed that the benchmark samples while it times them (see ``speed.py``); the
raw wall times are in the details line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracer.py``) together with the
tracing overhead; the spans are written to
``.perfbench/trace_<workload>_seed<seed>.json``.

Every config run goes through the correctness gate of ``workloads.gate``.
The last line of standard output is the result object; the line before it
holds the details: machine, pass count and quartiles, counts, failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import speed
from tracer import COUNT_METRICS, Tracer, layer_metrics, layer_unit
from workloads import SEED_CODE_COUNTS, SPEED_PROBES, WORKLOADS, Jitter, gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
# One BLAS thread keeps the benchmark at one thread, and with one set-up
# probe at a time at two processes: no more than the 2 cores it was tuned on.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def _machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scipy_lapack": f"{lapack.get('name')} {lapack.get('version')}",
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "process_threads": threads,
    }


class Workload:
    """The config runs of one workload and the gate state across passes."""

    def __init__(self, name: str, seed: int, work: Path, reference: dict):
        self.jitter = Jitter(seed)
        self.reference = reference
        self.runs = []
        for cfg, key in WORKLOADS[name](CONFIGS, self.jitter):
            path = work / "configs" / f"{cfg['name']}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            self.runs.append({"name": cfg["name"], "key": key, "config": path,
                              "out": work / "runs" / cfg["name"], "sha256": None})
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_pass(self, cli, errors, meter=None):
        """Run every config once.  Return wall seconds from the first
        run_experiment call to the last manifest written and, given a
        ``speed.Speedometer``, the same time scaled to its reference speed
        (otherwise None)."""
        for run in self.runs:
            (run["out"] / "manifest.json").unlink(missing_ok=True)

        def body():
            codes = []
            for run in self.runs:
                try:
                    codes.append(cli.run_experiment(run["config"], out_dir=run["out"]))
                except errors.InputError:
                    codes.append(cli.EXIT_CONFIG)
                except errors.DecayLabError:
                    codes.append(cli.EXIT_NUMERIC)
                except Exception:  # the benchmark records the failure and goes on
                    traceback.print_exc()
                    codes.append(1)
            return codes

        if meter is None:
            t0 = time.perf_counter()
            codes = body()
            wall, scaled = time.perf_counter() - t0, None
        else:
            codes, wall, scaled, _ = meter.measure(body)
        for run, rc in zip(self.runs, codes):
            self._check(run, rc)
        return wall, scaled

    def _check(self, run, rc):
        verdict = None
        if rc == 0:
            data = (run["out"] / "manifest.json").read_bytes()
            verdict = json.loads(data)["verdict"]
            sha = hashlib.sha256(data).hexdigest()
        problems = gate(run["name"], run["key"], rc, verdict, self.reference)
        if rc == 0:
            if run["sha256"] is None:
                run["sha256"] = sha
            elif sha != run["sha256"]:
                problems.append("manifest sha256 differs from the first pass")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append({"config": run["name"], "problems": problems})


def _probe_setup(configs):
    """One set-up probe: wall seconds of the whole fresh interpreter, and the
    seconds of its import and config load scaled to the reference speed (see
    ``setup_probe.py``)."""
    command = [sys.executable, str(HERE / "setup_probe.py"), *map(str, configs)]
    t0 = time.perf_counter()
    out = subprocess.run(command, check=True, timeout=120, capture_output=True,
                         text=True).stdout
    wall = time.perf_counter() - t0
    return wall, json.loads(out.splitlines()[-1])["scaled_s"]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _timed(wl, probe, cli, errors, seconds):
    """End-to-end metrics: untraced passes and fresh-interpreter set-up
    probes, both scaled to the reference speed of ``speed.py`` (the raw wall
    times go to the details line)."""
    setup = [_probe_setup([run["config"] for run in wl.runs]) for _ in range(SETUP_PROBES)]
    meter = speed.Speedometer(probe)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(cli, errors, meter))
        rounds = time.perf_counter() - start
        if rounds + rounds / len(passes) > seconds:
            break
    scaled_passes = [p[1] for p in passes]
    scaled_setup = [s[1] for s in setup]
    metrics = {
        "time_to_verdicts_s": (statistics.median(scaled_passes), "s"),
        "setup_s": (statistics.median(scaled_setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"speed_probe": probe, "passes_s": _summary(scaled_passes),
                     "passes_wall_s": _summary([p[0] for p in passes]),
                     "setup_s": _summary(scaled_setup),
                     "setup_wall_s": _summary([s[0] for s in setup])}


def _traced(wl, cli, errors, seconds, modules):
    """Per-layer metrics: alternate untraced and traced passes."""
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_pass(cli, errors)[0])
        tracer.pass_id += 1
        with tracer.installed(*modules):
            traced.append(wl.run_pass(cli, errors)[0])
        layers.append(layer_metrics(tracer.pass_totals(tracer.pass_id), traced[-1]))
        if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
            break
    metrics = {name: (statistics.median(m[name] for m in layers), layer_unit(name))
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced),
                                   "s")
    counts = [{name: m[name] for name in COUNT_METRICS} for m in layers]
    detail = {"untraced_passes_s": _summary(untraced), "traced_passes_s": _summary(traced),
              "counts": counts[0], "counts_repeat": all(c == counts[0] for c in counts)}
    if not detail["counts_repeat"]:
        wl.failures.append({"problems": ["counts differ between traced passes"],
                            "counts": counts})
    return metrics, detail, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "decaylab" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no decaylab sources and configs under {ROOT}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from decaylab import bounds, cli, errors, evolution, gn, rates

    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        wl = Workload(args.workload, args.seed, work, json.loads(REFERENCE.read_text()))
        detail = {"workload": args.workload, "seed": args.seed,
                  "jitter_levels": wl.jitter.levels, "trace": args.trace,
                  "machine": _machine()}
        correct = True
        if args.trace == 0:
            metrics, more = _timed(wl, SPEED_PROBES[args.workload], cli, errors,
                                   args.seconds)
            detail.update(more)
        else:
            metrics, more, tracer = _traced(wl, cli, errors, args.seconds,
                                            (cli, evolution, bounds, rates, gn))
            detail.update(more)
            correct = more["counts_repeat"]
            if args.seed == 0:
                expected = SEED_CODE_COUNTS[args.workload]
                detail["counts_match_seed_code"] = more["counts"] == expected
                if more["counts"] != expected:
                    print(f"note: seed-0 counts {more['counts']} differ from the seed "
                          f"code's {expected}", file=sys.stderr)
            trace_path = STATE / f"trace_{args.workload}_seed{args.seed}.json"
            trace_path.write_text(json.dumps({**detail, **tracer.to_json()}) + "\n")
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail.update(verdicts=wl.attempted, verdicts_failed=wl.failed,
                      failures=wl.failures[:20])
        print(json.dumps(detail))
        print(json.dumps({
            "correct": correct and wl.failed == 0,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
