"""Record the headline numbers of the code under src/ for every input a seed
can produce, into perfbench/reference.json.

    python3 perfbench/record_reference.py

The committed file holds the seed code's numbers; the correctness gate
compares every later run against them.  Rerun only to re-baseline on purpose.
"""

import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREAD_VARS, CONFIGS, REFERENCE, SRC, STATE
from workloads import JITTER_LEVELS, WORKLOADS, Jitter, headline


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from decaylab import cli

    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=STATE))
    reference: dict = {}
    try:
        for make in WORKLOADS.values():
            probe = Jitter()
            make(CONFIGS, probe)
            names = sorted(probe.levels)
            for combo in itertools.product(JITTER_LEVELS, repeat=len(names)):
                for cfg, key in make(CONFIGS, Jitter(levels=dict(zip(names, combo)))):
                    entries = reference.setdefault(cfg["name"], {})
                    # the audit and the ladder verdicts have no headline numbers
                    if key in entries or cfg["mode"] == "lfunction_audit" \
                            or "ladder" in cfg.get("approx", {}):
                        continue
                    path = work / "config.json"
                    path.write_text(json.dumps(cfg))
                    rc = cli.run_experiment(path, out_dir=work / "run")
                    if rc != 0:
                        raise SystemExit(f"{cfg['name']} at {key!r} failed: exit {rc}")
                    verdict = json.loads((work / "run" / "manifest.json").read_text())["verdict"]
                    entries[key] = headline(verdict)
                    print(cfg["name"], key, entries[key], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {name: entries for name, entries in reference.items() if entries}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
