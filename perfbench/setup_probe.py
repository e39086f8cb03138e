"""Set-up probe, run in a fresh interpreter: import decaylab (with numpy and
scipy) and load and validate the config files named on the command line.

Prints one JSON line: the wall seconds of the import and load, the same
scaled to the reference speed of the ``shot_p2`` probe of ``speed.py``
(sampled in this interpreter while it imports; importing is interpreted code,
like the shooting), and the number of probe bursts."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402  (benchmark-owned; imports neither numpy nor scipy)


def load():
    from decaylab import cli

    for path in sys.argv[1:]:
        cli.load_config(Path(path))


_, wall, scaled, bursts = speed.Speedometer("shot_p2").measure(load)
print(json.dumps({"wall_s": wall, "scaled_s": scaled, "bursts": bursts}))
