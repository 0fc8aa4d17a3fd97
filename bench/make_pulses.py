"""Train the two pulse checkpoints that the `scan` workload sweeps.

    python3 bench/make_pulses.py

Run from the repository root.  It trains one PLE pulse on [-0.5, 0.5]
and one ORE pulse on [-0.2, 0.2] (the acceptance ranges, 400 bins over
6 pi, seed 1, the default 5000-iteration cap) through the `pulseforge
grape` command and writes them to bench/pulses/{ple,ore}_pulse.csv.
Training takes a few minutes, which is why the checkpoints are
committed instead of being made during a benchmark run.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
PULSES = Path(__file__).resolve().parent / "pulses"

# kind -> (train_min, train_max)
TRAINING = {"ple": (-0.5, 0.5), "ore": (-0.2, 0.2)}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from pulseforge.cli import main as cli

    PULSES.mkdir(exist_ok=True)
    for kind, (lo, hi) in TRAINING.items():
        with tempfile.TemporaryDirectory(dir=PULSES) as tmp:
            cli(
                ["grape", "--error", kind, "--train-min", str(lo),
                 "--train-max", str(hi), "--train-points", "5", "--seed", "1",
                 "--restarts", "1", "--out", tmp, "--prefix", kind],
                standalone_mode=False,
            )
            shutil.move(os.path.join(tmp, f"{kind}_pulse.csv"), PULSES / f"{kind}_pulse.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
