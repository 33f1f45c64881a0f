"""Fingerprint the output of a fixed list of CLI commands.

Runs each command below as `python -W error::RuntimeWarning -m
latticegossip ...` with the caller's environment (PYTHONPATH included, so it
picks the tree to audit) and prints one line per command:

    sha256(stdout + stderr)  exit-code  command

Two trees print the same lines exactly when every command gives them the
same bytes and exit code.  To compare a change with its parent, run the
script once against each tree's `src` and diff the two outputs:

    PYTHONPATH=<parent checkout>/src python tools/stdout_audit.py > parent.txt
    PYTHONPATH=src python tools/stdout_audit.py > head.txt
    diff parent.txt head.txt

The script exits 1 if a command crashed (a traceback, a RuntimeWarning
among them), was refused as a usage error (exit code 2) or ended in an
error or a `verify` FAIL (exit code 1), except a command in MAY_FAIL, whose
FAIL is output like any other.

Besides the report, spectrum, simulate, verify and reproduce paths at
representative sizes, the list covers simulate rows with p unset and
with w unset, JSON reports, the closed form's w = 0 and
complex-pair branches, the pairing's repeated-eigenvalue greedy and
real-distance pairing at n = 2000, the plane oracle's square roots of s^2
and 1 - s^2 at the smallest orders, odd and even orders up to 2000 on both
sides of 1/2 and a weight of 1e-300, weight stacks at every residue mod 4
up to the largest numeric order and across it, w = 0 inside a stack and
as the expected weight at p = 1, verify's spectra suite with several
stacks per group, verify's charpoly suite on its own, at its order floor
among others, and the simulator and failure-matrix suites each on its own
at its floor (the simulator's at n_max itself).
"""
from __future__ import annotations

import hashlib
import shlex
import subprocess
import sys

COMMANDS = [
    "rate --n 512 --w-grid 0.05:0.95:0.05",
    "rate --n-range 3:60 --w-grid 0.05:0.95:0.05",
    "link-failure --n-range 3:60",
    "link-failure --n 416 --p-grid 0:1:0.1",
    "sweep-weight --n 224",
    "sweep-n --n-range 100:140 --w 0.8",
    "spectrum --n 320 --w 0.8",
    "spectrum --n 321 --p 0.3",
    "spectrum --n 64 --w 0.5",
    "spectrum --n 2000 --w 0.3",
    "spectrum --n 1999 --p 1",
    "simulate --n 6 --w 0.5 --p 0.3 --seed 7 --trials 20",
    "simulate --n 17 --w 0.2 --p 0.5 --seed 11 --trials 5",
    "simulate --n 8 --w 0.8 --seed 3 --trials 4",
    "simulate --n 6 --p 0.3 --seed 7 --trials 3 --format json",
    "verify --n-max 20 --seed 0",
    "verify --n-max 33 --seed 7",
    "verify --n-max 47 --seed 3",
    "verify --n-max 60 --seed 1825750039",
    "verify --scope spectra --n-max 150",
    "verify --scope charpoly --n-max 51 --seed 0",
    "verify --scope charpoly --n-max 4 --seed 5",
    "verify --scope simulator --n-max 3",
    "verify --scope failure-matrix --n-max 3",
    "spectrum --n 3 --w 0.5",
    "spectrum --n 4 --w 0.5",
    "spectrum --n 3 --p 1",
    "spectrum --n 8 --w 0.8",
    "spectrum --n 9 --p 1",
    "spectrum --n 1024 --w 0.7",
    "spectrum --n 1999 --w 0.3",
    "spectrum --n 2000 --p 1",
    "spectrum --n 2000 --w 0.95",
    "rate --n 9 --w 1e-300",
    "rate --n 512 --w 0.85",
    "rate --n-range 505:512 --w-grid 0.05:0.95:0.05",
    "link-failure --n 512 --p-grid 0:1:0.1",
    "link-failure --n 9 --p-grid 0:1:0.5 --format json",
    "sweep-n --n-range 500:520 --w 0.55",
    "link-failure --n 12 --p-grid 0:1:0.25",
] + [f"reproduce --target {target}" for target in
     ("table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")]

# The one command known to FAIL: the charpoly closed form at
# seed 1825750039 (ROADMAP item 2).
MAY_FAIL = {"verify --n-max 60 --seed 1825750039"}


def main() -> int:
    failed = False
    for command in COMMANDS:
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "latticegossip", *shlex.split(command)],
            capture_output=True)
        digest = hashlib.sha256(run.stdout + run.stderr).hexdigest()
        print(f"{digest}  {run.returncode}  {command}", flush=True)
        failed |= (run.returncode >= 2 or b"Traceback" in run.stderr
                   or (run.returncode == 1 and command not in MAY_FAIL))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
