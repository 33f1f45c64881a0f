"""Seeded command streams for the three benchmark workloads, and the checks
that every command's output must pass.

A workload is an endless sequence of rounds.  Round r of workload W under
seed s is a list of CLI argument vectors drawn from random.Random("W:s:r"),
so the same seed always gives the same commands.  Every round holds the
same sizes, spaced evenly over the workload's size range; the seed draws
every weight, probability, order and simulator seed.  Sizes are not drawn
because cost climbs steeply with size (the dense matrix build is O(n^4);
`verify --n-max 20` takes about 0.35 s and `--n-max 60` about 2.3 s on a
2-core Xeon): drawn sizes would make rounds of one run differ by a fifth
and runs of different seeds do different amounts of work, so the
run-to-run spread would measure the draw rather than the program.

Each check returns the worst closed-form-vs-oracle discrepancy it saw,
divided by the tolerance `latticegossip verify` uses for that comparison,
and raises CheckError when the output is malformed or out of tolerance.
"""
from __future__ import annotations

import csv
import io
import math
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

RATE_TOL = 1e-8    # spectra and rates
SIM_TOL = 0.05     # simulator empirical rate

W_GRID = [round(0.05 * k, 2) for k in range(1, 20)]   # 0.05 .. 0.95
P_GRID = [round(0.1 * k, 1) for k in range(0, 11)]    # 0.0 .. 1.0
SIM_P = (0.0, 0.1, 0.3, 0.5)
SIM_OFF_HALF_W = [w for w in W_GRID if 0.2 <= w <= 0.8 and w != 0.5]

# The CLI's documented output formats, spelled out here rather than
# imported so that the checks do not trust the code they check.
REPORT_FIELDS = ["n", "w", "p", "analytic_rate", "numeric_rate",
                 "empirical_rate", "lambda2_modulus", "regime"]
SPECTRUM_FIELDS = ["n", "parameter_kind", "parameter", "index",
                   "analytic_re", "analytic_im", "numeric_re", "numeric_im",
                   "pair_distance"]
# Header and row count of every `reproduce` target.
REPRODUCE_SHAPES = {
    "table1": (["n", "convergence_rate", "optimal_weight"], 17),
    "table2": (["n", "convergence_rate", "optimal_weight", "reference_rate",
                "reference_inconsistent"], 10),
    "fig2": (["n", "w", "rate"], 98),
    "fig3": (["n", "w", "rate"], 95),
    "fig4": (["n", "w", "rate"], 190),
    "fig5": (["n", "relative_error"], 97),
    "fig6": (["n", "relative_error"], 91),
    "fig7": (["n", "p", "rate"], 84),
}
VERIFY_SUITES = ("spectra", "charpoly", "failure-matrix", "simulator")
_SUITE_LINE = re.compile(
    r"^(\S+)\s+.*: (\S+) \(tolerance (\S+)\)\s+(PASS|FAIL)$")


class CheckError(Exception):
    """An output that is malformed or outside its tolerance."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], float]


# --- checks --------------------------------------------------------------


def _table(out: str, fields: list[str], rows: int) -> list[dict]:
    reader = csv.DictReader(io.StringIO(out))
    if reader.fieldnames != fields:
        raise CheckError(f"header {reader.fieldnames} != {fields}")
    table = list(reader)
    if len(table) != rows:
        raise CheckError(f"{len(table)} rows, expected {rows}")
    return table


def _number(row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except (TypeError, ValueError):
        raise CheckError(f"{key}={row.get(key)!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{key}={value} is not finite")
    return value


def _within(diff: float, tol: float, what: str) -> float:
    ratio = diff / tol
    if not ratio <= 1.0:
        raise CheckError(f"{what}: {diff:.3e} exceeds tolerance {tol:g}")
    return ratio


def check_rates(out: str, n: int, key: str, values: list[float]) -> float:
    """Rows of rate/link-failure/sweep-weight: one per value, numeric
    column present and equal to the closed form."""
    worst = 0.0
    for row, value in zip(_table(out, REPORT_FIELDS, len(values)), values):
        if int(row["n"]) != n or _number(row, key) != value:
            raise CheckError(f"row {row} is not n={n}, {key}={value}")
        diff = abs(_number(row, "analytic_rate") - _number(row, "numeric_rate"))
        worst = max(worst, _within(diff, RATE_TOL, "analytic vs numeric rate"))
    return worst


def check_spectrum(out: str, n: int) -> float:
    """n paired eigenvalues, each analytic one within RATE_TOL of its
    numeric partner."""
    worst = 0.0
    for k, row in enumerate(_table(out, SPECTRUM_FIELDS, n), start=1):
        if int(row["n"]) != n or int(row["index"]) != k:
            raise CheckError(f"row {row} is not eigenvalue {k} of n={n}")
        worst = max(worst, _within(_number(row, "pair_distance"), RATE_TOL,
                                   "eigenvalue pair distance"))
    return worst


def check_simulate(out: str, n: int, w: float, p: float) -> float:
    """Empirical rate in (0, 1]; within SIM_TOL of the closed form when no
    link fails; closed form equal to the numeric rate where both exist."""
    (row,) = _table(out, REPORT_FIELDS, 1)
    if int(row["n"]) != n:
        raise CheckError(f"row {row} is not n={n}")
    empirical = _number(row, "empirical_rate")
    if not 0.0 < empirical <= 1.0:
        raise CheckError(f"empirical rate {empirical} outside (0, 1]")
    worst = 0.0
    if row["analytic_rate"] and row["numeric_rate"]:
        diff = abs(_number(row, "analytic_rate") - _number(row, "numeric_rate"))
        worst = _within(diff, RATE_TOL, "analytic vs numeric rate")
    if p == 0.0:
        diff = abs(empirical - _number(row, "analytic_rate"))
        worst = max(worst, _within(diff, SIM_TOL, "empirical vs analytic rate"))
    return worst


def check_verify(out: str) -> float:
    """Every suite line PASS and within its printed tolerance, then
    `overall: PASS`."""
    lines = out.splitlines()
    if lines[-1:] != ["overall: PASS"] or len(lines) != len(VERIFY_SUITES) + 1:
        raise CheckError(f"verify output ends {lines[-1:]}")
    worst = 0.0
    for line, suite in zip(lines, VERIFY_SUITES):
        match = _SUITE_LINE.match(line)
        if match is None or match[1] != suite or match[4] != "PASS":
            raise CheckError(f"bad suite line {line!r}")
        worst = max(worst, _within(float(match[2]), float(match[3]), suite))
    return worst


def check_reproduce(out: str, target: str) -> float:
    """Header and row count of the target; every value finite."""
    fields, rows = REPRODUCE_SHAPES[target]
    for row in _table(out, fields, rows):
        for key in fields:
            if key != "reference_inconsistent":
                _number(row, key)
    return 0.0


# --- command streams -----------------------------------------------------


def _even(lo: int, hi: int, k: int) -> list[int]:
    """k integers spaced evenly over [lo, hi], both ends included."""
    return [lo + round(i * (hi - lo) / (k - 1)) for i in range(k)]


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(part) for part in parts)


def crosscheck_round(rng: random.Random,
                     n_range: tuple[int, int] = (128, 512)) -> list[Command]:
    """Five commands at n spaced evenly over n_range, kinds fixed by n:
    rate at the lowest and the highest, sweep-weight (two rows), spectrum
    and link-failure in between."""
    kinds = ("rate", "sweep-weight", "spectrum", "link-failure", "rate")
    cmds = []
    for kind, n in zip(kinds, _even(*n_range, len(kinds))):
        if kind == "rate":
            w = rng.choice(W_GRID)
            cmds.append(Command(_argv("rate", "--n", n, "--w", w),
                                partial(check_rates, n=n, key="w", values=[w])))
        elif kind == "link-failure":
            p = rng.choice(P_GRID)
            cmds.append(Command(_argv("link-failure", "--n", n, "--p", p),
                                partial(check_rates, n=n, key="p", values=[p])))
        elif kind == "sweep-weight":
            i = rng.randrange(len(W_GRID) - 1)
            ws = W_GRID[i:i + 2]
            grid = f"{ws[0]}:{ws[1]}:0.05"
            cmds.append(Command(_argv("sweep-weight", "--n", n, "--w-grid", grid),
                                partial(check_rates, n=n, key="w", values=ws)))
        else:
            flag, value = (("--w", rng.choice(W_GRID)) if rng.random() < 0.5
                           else ("--p", rng.choice(P_GRID)))
            cmds.append(Command(_argv("spectrum", "--n", n, flag, value),
                                partial(check_spectrum, n=n)))
    rng.shuffle(cmds)
    return cmds


def montecarlo_round(rng: random.Random,
                     n_range: tuple[int, int] = (16, 128),
                     trials: tuple[int, int] = (16, 24)) -> list[Command]:
    """Eight `simulate` commands at n spaced evenly over n_range, trials
    rising with n, each p at one low and one high n; two of the eight use a
    weight other than 1/2."""
    off_half = set(rng.sample(range(8), 2))
    cmds = []
    trial_counts = _even(*trials, 8)
    for k, n in enumerate(_even(*n_range, 8)):
        p = SIM_P[k % len(SIM_P)]
        w = rng.choice(SIM_OFF_HALF_W) if k in off_half else 0.5
        argv = _argv("simulate", "--n", n, "--w", w, "--p", p,
                     "--trials", trial_counts[k],
                     "--seed", rng.randrange(2 ** 31))
        cmds.append(Command(argv, partial(check_simulate, n=n, w=w, p=p)))
    rng.shuffle(cmds)
    return cmds


def verify_round(rng: random.Random,
                 m_range: tuple[int, int] = (20, 60)) -> list[Command]:
    """Four `verify --scope all` at --n-max spaced evenly over m_range,
    each followed by two `reproduce` targets; every target once per
    round."""
    targets = list(REPRODUCE_SHAPES)
    rng.shuffle(targets)
    cmds = []
    for k, m in enumerate(_even(*m_range, 4)):
        cmds.append(Command(_argv("verify", "--scope", "all", "--n-max", m,
                                  "--seed", rng.randrange(2 ** 31)),
                            check_verify))
        for target in targets[2 * k:2 * k + 2]:
            cmds.append(Command(_argv("reproduce", "--target", target),
                                partial(check_reproduce, target=target)))
    return cmds


@dataclass(frozen=True)
class Workload:
    """A seeded stream of rounds.  tail_pct is the percentile reported as
    cmd_tail_s: the highest of 50/75/90/95/99 with at least ten commands
    above it in a run of the seed code.  It is fixed, not recomputed from
    each run's command count, so that a faster program, which runs more
    commands in the same time, is compared at the same percentile.

    blas_threads, when set, is the OpenBLAS thread count the run pins
    before numpy loads; None keeps the library default (one thread per
    core).  On a shared 2-core host, runs of `verify` at the default
    varied about twice as much from run to run as runs with one thread, at
    the same speed: its matrices are at most 60 x 60, so a second thread
    has little work to share and mostly waits on the scheduler.
    `crosscheck` (n up to 512) is faster and steadier at the default."""

    name: str
    make_round: Callable[..., list[Command]]
    tiny: dict            # keyword sizes for warm-up and the self-test
    tail_pct: float
    blas_threads: int | None = None

    def round(self, seed: int, r: int, **sizes) -> list[Command]:
        return self.make_round(random.Random(f"{self.name}:{seed}:{r}"),
                               **sizes)


# montecarlo runs but is not listed in BENCHMARK.json: its interpreter-bound
# loop follows the CPU speed swings of a shared host (run medians 1.6-2.5 s
# on one 2-core machine) too closely to hold a run-to-run bound of 25%.
# verify still exercises and traces the simulator.
WORKLOADS = {
    "crosscheck": Workload("crosscheck", crosscheck_round,
                           {"n_range": (8, 24)}, tail_pct=75.0),
    "montecarlo": Workload("montecarlo", montecarlo_round,
                           {"n_range": (8, 16), "trials": (3, 5)},
                           tail_pct=90.0),
    "verify": Workload("verify", verify_round,
                       {"m_range": (5, 8)}, tail_pct=90.0, blas_threads=1),
}
