"""Benchmark of the latticegossip CLI.

Run from the repository root:

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 55 --trace 0

One client drives `latticegossip.cli.main(argv)` in-process in a closed
loop: the next command starts when the previous one has returned and its
output has been checked.  Commands come in seeded rounds (see
workloads.py); rounds run back to back until --seconds have passed, and
the last round always finishes.  Before timing, a warm-up round at tiny
sizes and a `rate --n 128` run untimed, so one-off costs such as starting
the BLAS thread pool stay out of the latencies.  A workload may pin the
OpenBLAS thread count before numpy loads (see workloads.Workload).

--trace 0 prints the end-to-end metrics:
  setup_s      median time for a fresh process to import the package and
               finish `rate --n 8` (SETUP_RUNS fresh processes)
  wall_s       time of the whole timed command stream, outputs checked,
               divided by its number of rounds
  cmd_p50_s    median command latency
  cmd_tail_s   command latency at the workload's tail percentile
  peak_rss_mb  peak resident memory of this process

--trace 1 runs every round twice, untraced and traced in alternating order,
and prints the per-layer metrics of the traced passes: self time per round
of each layer (see tracer.py), call counts, and the tracing overhead.
Spans are written to perfbench/out/spans-<workload>.csv.gz.

Every output is checked (see workloads.py); a command fails if it exits
nonzero, raises, or fails its check.  The line before the result is a run
record: machine, library versions, BLAS threads, package version and
commit, fail_ratio, max_err_over_tol (worst closed-form-vs-oracle
discrepancy over its tolerance), the command count, the percentile of
cmd_tail_s and the number of commands above it, and the sha256 of the first round's commands and outputs.  The
last line is the result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, ROOT as ROOT_SPAN, Tracer
from workloads import WORKLOADS, CheckError, Command, check_rates

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 7


class Runner:
    """Runs commands through the CLI, checks their outputs and counts
    failures."""

    def __init__(self, cli_main, tracer: Tracer | None = None) -> None:
        self._main = cli_main
        self._tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.max_err_over_tol = 0.0
        self.check_s = 0.0
        self.failures: list[str] = []

    def fail(self, argv, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{' '.join(argv)}: {why}")

    def run(self, cmd: Command, traced: bool = False) -> tuple[float, str]:
        """Latency of one command (the CLI call only) and its stdout."""
        out, err = io.StringIO(), io.StringIO()
        span = (self._tracer.command_span(self.attempted) if traced
                else nullcontext())
        self.attempted += 1
        t0 = perf_counter()
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                code = self._main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, not a dead run
            code = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        latency = perf_counter() - t0
        t1 = perf_counter()
        if code not in (0, None):
            self.fail(cmd.argv, f"exit {code!r} {err.getvalue().strip()}")
        else:
            try:
                worst = cmd.check(out.getvalue())
            except (CheckError, ValueError, TypeError) as exc:
                self.fail(cmd.argv, f"check: {exc}")
            else:
                self.max_err_over_tol = max(self.max_err_over_tol, worst)
        self.check_s += perf_counter() - t1
        return latency, out.getvalue()

    def run_round(self, cmds: list[Command], traced: bool = False):
        """(round time, latencies, digest of argv and outputs)."""
        digest = hashlib.sha256()
        latencies = []
        t0 = perf_counter()
        for cmd in cmds:
            latency, out = self.run(cmd, traced)
            latencies.append(latency)
            digest.update(f"{' '.join(cmd.argv)}\n{out}".encode())
        return perf_counter() - t0, latencies, digest.hexdigest()


def load_cli():
    if not (SRC / "latticegossip" / "__init__.py").is_file():
        raise SystemExit(f"error: no latticegossip package under {SRC}")
    sys.path.insert(0, str(SRC))
    import latticegossip
    import latticegossip.cli
    return latticegossip


def measure_setup(runner: Runner) -> float:
    """Median wall time of fresh `python -m latticegossip rate --n 8`
    processes; each output is checked like any command's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = ("rate", "--n", "8")
    times = []
    for _ in range(SETUP_RUNS):
        runner.attempted += 1
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "latticegossip", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60, cwd=REPO)
        times.append(perf_counter() - t0)
        try:
            if proc.returncode != 0:
                raise CheckError(f"exit {proc.returncode} {proc.stderr.strip()}")
            check_rates(proc.stdout, 8, "w", [0.5])
        except (CheckError, ValueError, TypeError) as exc:
            runner.fail(argv, f"fresh process: {exc}")
    return statistics.median(times)


def warm_up(runner: Runner, workload) -> None:
    """Untimed: one round at tiny sizes, then a BLAS-sized `rate`."""
    for cmd in workload.round(0, 0, **workload.tiny):
        runner.run(cmd)
    runner.run(Command(("rate", "--n", "128"),
                       partial(check_rates, n=128, key="w", values=[0.5])))


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank pct-th percentile latency and how many samples lie
    beyond it."""
    ordered = sorted(latencies)
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def blas_threads() -> str:
    """OPENBLAS_NUM_THREADS if set, else the loaded OpenBLAS's default."""
    if os.environ.get("OPENBLAS_NUM_THREADS"):
        return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"library default {fn()}"
    return "unknown"


def git_commit() -> str:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no .git)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = REPO / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def run_record(package, args, runner: Runner) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "package_version": package.__version__, "git_commit": git_commit(),
        "rng_algorithm": package.sim.RNG_ALGORITHM,
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "max_err_over_tol": runner.max_err_over_tol,
        "failures": runner.failures,
    }


def timed_rounds(workload, seed: int, seconds: float, body) -> None:
    """Call body(r, commands) for rounds r = 0, 1, ... until `seconds`
    have passed; the round in progress at the deadline finishes."""
    t0 = perf_counter()
    r = 0
    while r == 0 or perf_counter() - t0 < seconds:
        body(r, workload.round(seed, r))
        r += 1


def end_to_end(package, args, workload) -> tuple[Runner, dict, dict]:
    runner = Runner(package.cli.main)
    setup_s = measure_setup(runner)
    warm_up(runner, workload)
    rounds, latencies, digests = [], [], []

    def body(r, cmds):
        wall, lat, digest = runner.run_round(cmds)
        rounds.append(wall)
        latencies.extend(lat)
        digests.append(digest)

    timed_rounds(workload, args.seed, args.seconds, body)
    tail_s, beyond = tail(latencies, workload.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(rounds), "s"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    extra = {"rounds": len(rounds), "cmd_count": len(latencies),
             "cmd_tail_pct": workload.tail_pct, "cmd_tail_beyond": beyond,
             "digest_round0": digests[0]}
    return runner, metrics, extra


def per_layer(package, args, workload) -> tuple[Runner, dict, dict]:
    tracer = Tracer(package)
    runner = Runner(package.cli.main, tracer)
    warm_up(runner, workload)
    plain, traced, digests = [], [], []
    check_s = 0.0

    def body(r, cmds):
        nonlocal check_s
        passes = {}
        for mode in ((False, True) if r % 2 == 0 else (True, False)):
            before = runner.check_s
            with tracer.installed() if mode else nullcontext():
                passes[mode] = runner.run_round(cmds, traced=mode)
            if mode:
                check_s += runner.check_s - before
        plain.append(passes[False][0])
        traced.append(passes[True][0])
        digests.append(passes[False][2])
        if passes[True][2] != passes[False][2]:
            runner.fail(("round", r), "traced outputs differ from untraced")

    timed_rounds(workload, args.seed, args.seconds, body)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}.csv.gz")

    n = len(traced)
    wall = sum(traced)
    self_s = {layer: tracer.self_time.get(layer, 0.0)
              for layer in (ROOT_SPAN, *LAYERS)}
    calls = tracer.calls
    build_calls = (calls["matrices.primitive_gossip_matrix"]
                   + calls["matrices.expected_failure_matrix"])
    eig_calls = calls["oracle.full_spectrum"]
    rate_calls = calls["rates.rate_weighted"] + calls["rates.rate_link_failure"]
    mc_s = self_s["sim.mc"]
    requested = tracer.trials_requested
    metrics = {
        "matrices.build_s": (self_s["matrices.build"] / n, "s"),
        "matrices.build_calls": (build_calls / n, "count"),
        "matrices.build_share": (self_s["matrices.build"] / wall, "ratio"),
        "oracle.eig_s": (self_s["oracle.eig"] / n, "s"),
        "oracle.eig_calls": (eig_calls / n, "count"),
        "oracle.eig_max_residual": (tracer.eig_max_residual, "ratio"),
        "oracle.match_s": (self_s["oracle.match"] / n, "s"),
        "oracle.enum_s": (self_s["oracle.enum"] / n, "s"),
        "oracle.det_s": (self_s["oracle.det"] / n, "s"),
        "sim.mc_s": (mc_s / n, "s"),
        "sim.trials": (requested / n, "count"),
        "sim.trials_per_s": (requested / mc_s if mc_s else 0.0, "1/s"),
        "sim.trials_kept_ratio": (tracer.trials_kept / requested
                                  if requested else 0.0, "ratio"),
        "cli.self_s": (self_s[ROOT_SPAN] / n, "s"),
        "cli.write_s": (self_s["cli.write"] / n, "s"),
        "pentadiag.closed_form_s": (self_s["pentadiag.closed_form"] / n, "s"),
        "pentadiag.charpoly_s": (self_s["pentadiag.charpoly"] / n, "s"),
        "rates.closed_form_s": (self_s["rates.closed_form"] / n, "s"),
        "rates.calls": (rate_calls / n, "count"),
        "bench.check_s": (check_s / n, "s"),
        "check.max_err_over_tol": (runner.max_err_over_tol, "ratio"),
        "trace.wall_s": (wall / n, "s"),
        "trace.overhead_s": (statistics.fmean(traced)
                             - statistics.fmean(plain), "s"),
        "trace.accounted_share": ((sum(self_s.values()) + check_s) / wall,
                                  "ratio"),
    }
    extra = {"rounds": n, "spans": len(tracer.name),
             "digest_round0": digests[0]}
    return runner, metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if workload.blas_threads is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = str(workload.blas_threads)
    package = load_cli()
    measure = per_layer if args.trace else end_to_end
    runner, metrics, extra = measure(package, args, workload)

    record = run_record(package, args, runner)
    record.update(extra)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
