"""Self-test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

Runs every workload generator end to end through the same runner and
checks the benchmark uses, and shows that a corrupted or out-of-tolerance
output is counted as a failure.
"""
from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import latticegossip  # noqa: E402
import latticegossip.cli  # noqa: E402
from run import Runner, tail  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (WORKLOADS, CheckError, check_rates,  # noqa: E402
                       check_simulate, check_spectrum, check_verify)


def tiny_round(name: str, seed: int = 0):
    workload = WORKLOADS[name]
    return workload.round(seed, 0, **workload.tiny)


def corrupting(target_argv):
    """A CLI main whose output for one command has its last row garbled."""
    def main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = latticegossip.cli.main(argv)
        lines = buf.getvalue().splitlines()
        if tuple(argv) == target_argv:
            lines[-1] = ",".join("x" for _ in lines[-1].split(","))
        sys.stdout.write("\n".join(lines) + "\n")
        return code
    return main


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_round_passes(name):
    cmds = tiny_round(name)
    runner = Runner(latticegossip.cli.main)
    runner.run_round(cmds)
    assert runner.attempted == len(cmds)
    assert runner.failed == 0, runner.failures
    assert 0.0 <= runner.max_err_over_tol <= 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_row_counts_as_failure(name):
    cmds = tiny_round(name)
    runner = Runner(corrupting(cmds[1].argv))
    runner.run_round(cmds)
    assert runner.failed == 1, runner.failures
    assert runner.failed / runner.attempted == 1 / len(cmds)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_are_seeded(name):
    def argvs(seed, r):
        return [cmd.argv for cmd in WORKLOADS[name].round(seed, r)]
    assert argvs(3, 0) == argvs(3, 0)
    assert argvs(3, 0) != argvs(4, 0)
    assert argvs(3, 0) != argvs(3, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sizes_do_not_depend_on_seed_or_round(name):
    def sizes(seed, r):
        return sorted((cmd.argv[0],) + tuple(
            cmd.argv[i + 1] for i, arg in enumerate(cmd.argv)
            if arg in ("--n", "--n-max", "--trials"))
            for cmd in WORKLOADS[name].round(seed, r))
    assert sizes(3, 0) == sizes(4, 0) == sizes(3, 1)


def test_out_of_tolerance_values_fail():
    header = ("n,w,p,analytic_rate,numeric_rate,empirical_rate,"
              "lambda2_modulus,regime\n")
    assert check_rates(header + "9,0.5,,0.1,0.1,,0.9,real_roots\n",
                       9, "w", [0.5]) == 0.0
    with pytest.raises(CheckError):
        check_rates(header + "9,0.5,,0.1,0.10000002,,0.9,real_roots\n",
                    9, "w", [0.5])
    with pytest.raises(CheckError):
        check_rates(header + "9,0.5,,0.1,,,0.9,real_roots\n", 9, "w", [0.5])
    with pytest.raises(CheckError):
        check_simulate(header + "9,0.5,0,0.1,0.1,0.16,0.9,real_roots\n",
                       9, 0.5, 0.0)
    spectrum = ("n,parameter_kind,parameter,index,analytic_re,analytic_im,"
                "numeric_re,numeric_im,pair_distance\n"
                "3,w,0.5,1,1,0,1,0,0\n3,w,0.5,2,0.5,0,0.5,0,2e-8\n"
                "3,w,0.5,3,0,0,0,0,0\n")
    with pytest.raises(CheckError):
        check_spectrum(spectrum, 3)
    with pytest.raises(CheckError):
        check_verify("spectra          max eigenvalue pairing distance: "
                     "2.000e-08 (tolerance 1e-08)  FAIL\noverall: FAIL\n")


def test_tracer_accounts_for_command_time_and_restores():
    originals = {(module, fn): getattr(getattr(latticegossip, module), fn)
                 for module, fns in LAYERS.values() for fn in fns}
    cmds = tiny_round("verify") + tiny_round("montecarlo")
    tracer = Tracer(latticegossip)
    runner = Runner(latticegossip.cli.main, tracer)
    plain = runner.run_round(cmds)
    with tracer.installed():
        traced = runner.run_round(cmds, traced=True)
    assert traced[2] == plain[2]            # outputs byte-identical
    assert runner.failed == 0, runner.failures
    assert sum(tracer.self_time.values()) == pytest.approx(sum(traced[1]),
                                                           rel=1e-3)
    assert tracer.calls["cli"] == len(cmds)
    assert tracer.calls["oracle.full_spectrum"] > 0
    assert 0 < tracer.trials_kept <= tracer.trials_requested
    for (module, fn), original in originals.items():
        assert getattr(getattr(latticegossip, module), fn) is original


def test_tail_is_nearest_rank_percentile():
    latencies = [float(k) for k in range(40, 0, -1)]
    assert tail(latencies, 75.0) == (30.0, 10)
    assert tail(latencies, 90.0) == (36.0, 4)
    assert tail([2.0], 90.0) == (2.0, 0)
