"""Tests for the command-line interface.

Proves:
  1. Every command emits the documented CSV schema (or valid JSON) and the
     same invocation produces byte-identical output, seeds included.  CSV
     written a whole column at a time is the bytes of formatting one cell
     at a time, on every reproduce target, a 2000-row spectrum and report
     rows with empty, bool and mixed cells.
  2. The reproduce targets regenerate the reference tables: the tuned-rate
     table rows, the flagged large-n reference rows, and the figure data
     series have the right shapes and anchor values; fig7 rows are
     rate_link_failure's rates from one rate_weighted call each.
  3. verify runs its suites and reports PASS with exit code 0 on the
     shipped implementation, the simulator suite simulates even below
     n_max = 4, and argument validation fails loudly: a negative --seed
     is a usage error (exit code 2) for verify and simulate before any
     suite or simulation runs.  A suite's line prints the largest of its
     discrepancies; a NaN among them (a NaN closed form, expected matrix
     or simulator run that measures no rate) prints nan and FAIL, and
     verify exits 1.
  4. The report commands and spectrum read eigenvalues only: they run with
     the eigenpair solver disabled.  They take W(w)'s eigenvalues from its
     planes: they run with every n x n builder disabled, on either side of
     1/2 and with link failures, and no driver sees a matrix of order n.
     A report solves each order once: one (k, 2, 2) stack of top planes
     (oracle._plane_rates) for all of its k weights and no symmetric
     solve, in stacks of at most STACK_BYTES at 32 bytes a plane, with
     the bytes of one command per row for rate, link-failure and
     sweep-weight.  A simulate row's
     closed-form and numeric cells are those of the rate row at its
     expected weight.
  5. Bad sizes, bad simulator settings (a period budget too short to
     measure a rate among them), a report of more rows than
     MAX_GRID_POINTS and an --out path that cannot be written end in an
     error: line before any row is computed, never in a traceback.  A
     simulation that runs out of memory ends in an error: line too, and
     so does one whose every trial is dropped, naming both causes.
     simulate below n = 3 names the floor n >= 3 before any trial runs.
     A report command without its orders prints its own missing-flag
     line, with exit code 1, before any row is computed, whatever else
     it is given.
  6. verify's stacked suites return the float of a one-matrix-at-a-time
     loop (one weight and one p at a time for the closed form and the
     enumeration), and an --n-max the spectra suite cannot solve is an
     error: line before any suite runs.  The spectra suite passes full_spectrum the
     matrices oracle.isospectral_matrix builds, in stacks of at
     most STACK_BYTES at 8 n^2 bytes a matrix; the solver splits
     each even-order stack into its halves and sends symmetric ones to the
     symmetric driver; the suite pairs each solved stack with its closed
     form in one spectrum_match_distance call; and the suite's eigenvalues
     lie within 1e-13 of the general solve of W itself.  The spectra suite
     builds each stack, and the failure-matrix suite each order's 11
     matrices, with one builder call.
"""
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from latticegossip import cli, matrices, oracle, pentadiag, rates, sim
from latticegossip.cli import REPORT_FIELDS, SPECTRUM_FIELDS, main
from latticegossip.rates import rate_link_failure, rate_weighted, relative_error


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# --- schemas and determinism ----------------------------------------------------


def test_rate_csv_schema(capsys):
    code, out = run_cli(capsys, "rate", "--n", "8", "--w", "0.8")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == ",".join(REPORT_FIELDS)
    record = parse_csv(out)[0]
    assert record["n"] == "8"
    assert float(record["analytic_rate"]) == pytest.approx(0.4, abs=1e-9)
    assert record["regime"] == "complex_pair"
    assert record["empirical_rate"] == ""
    assert record["p"] == ""


def test_same_command_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--n", "6", "--w", "0.5", "--seed", "9",
            "--trials", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["reproduce", "--target", "table1", "--out", str(a)]) == 0
    assert main(["reproduce", "--target", "table1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_matches_file_output(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    assert main(["rate", "--n", "12", "--out", str(out_file)]) == 0
    capsys.readouterr()
    code, stdout_text = run_cli(capsys, "rate", "--n", "12")
    assert code == 0
    assert out_file.read_text() == stdout_text


def test_json_output_is_valid_and_rounded(capsys):
    code, out = run_cli(capsys, "simulate", "--n", "5", "--seed", "1",
                        "--trials", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert tuple(payload[0]) == REPORT_FIELDS
    for value in payload[0].values():
        if isinstance(value, float):
            assert float(format(value, ".10g")) == value


def per_cell_csv(rows, fields):
    """write_rows' CSV text as first written: _fmt_cell of one cell at a
    time, row by row."""
    lines = [",".join(fields)]
    lines += [",".join(cli._fmt_cell(row[f]) for f in fields) for row in rows]
    return "\n".join(lines) + "\n"


def written_csv(capsys, rows, fields):
    cli.write_rows(rows, fields, None, "csv")
    return capsys.readouterr().out


@pytest.mark.parametrize("target", sorted(cli.REPRODUCE_TARGETS))
def test_csv_columns_are_the_bytes_of_per_cell_reproduce_rows(capsys, target):
    fields, rows = cli.REPRODUCE_TARGETS[target]()
    assert written_csv(capsys, rows, fields) == per_cell_csv(rows, fields)


def test_csv_columns_are_the_bytes_of_per_cell_spectrum_rows(monkeypatch,
                                                              capsys):
    written = []
    monkeypatch.setattr(cli, "write_rows",
                        lambda rows, fields, out, fmt: written.append(
                            (rows, fields)))
    assert main(["spectrum", "--n", "2000", "--w", "0.3"]) == 0
    monkeypatch.undo()
    ((rows, fields),) = written
    assert len(rows) == 2000
    assert written_csv(capsys, rows, fields) == per_cell_csv(rows, fields)


def test_csv_columns_are_the_bytes_of_per_cell_mixed_cells(capsys):
    # Report rows with empty cells (no p, no empirical rate, no numeric
    # rate above NUMERIC_RATE_MAX_N), then cells of every kind in one
    # column: bools, None, ints, strings, numpy floats and odd floats.
    rows = (cli._report_rows([8], [(0.8, None)])
            + cli._report_rows([9], [(None, 0.3)])
            + cli._report_rows([cli.NUMERIC_RATE_MAX_N + 1], [(0.3, None)])
            + cli._report_rows([6], [(0.5, 0.1)], 0.25))
    odd = [True, False, None, 7, "x", np.float64(0.1), -0.0, 1e-300,
           float("nan"), float("inf"), 1 / 3]
    rows += [dict.fromkeys(REPORT_FIELDS, value) for value in odd]
    rows += [{f: odd[(i + k) % len(odd)] for k, f in enumerate(REPORT_FIELDS)}
             for i in range(len(odd))]
    text = written_csv(capsys, rows, REPORT_FIELDS)
    assert text == per_cell_csv(rows, REPORT_FIELDS)
    assert ",true," in text and ",," in text
    assert written_csv(capsys, [], REPORT_FIELDS) == per_cell_csv(
        [], REPORT_FIELDS)


# --- sweeps and grids --------------------------------------------------------------


def test_sweep_n_row_per_size(capsys):
    code, out = run_cli(capsys, "sweep-n", "--n-range", "4:6", "--w", "0.5")
    assert code == 0
    rows = parse_csv(out)
    assert [r["n"] for r in rows] == ["4", "5", "6"]
    for r in rows:
        n = int(r["n"])
        assert float(r["analytic_rate"]) == pytest.approx(
            rate_weighted(n, 0.5).rate, abs=1e-9)
        assert float(r["numeric_rate"]) == pytest.approx(
            rate_weighted(n, 0.5).rate, abs=1e-7)


def test_sweep_weight_default_grid(capsys):
    code, out = run_cli(capsys, "sweep-weight", "--n", "8")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9
    best = max(rows, key=lambda r: float(r["analytic_rate"]))
    assert float(best["w"]) == 0.8
    assert float(best["analytic_rate"]) == pytest.approx(0.4, abs=1e-9)


def test_link_failure_default_grid(capsys):
    code, out = run_cli(capsys, "link-failure", "--n", "6")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 11
    assert float(rows[0]["p"]) == 0.0
    assert float(rows[-1]["p"]) == 1.0
    assert float(rows[-1]["analytic_rate"]) == 0.0
    mid = rows[3]
    assert float(mid["analytic_rate"]) == pytest.approx(
        rate_link_failure(6, float(mid["p"])).rate, abs=1e-9)


@pytest.mark.parametrize("w, p, expected", [
    ("0.7", "0.2", rate_weighted(5, 0.56).rate),
    ("0.7", "0", rate_weighted(5, 0.7).rate),
    ("0.5", "0.3", rate_link_failure(5, 0.3).rate),
], ids=["weight-and-failure", "weighted", "link-failure"])
def test_simulate_row_columns_follow_the_model(capsys, w, p, expected):
    code, out = run_cli(capsys, "simulate", "--n", "5", "--w", w,
                        "--p", p, "--seed", "3", "--trials", "2")
    assert code == 0
    record = parse_csv(out)[0]
    assert record["empirical_rate"] != ""
    # Every row reports the expected matrix, weighted gossip at (1 - p) w.
    # p = 0 leaves p empty; w = 1/2 with failures leaves w empty.
    assert (record["p"] == "") == (p == "0")
    assert (record["w"] == "") == (w == "0.5" and p != "0")
    assert float(record["analytic_rate"]) == pytest.approx(expected, abs=1e-9)
    assert float(record["numeric_rate"]) == pytest.approx(expected, abs=1e-7)
    # Its closed-form and numeric cells are those of the rate row there.
    weight = (1.0 - float(p)) * float(w)
    code, out = run_cli(capsys, "rate", "--n", "5", "--w", repr(weight))
    assert code == 0
    (rated,) = parse_csv(out)
    for f in ("analytic_rate", "numeric_rate", "lambda2_modulus", "regime"):
        assert record[f] == rated[f]


def test_spectrum_rows_pair_within_tolerance(capsys):
    code, out = run_cli(capsys, "spectrum", "--n", "9", "--w", "0.35")
    assert code == 0
    header = out.strip().split("\n")[0]
    assert header == ",".join(SPECTRUM_FIELDS)
    rows = parse_csv(out)
    assert len(rows) == 9
    assert float(rows[0]["analytic_re"]) == pytest.approx(1.0, abs=1e-9)
    for r in rows:
        assert float(r["pair_distance"]) < 1e-8


# --- reproduce targets ----------------------------------------------------------------


def test_reproduce_table1_anchors(capsys):
    code, out = run_cli(capsys, "reproduce", "--target", "table1")
    assert code == 0
    rows = {int(r["n"]): r for r in parse_csv(out)}
    assert sorted(rows) == list(range(4, 21))
    assert float(rows[14]["convergence_rate"]) == pytest.approx(0.2412,
                                                                abs=5e-4)
    assert float(rows[14]["optimal_weight"]) == 0.8
    assert float(rows[8]["optimal_weight"]) == 0.8
    assert float(rows[8]["convergence_rate"]) == pytest.approx(0.4, abs=1e-9)


def test_reproduce_table2_flags_inconsistent_reference_rows(capsys):
    code, out = run_cli(capsys, "reproduce", "--target", "table2")
    assert code == 0
    rows = {int(r["n"]): r for r in parse_csv(out)}
    assert sorted(rows) == list(range(100, 1001, 100))
    assert float(rows[200]["convergence_rate"]) == pytest.approx(0.0022,
                                                                 abs=2e-4)
    assert float(rows[200]["optimal_weight"]) == 0.9
    for n, r in rows.items():
        expected = "true" if 500 <= n <= 900 else "false"
        assert r["reference_inconsistent"] == expected, n


def test_reproduce_fig2_shape(capsys):
    code, out = run_cli(capsys, "reproduce", "--target", "fig2")
    rows = parse_csv(out)
    assert code == 0
    assert [int(r["n"]) for r in rows] == list(range(3, 101))
    assert {r["w"] for r in rows} == {"0.5"}


def test_reproduce_fig5_keeps_negative_small_n_values(capsys):
    code, out = run_cli(capsys, "reproduce", "--target", "fig5")
    rows = {int(r["n"]): float(r["relative_error"]) for r in parse_csv(out)}
    assert code == 0
    assert rows[4] == pytest.approx(relative_error(4), abs=1e-9)
    assert rows[4] < 0
    assert rows[100] == pytest.approx(0.8907, abs=1e-3)


def test_reproduce_fig7_failed_network_rows_are_zero(capsys):
    code, out = run_cli(capsys, "reproduce", "--target", "fig7")
    rows = parse_csv(out)
    assert code == 0
    dead = [r for r in rows if float(r["p"]) == 1.0]
    assert len(dead) == 4
    assert all(float(r["rate"]) == 0.0 for r in dead)


def test_reproduce_fig7_rows_take_one_rate_call_each(monkeypatch):
    rows = cli.REPRODUCE_TARGETS["fig7"]()[1]
    expected = [rate_link_failure(r["n"], r["p"]).rate for r in rows]
    calls = []
    weighted = rates.rate_weighted

    def counted(n, w):
        calls.append((n, w))
        return weighted(n, w)

    def must_not_run(*args, **kwargs):
        raise AssertionError("fig7 went through rate_link_failure")

    monkeypatch.setattr(rates, "rate_weighted", counted)
    monkeypatch.setattr(rates, "rate_link_failure", must_not_run)
    assert [r["rate"] for r in cli.REPRODUCE_TARGETS["fig7"]()[1]] == expected
    assert len(calls) == len(rows) == 84


# --- verify ------------------------------------------------------------------------------


def test_verify_small_scope_passes(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "failure-matrix",
                        "--n-max", "8")
    assert code == 0
    assert "failure-matrix" in out
    assert "overall: PASS" in out


def test_verify_all_tiny_sizes(capsys):
    code, out = run_cli(capsys, "verify", "--n-max", "6")
    assert code == 0
    assert out.count("PASS") >= 5
    # Below n_max = 4 the simulator suite simulates at n_max itself, so its
    # worst gap is a measured one, not the 0 of an empty loop.
    code, out = run_cli(capsys, "verify", "--scope", "simulator",
                        "--n-max", "3")
    assert code == 0
    assert 0.0 < float(out.split("rate: ")[1].split()[0]) <= 0.05


def test_verify_rejects_tiny_n_max(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--n-max", "2"])


@pytest.mark.parametrize("scope", ["all", "spectra"])
def test_verify_rejects_n_max_beyond_the_solver_before_any_suite(monkeypatch,
                                                                 scope):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before --n-max was checked")

    for name, (_, tol, label) in cli.VERIFY_SUITES.items():
        monkeypatch.setitem(cli.VERIFY_SUITES, name,
                            (must_not_run, tol, label))
    n_max = str(oracle.MAX_SPECTRUM_ORDER + 1)
    message = error_exit(["verify", "--scope", scope, "--n-max", n_max])
    assert message.startswith("error:")
    assert str(oracle.MAX_SPECTRUM_ORDER) in message


@pytest.mark.parametrize("scope", ["charpoly", "failure-matrix", "simulator"])
def test_verify_scopes_that_cap_their_orders_accept_any_n_max(capsys, scope):
    code, out = run_cli(capsys, "verify", "--scope", scope, "--n-max", "2500")
    assert code == 0
    assert "overall: PASS" in out


def nan_like(func):
    return lambda *args: np.full_like(func(*args), np.nan)


@pytest.mark.parametrize("scope, module, name, patch", [
    ("spectra", pentadiag, "analytic_eigenvalues", nan_like),
    ("charpoly", pentadiag, "charpoly_bd_bd", lambda f: lambda *a: math.nan),
    ("failure-matrix", matrices, "expected_failure_matrix", nan_like),
    ("simulator", sim, "run_periodic_gossip", lambda f: lambda *a:
        dataclasses.replace(f(*a), empirical_rate=None)),
])
def test_verify_fails_a_nan_discrepancy(monkeypatch, capsys, scope, module,
                                        name, patch):
    # One NaN among a suite's discrepancies, or a simulator run that
    # measures no rate, prints nan and fails, where max() would drop it.
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    code, out = run_cli(capsys, "verify", "--scope", scope, "--n-max", "12")
    line, overall = out.splitlines()
    assert code == 1
    assert line.startswith(scope) and line.endswith("FAIL")
    assert ": nan (tolerance" in line
    assert overall == "overall: FAIL"


# Each stacked suite written as a loop over one matrix, one weight, one
# shift and one p at a time; the stacked suites must return these floats.


def looped_spectra(n_max, seed):
    weights = sorted(set(cli._parse_grid("0.05:0.95:0.05"))
                     | {(1.0 - p) / 2.0 for p in cli._parse_grid("0:0.9:0.1")})
    worst = 0.0
    for n in range(3, n_max + 1):
        for w in weights:
            ana = pentadiag.analytic_eigenvalues(
                pentadiag.weighted_gossip_params(n, w))
            num = oracle.full_spectrum(
                oracle.isospectral_matrix(n, w)).eigenvalues
            worst = max(worst, oracle.spectrum_match_distance(ana, num))
    return worst


def looped_charpoly(n_max, seed):
    rng = np.random.default_rng(seed)
    orders = sorted({o for o in (5, 6, 13, 14, 27, 28, 50, 51)
                     if o <= max(n_max, 6)})
    worst = 0.0
    for n in orders:
        for _ in range(3):
            e, b, c = rng.uniform(-1.5, 1.5, 3)
            d = b + c if n % 2 == 1 else rng.uniform(-1.5, 1.5)
            params = pentadiag.PentaParams(alpha=0.0, beta=0.0, e=e, b=b,
                                           c=c, d=d, n=n)
            lams = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
            for fam, corners in ((pentadiag.charpoly_bb, ("bb", "bb")),
                                 (pentadiag.charpoly_bb_bd, ("bb", "bd")),
                                 (pentadiag.charpoly_bd_bd, ("bd", "bd"))):
                a = pentadiag.penta_matrix(params, corners)
                for lam in lams:
                    det = oracle.determinant_shifted(a, lam)
                    val = fam(params, lam)
                    worst = max(worst,
                                abs(val - det) / max(1.0, abs(det)))
    return worst


def looped_failure_matrix(n_max, seed):
    worst = 0.0
    for n in range(3, min(n_max, 10) + 1):
        for p in cli._parse_grid("0:1:0.1"):
            exact = oracle.enumerate_failure_expectation(n, p)
            built = matrices.expected_failure_matrix(n, p)
            worst = max(worst, float(np.abs(exact - built).max()))
    return worst


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n_max", [3, 4, 12, 20, 33])
@pytest.mark.parametrize("scope, looped", [
    ("spectra", looped_spectra),
    ("charpoly", looped_charpoly),
    ("failure-matrix", looped_failure_matrix),
])
def test_stacked_suite_returns_the_float_of_the_looped_suite(scope, looped,
                                                             n_max, seed):
    suite = cli.VERIFY_SUITES[scope][0]
    assert cli._worst(suite(n_max, seed)) == looped(n_max, seed)


@pytest.mark.parametrize("n_max", [3, 12, 60])
def test_spectra_suite_pairs_each_solved_stack_in_one_call(monkeypatch,
                                                           n_max):
    calls = []
    solve, match = oracle.full_spectrum, oracle.spectrum_match_distance

    def solving(a):
        calls.append("solve")
        return solve(a)

    def matching(ana, num):
        calls.append("match")
        assert np.shape(ana) == np.shape(num) and np.ndim(ana) == 2
        return match(ana, num)

    monkeypatch.setattr(oracle, "full_spectrum", solving)
    monkeypatch.setattr(oracle, "spectrum_match_distance", matching)
    list(cli._suite_spectra(n_max, 0))
    assert calls == ["solve", "match"] * (len(calls) // 2)
    assert len(calls) >= 2 * 2 * (n_max - 2)


@pytest.mark.parametrize("n_max", [3, 12, 60])
def test_verify_suites_build_each_stack_with_one_call(monkeypatch, n_max):
    calls = []
    build, solve = oracle.isospectral_matrix, oracle.full_spectrum
    failure_build = matrices.expected_failure_matrix

    def building(n, w):
        calls.append(("build", np.shape(w)))
        return build(n, w)

    def solving(a):
        calls.append(("solve", (len(a),)))
        return solve(a)

    def failure_building(n, p):
        calls.append(("failure", np.shape(p)))
        return failure_build(n, p)

    monkeypatch.setattr(oracle, "isospectral_matrix", building)
    monkeypatch.setattr(oracle, "full_spectrum", solving)
    monkeypatch.setattr(matrices, "expected_failure_matrix", failure_building)
    list(cli._suite_spectra(n_max, 0))
    # One build of a 1-D weight array before each stacked solve, of its size.
    assert len(calls) >= 2 * 2 * (n_max - 2)
    for (b, shape), (s, size) in zip(calls[::2], calls[1::2]):
        assert (b, s) == ("build", "solve") and shape == size
    calls.clear()
    list(cli._suite_failure_matrix(n_max, 0))
    assert calls == [("failure", (11,))] * (min(n_max, 10) - 2)


def record_suite_solves(monkeypatch):
    """Patch the suite's matrix builder, full_spectrum and both eigenpair
    drivers to log, per stacked solve, (n, weights, stack shape, driver
    calls as (name, shape), eigenvalues).  The builder logs each weight of
    a stacked build."""
    solves, pending, drivers = [], [], []
    build, solve = oracle.isospectral_matrix, oracle.full_spectrum

    def building(n, w):
        pending.extend((n, x) for x in np.atleast_1d(w).tolist())
        return build(n, w)

    def recorded(name):
        driver = getattr(np.linalg, name)

        def run(a):
            drivers.append((name, a.shape))
            return driver(a)
        return run

    def solving(a):
        drivers.clear()
        result = solve(a)
        (n,) = {n for n, _ in pending}
        solves.append((n, [w for _, w in pending], a.shape, list(drivers),
                       result.eigenvalues))
        pending.clear()
        return result

    monkeypatch.setattr(oracle, "isospectral_matrix", building)
    monkeypatch.setattr(oracle, "full_spectrum", solving)
    for name in ("eigh", "eig"):
        monkeypatch.setattr(np.linalg, name, recorded(name))
    return solves


def test_spectra_stacks_stay_within_their_byte_cap(monkeypatch):
    # A cap of 5 matrices at n = 12 takes the suite through every regime
    # by n = 30: one stack per group, several per group, one matrix per
    # solve.
    looped = looped_spectra(30, 0)
    cap = 5 * 8 * 12 * 12
    monkeypatch.setattr(cli, "STACK_BYTES", cap)
    solves = record_suite_solves(monkeypatch)
    assert cli._worst(cli._suite_spectra(30, 0)) == looped
    for n in range(3, 31):
        stacks = [(ws, shape, drivers)
                  for m, ws, shape, drivers, _ in solves if m == n]
        for ws, shape, drivers in stacks:
            k = len(ws)
            assert shape == (k, n, n)
            assert k * 8 * n * n <= cap or k == 1
            # The solver splits a stack of even order into its halves.
            solved = (2 * k, n // 2, n // 2) if n % 2 == 0 else shape
            # The groups: w <= 1/2 is symmetric, w > 1/2 is not.
            assert drivers == [("eigh" if max(ws) <= 0.5 else "eig", solved)]
            assert min(ws) > 0.5 or max(ws) <= 0.5
        assert sorted(w for ws, _, _ in stacks for w in ws) == \
            sorted(set(cli._parse_grid("0.05:0.95:0.05"))
                   | {(1.0 - p) / 2.0 for p in cli._parse_grid("0:0.9:0.1")})
    assert [len([1 for m, *_ in solves if m == n])
            for n in (3, 12, 30)] == [2, 5, 22]


def test_spectra_suite_is_within_1e_13_of_the_unreduced_solve(monkeypatch):
    solves = record_suite_solves(monkeypatch)
    list(cli._suite_spectra(60, 0))
    monkeypatch.undo()
    for n in range(3, 61):
        reduced = {w: num for m, ws, _, _, nums in solves if m == n
                   for w, num in zip(ws, nums)}
        assert len(reduced) == 22
        weights = sorted(reduced)
        # numpy's general solve of each whole W: the solvers would split it.
        full = np.linalg.eigvals(np.stack([
            matrices.primitive_gossip_matrix(n, w) for w in weights]))
        for w, num in zip(weights, full):
            assert oracle.spectrum_match_distance(reduced[w], num) <= 1e-13, \
                (n, w)


# --- argument failures ---------------------------------------------------------------------


def test_unknown_reproduce_target_fails():
    with pytest.raises(SystemExit):
        main(["reproduce", "--target", "table9"])


def test_descending_weight_grid_fails():
    with pytest.raises(SystemExit):
        main(["sweep-weight", "--n", "8", "--w-grid", "0.9:0.1:0.1"])


def test_weight_outside_open_interval_fails():
    with pytest.raises(SystemExit):
        main(["rate", "--n", "8", "--w", "1.0"])


def test_rate_requires_some_n():
    with pytest.raises(SystemExit):
        main(["rate", "--w", "0.5"])


@pytest.mark.parametrize("argv", [
    "simulate --n 8 --w-grid 0.1:0.3:0.1",
    "simulate --n 8 --p-grid 0:0.2:0.1",
    "spectrum --n 5 --w-grid 0.1:0.3:0.1",
    "spectrum --n-range 3:5",
    "spectrum --n 5 --w 0.3 --p 0.2",
    "sweep-weight --n 8 --n-range 3:5",
    "rate --n 8 --n-range 3:5",
    "rate --n 8 --w 0.3 --w-grid 0.1:0.3:0.1",
    "verify --n 4 --scope failure-matrix",
], ids=["simulate-w-grid", "simulate-p-grid", "spectrum-w-grid",
        "spectrum-n-range", "spectrum-w-and-p", "sweep-weight-n-range",
        "rate-n-and-n-range", "rate-w-and-w-grid", "verify-n-prefix"])
def test_flag_the_command_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    "verify --n-max 5 --seed -1",
    "verify --scope charpoly --n-max 5 --seed -1",
    "verify --scope simulator --n-max 5 --seed -1",
    "simulate --n 8 --seed -1",
])
def test_negative_seed_is_a_usage_error_before_any_work(monkeypatch, capsys,
                                                        argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --seed was checked")

    for name, (_, tol, label) in cli.VERIFY_SUITES.items():
        monkeypatch.setitem(cli.VERIFY_SUITES, name,
                            (must_not_run, tol, label))
    monkeypatch.setattr(cli.sim, "monte_carlo_rate", must_not_run)
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    assert info.value.code == 2
    assert "argument --seed: must be >= 0" in capsys.readouterr().err


# --- eigenvalues-only report path ------------------------------------------------------


@pytest.mark.parametrize("argv", [
    "rate --n 64 --w 0.3",
    "link-failure --n 64 --p 0.2",
    "spectrum --n 64 --w 0.3",
])
def test_report_path_never_solves_for_eigenvectors(monkeypatch, capsys, argv):
    def no_eigenvectors(*args, **kwargs):
        raise AssertionError("np.linalg.eig called on the report path")

    monkeypatch.setattr(np.linalg, "eig", no_eigenvectors)
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert len(parse_csv(out)) == (64 if argv.startswith("spectrum") else 1)


@pytest.mark.parametrize("disabled, argv", [
    ("eigvals", "rate --n 512 --w 0.3"),
    ("eigvals", "link-failure --n 416 --p 0.3"),
    ("eigvals", "spectrum --n 320 --p 0.3"),
    ("eigvals", "simulate --n 6 --w 0.5 --p 0.3 --trials 2"),
    ("eigvalsh", "rate --n 64 --w 0.8"),
])
def test_report_path_solver_follows_the_weight(monkeypatch, capsys, disabled,
                                               argv):
    # disabled names the driver that solved W(w), or its stand-in, at this
    # weight before the report path took its eigenvalues from the planes;
    # now no n x n matrix is built, and no driver sees one.
    n = int(argv.split()[2])

    def must_not_run(*args, **kwargs):
        raise AssertionError("an n x n matrix was built")

    for module, name in ((matrices, "primitive_gossip_matrix"),
                         (matrices, "expected_failure_matrix"),
                         (oracle, "isospectral_matrix")):
        monkeypatch.setattr(module, name, must_not_run)
    driver = getattr(np.linalg, disabled)

    def below_order_n(m):
        if m.shape[-1] >= n:
            raise AssertionError(f"np.linalg.{disabled} called on {m.shape}")
        return driver(m)

    monkeypatch.setattr(np.linalg, disabled, below_order_n)
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    rows = parse_csv(out)
    if argv.startswith("spectrum"):
        assert len(rows) == 320
        assert max(float(r["pair_distance"]) for r in rows) <= 1e-8
    else:
        (row,) = rows
        assert abs(float(row["analytic_rate"])
                   - float(row["numeric_rate"])) <= 1e-8


@pytest.mark.parametrize("argv, n", [
    ("rate --n 512 --w 0.8", 512),
    ("spectrum --n 320 --w 0.8", 320),
])
def test_even_order_solves_only_half_order_blocks(monkeypatch, capsys, argv,
                                                  n):
    solver = np.linalg.eigvals

    def half_order_only(m):
        if max(m.shape[-2:]) > n // 2:
            raise AssertionError(f"np.linalg.eigvals called on {m.shape}")
        return solver(m)

    monkeypatch.setattr(np.linalg, "eigvals", half_order_only)
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    rows = parse_csv(out)
    if argv.startswith("spectrum"):
        assert len(rows) == n
        assert max(float(r["pair_distance"]) for r in rows) <= 1e-8
    else:
        (row,) = rows
        assert abs(float(row["analytic_rate"])
                   - float(row["numeric_rate"])) <= 1e-8


def test_report_solves_each_order_once(monkeypatch, capsys):
    # One stack of 2x2 planes per order, one top plane for each of the
    # nine weights: the top cosine comes from a Newton solve, so no
    # symmetric driver runs.
    calls = []

    def recorded(name):
        driver = getattr(np.linalg, name)

        def solve(m):
            calls.append((name, m.shape))
            return driver(m)
        return solve

    for name in ("eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recorded(name))
    code, out = run_cli(capsys, *"rate --n-range 100:103 --w-grid "
                                  "0.1:0.9:0.1".split())
    assert code == 0
    assert len(parse_csv(out)) == 36
    assert calls == [("eigvals", (9, 2, 2))] * 4


def one_value_rows(capsys, command, n_flag, ns, flag, values):
    """The data lines of one command per (n, value), joined under one
    header."""
    lines = []
    for n in ns:
        for v in values:
            code, out = run_cli(capsys, command, n_flag, str(n), flag,
                                repr(v))
            assert code == 0
            header, row = out.splitlines()
            lines.append(row)
    return "\n".join([header] + lines) + "\n"


@pytest.mark.parametrize("argv, ns, flag, values", [
    ("rate --n-range 8:11 --w-grid 0.05:0.95:0.05", range(8, 12), "--w",
     cli._parse_grid("0.05:0.95:0.05")),
    ("rate --n-range 510:513 --w-grid 0.1:0.9:0.2", range(510, 514), "--w",
     cli._parse_grid("0.1:0.9:0.2")),
    ("link-failure --n-range 62:65 --p-grid 0:1:0.1", range(62, 66), "--p",
     cli._parse_grid("0:1:0.1")),
    ("sweep-weight --n 130", [130], "--w", rates.default_weight_grid()),
], ids=["rate", "rate-largest-orders", "link-failure", "sweep-weight"])
def test_report_by_order_is_the_bytes_of_one_value_commands(capsys, argv, ns,
                                                            flag, values):
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    command = argv.split()[0]
    assert out == one_value_rows(capsys, command, "--n", ns, flag, values)


def test_report_stacks_stay_within_their_byte_cap(monkeypatch, capsys):
    # Four 32-byte planes per _plane_rates call: 19 weights take five
    # calls, with the bytes of one call.
    argv = "rate --n 64 --w-grid 0.05:0.95:0.05".split()
    code, whole = run_cli(capsys, *argv)
    sizes = []
    rates = oracle._plane_rates

    def recorded(n, w):
        sizes.append(np.size(w))
        return rates(n, w)

    monkeypatch.setattr(cli, "STACK_BYTES", 4 * 32)
    monkeypatch.setattr(oracle, "_plane_rates", recorded)
    assert run_cli(capsys, *argv) == (code, whole)
    assert sizes == [4, 4, 4, 4, 3]


# --- errors before work ----------------------------------------------------------------------


def error_exit(argv):
    """The SystemExit message of a failing command.  A string message is
    printed to stderr with exit status 1; any other exception would escape
    here as a traceback."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code


@pytest.mark.parametrize("argv", [
    "rate --n 2",
    "sweep-weight --n 2",
    "sweep-n --n-range 1:3",
    "link-failure --n 2 --p 0.2",
    "simulate --n 5 --w 1.5",
    "simulate --n 2 --w 0.7 --trials 2",
    "simulate --n 2 --w 0.7 --p 0.2 --trials 2",
    "simulate --n 5 --trials 0",
    "simulate --n 40 --trials 3 --max-periods 3",
])
def test_bad_size_or_setting_is_an_error_line(monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(cli, "_numeric_rates", must_not_run)
    monkeypatch.setattr(cli.sim, "_run", must_not_run)
    assert error_exit(argv.split()).startswith("error:")


@pytest.mark.parametrize("n", [1, 2])
def test_simulate_below_three_nodes_names_the_floor(monkeypatch, n):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a trial ran before n was checked")

    monkeypatch.setattr(cli.sim, "_run", must_not_run)
    assert error_exit(["simulate", "--n", str(n)]) == \
        f"error: need n >= 3, got n={n}"


@pytest.mark.parametrize("argv, message", [
    ("rate", "error: provide --n or --n-range"),
    ("rate --w 2", "error: provide --n or --n-range"),
    ("link-failure", "error: provide --n or --n-range"),
    ("link-failure --p 2", "error: provide --n or --n-range"),
    ("sweep-weight", "error: sweep-weight needs --n"),
    ("sweep-weight --w-grid 0.1:0.5:0.1", "error: sweep-weight needs --n"),
    ("sweep-n", "error: sweep-n needs --n-range"),
    ("sweep-n --w 0.3", "error: sweep-n needs --n-range"),
])
def test_report_without_orders_names_its_missing_flag(monkeypatch, argv,
                                                      message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a row was computed before the orders were "
                             "checked")

    monkeypatch.setattr(cli, "_numeric_rates", must_not_run)
    assert error_exit(argv.split()) == message
    proc = subprocess.run([sys.executable, "-m", "latticegossip",
                           *argv.split()], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "", message + "\n")


def test_simulation_without_a_rate_names_both_causes():
    # The one trial runs 271 periods to a disagreement of exactly 0.
    message = error_exit(
        "simulate --n 5 --w 0.5 --p 0.5 --seed 0 --max-periods 100000000 "
        "--trials 1 --tolerance 1e-300".split())
    assert message.startswith("error:")
    assert "under 4 periods" in message
    assert "disagreement of exactly 0" in message


def test_simulation_out_of_memory_is_an_error_line(monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli.sim, "monte_carlo_rate", out_of_memory)
    message = error_exit("simulate --n 1000000000000 --seed 1".split())
    assert message == "error: Unable to allocate 7.28 TiB"


@pytest.mark.parametrize("argv", [
    "rate --n-range 3:1000002 --w-grid 0.05:0.95:0.05",
    "sweep-n --n-range 3:500003 --w-grid 0.1:0.2:0.1",
    "link-failure --n-range 3:333336 --p-grid 0:1:0.5",
])
def test_report_of_more_rows_than_the_grid_cap_is_an_error_line(monkeypatch,
                                                                argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("eigensolver called before the row count was "
                             "checked")

    for name in ("eigvals", "eigvalsh", "eig", "eigh"):
        monkeypatch.setattr(np.linalg, name, must_not_run)
    message = error_exit(argv.split())
    assert message.startswith("error:")
    assert str(cli.MAX_GRID_POINTS) in message


def test_report_of_exactly_the_grid_cap_rows_is_accepted(monkeypatch):
    def first_row(*args, **kwargs):
        raise AssertionError("first row")

    monkeypatch.setattr(cli, "_numeric_rates", first_row)
    with pytest.raises(AssertionError, match="first row"):
        main("rate --n-range 3:500002 --w-grid 0.1:0.2:0.1".split())


@pytest.mark.parametrize("row_builder, argv", [
    ("_numeric_rates", "rate --n 8"),
    ("_rows_rate", "reproduce --target fig2"),
])
def test_out_into_missing_directory_fails_before_any_row(monkeypatch, tmp_path,
                                                         row_builder, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("rows computed before --out was checked")

    monkeypatch.setattr(cli, row_builder, must_not_run)
    out = str(tmp_path / "missing" / "x.csv")
    assert error_exit(argv.split() + ["--out", out]).startswith("error:")


def test_out_that_cannot_be_opened_is_an_error_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "latticegossip", "rate", "--n", "5",
         "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# --- module entry point ----------------------------------------------------------------------


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latticegossip", "rate", "--n", "5"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.startswith(",".join(REPORT_FIELDS))
