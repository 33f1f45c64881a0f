"""Tests for the command-line interface.

Proves:
  1. Every command emits the documented CSV schema (or valid JSON) and the
     same invocation produces byte-identical output, seeds included.
  2. The reproduce targets regenerate the reference tables: the tuned-rate
     table rows, the flagged large-n reference rows, and the figure data
     series have the right shapes and anchor values; fig7 rows are
     rate_link_failure's rates from one rate_weighted call each.
  3. verify runs its suites and reports PASS with exit code 0 on the
     shipped implementation, and argument validation fails loudly.
  4. The report commands and spectrum read eigenvalues only: they run with
     the eigenpair solver disabled.  Rows and spectra at w <= 1/2 (every
     link-failure row among them) run with the general solver disabled,
     and rows at w > 1/2 with the symmetric one disabled.  At even n the
     general solver sees nothing larger than a half-order block.
  5. Bad sizes, bad simulator settings (a period budget too short to
     measure a rate among them), a report of more rows than
     MAX_GRID_POINTS and an --out path that cannot be written end in an
     error: line before any row is computed, never in a traceback.
  6. verify's stacked suites return the float of a one-matrix-at-a-time
     loop (one weight and one p at a time for the closed form and the
     enumeration), and an --n-max the spectra suite cannot solve is an
     error: line before any suite runs.  The spectra suite passes full_spectrum the
     report path's matrices (oracle.isospectral_matrix), in stacks of at
     most SPECTRA_STACK_BYTES at 8 n^2 bytes a matrix; the solver splits
     each even-order stack into its halves and sends symmetric ones to the
     symmetric driver; and the suite's eigenvalues lie within 1e-13 of the
     general solve of W itself.
"""
import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from latticegossip import cli, matrices, oracle, pentadiag, rates
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
    rows = cli._rows_fig7()[1]
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
    assert [r["rate"] for r in cli._rows_fig7()[1]] == expected
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


# Each stacked suite written as a loop over one matrix, one weight, one
# shift and one p at a time; the stacked suites must return these floats.


def looped_spectra(n_max, seed):
    weights = sorted(set(cli._parse_grid("0.05:0.95:0.05"))
                     | {(1.0 - p) / 2.0 for p in cli._parse_grid("0:0.9:0.1")})
    worst = 0.0
    for n in range(3, n_max + 1):
        for w in weights:
            ana = pentadiag.analytic_eigenvalues(
                pentadiag.weighted_gossip_params(n, w)).eigenvalues
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
        parity = "odd" if n % 2 == 1 else "even"
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
                    val = fam(params, parity, lam)
                    worst = max(worst,
                                abs(val - det) / max(1.0, abs(det)))
    return worst


def looped_failure_matrix(n_max, seed):
    worst = 0.0
    for n in range(3, min(n_max, 10) + 1):
        for p in cli._parse_grid("0:1:0.1"):
            exact = oracle.enumerate_failure_expectation(n, p)
            built = matrices.expected_failure_matrix(n, p).entries
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
    assert suite(n_max, seed) == looped(n_max, seed)


def record_suite_solves(monkeypatch):
    """Patch the suite's matrix builder, full_spectrum and both eigenpair
    drivers to log, per stacked solve, (n, weights, stack shape, driver
    calls as (name, shape), eigenvalues)."""
    solves, pending, drivers = [], [], []
    build, solve = oracle.isospectral_matrix, oracle.full_spectrum

    def building(n, w):
        pending.append((n, w))
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
    monkeypatch.setattr(cli, "SPECTRA_STACK_BYTES", cap)
    solves = record_suite_solves(monkeypatch)
    assert cli._suite_spectra(30, 0) == looped
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
    cli._suite_spectra(60, 0)
    monkeypatch.undo()
    for n in range(3, 61):
        reduced = {w: num for m, ws, _, _, nums in solves if m == n
                   for w, num in zip(ws, nums)}
        assert len(reduced) == 22
        weights = sorted(reduced)
        # numpy's general solve of each whole W: the solvers would split it.
        full = np.linalg.eigvals(np.stack([
            matrices.primitive_gossip_matrix(n, w).entries
            for w in weights]))
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
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"np.linalg.{disabled} called")

    monkeypatch.setattr(np.linalg, disabled, must_not_run)
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

    monkeypatch.setattr(cli, "_report_row", must_not_run)
    monkeypatch.setattr(cli.sim, "_run", must_not_run)
    assert error_exit(argv.split()).startswith("error:")


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

    monkeypatch.setattr(cli, "_report_row", first_row)
    with pytest.raises(AssertionError, match="first row"):
        main("rate --n-range 3:500002 --w-grid 0.1:0.2:0.1".split())


@pytest.mark.parametrize("row_builder, argv", [
    ("_report_row", "rate --n 8"),
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
