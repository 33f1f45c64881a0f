"""Command-line interface: rates, spectra, sweeps, simulation, verification,
and regeneration of the reference tables/figure data as CSV or JSON.

Output is deterministic: the same command with the same seed produces
byte-identical files.  Floats are printed with 10 significant digits.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import matrices, oracle, pentadiag, rates, sim

REPORT_FIELDS = ("n", "w", "p", "analytic_rate", "numeric_rate",
                 "empirical_rate", "lambda2_modulus", "regime")

# Largest order for which sweep/rate commands attach the numeric
# cross-check column (one oracle.plane_eigenvalues call per order).
NUMERIC_RATE_MAX_N = 512

# Most bytes of one stacked oracle call's main array (see _stacks).  A
# report's plane_eigenvalues call returns (k, n) eigenvalue rows, 8 n bytes
# each: 256 weights at n = 512, so every grid up to that size takes one
# call per order, while the call's temporaries, a few times its output,
# stay a few MiB however long the grid.  verify's spectra suite solves
# stacks of n x n matrices, 8 n^2 bytes each, in two groups per order, its
# 13 weights w <= 1/2 and its 9 above: a whole group fits in one stack up
# to n = 100 (w <= 1/2) and 120 (w > 1/2), so the per-call cost is paid
# twice per order; from n = 257 each matrix is solved alone, so peak memory
# at large n stays that of one solve.
STACK_BYTES = 1 << 20

# Most points a --*-range or --*-grid argument may expand to, and most rows
# a report may have; each count is checked before the work it bounds.
MAX_GRID_POINTS = 1_000_000

# Reference values reproduced by the table2 target, keyed by n.  The rows
# marked inconsistent disagree with the closed form by roughly an order of
# magnitude (the closed form is independently confirmed by the numeric
# oracle up to n where the eigensolve is feasible), so they are flagged
# rather than matched.
TABLE2_REFERENCE = {100: 0.009, 200: 0.0022, 300: 0.001, 400: 0.0006,
                    500: 0.1, 600: 0.002, 700: 0.002, 800: 0.001,
                    900: 0.001, 1000: 0.0001}
TABLE2_INCONSISTENT = {500, 600, 700, 800, 900}


# --- formatting ----------------------------------------------------------


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(format(value, ".10g"))
    return value


def _fmt_column(values: list):
    """_fmt_cell of every value, as an iterator: a column of floats is
    formatted by one map of format, with no per-cell type test."""
    if all(type(v) is float for v in values):
        return map(format, values, itertools.repeat(".10g"))
    return map(_fmt_cell, values)


def write_rows(rows: list[dict], fields: tuple[str, ...], out: str | None,
               fmt: str) -> None:
    if fmt == "csv":
        # Rows are joined as the column iterators yield them, so no more
        # than one row's cells exist at a time.
        columns = [_fmt_column([row[f] for row in rows]) for f in fields]
        lines = [",".join(fields)] + [",".join(cells)
                                      for cells in zip(*columns)]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = [{f: _json_value(row[f]) for f in fields} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        message = f"error: cannot write {out}: {exc.strerror or exc}"
        raise SystemExit(message) from None


# --- argument parsing ----------------------------------------------------


def _parse_int_range(text: str) -> list[int]:
    """'A:B' -> [A, A+1, ..., B] (inclusive)."""
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A:B with integers, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if hi - lo >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has more than {MAX_GRID_POINTS} points")
    return list(range(lo, hi + 1))


def _parse_grid(text: str) -> list[float]:
    """'A:B:STEP' -> [A, A+STEP, ..., <=B] (inclusive up to rounding)."""
    try:
        parts = [float(part) for part in text.split(":")]
        lo, hi, step = parts
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A:B:STEP with numbers, got {text!r}") from None
    if not all(math.isfinite(x) for x in parts):
        raise argparse.ArgumentTypeError(f"non-finite grid bound in {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"empty grid {text!r}")
    # The last point may overshoot hi by a rounding slack of at most half a
    # step, so a step below the slack adds no points past hi.  The cap
    # counts up to the widest slack, so it bounds the loop for any step.
    slack = 1e-9 * max(1.0, abs(hi))
    if (hi + slack - lo) / step >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    top = hi + min(slack, step / 2)
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > top:
            break
        values.append(round(v, 12))
        k += 1
    return values


def _parse_seed(text: str) -> int:
    """A nonnegative integer, as numpy's seed sequences take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _resolve_grid(args, name: str, default: list[float]) -> list[float]:
    """Values of --NAME or --NAME-grid (at most one is given), else default.

    name is "w" (a gossip weight, checked to lie in (0, 1)) or "p" (a
    failure probability, checked to lie in [0, 1]).
    """
    single = getattr(args, name)
    grid = getattr(args, f"{name}_grid", None)
    values = grid or ([single] if single is not None else default)
    for v in values:
        if name == "w" and not 0.0 < v < 1.0:
            raise SystemExit(f"error: gossip weight {v} outside (0, 1)")
        if name == "p" and not 0.0 <= v <= 1.0:
            raise SystemExit(f"error: failure probability {v} outside [0, 1]")
    return values


# --- report rows -----------------------------------------------------------


def _stacks(values: list[float], item_bytes: int):
    """values, in order, as consecutive arrays of at most
    max(1, STACK_BYTES // item_bytes) entries."""
    per_stack = max(1, STACK_BYTES // item_bytes)
    for i in range(0, len(values), per_stack):
        yield np.array(values[i:i + per_stack])


def _numeric_rates(n: int, weights: list[float]) -> list[float | None]:
    """The numeric_rate cells of report rows of order n at the given
    expected weights: 1 - |lambda_2| of each row of one
    oracle.plane_eigenvalues call per STACK_BYTES of its output, or None
    above NUMERIC_RATE_MAX_N."""
    if n > NUMERIC_RATE_MAX_N:
        return [None] * len(weights)
    return [oracle._gap(eigs) for chunk in _stacks(weights, 8 * n)
            for eigs in oracle.plane_eigenvalues(n, chunk)]


def _report_rows(ns: list[int], cells: list[tuple[float | None, float | None]],
                 empirical: float | None = None) -> list[dict]:
    """The REPORT_FIELDS rows of every order in ns at every (w, p) cell:
    gossip weight w (1/2 when None) and link failure probability p (0 when
    None), with empirical as every row's empirical_rate.  A row's closed
    form and numeric column are those of weighted gossip at the cell's
    matrices._expected_weight; the rows of one order share one
    _numeric_rates pass."""
    if min(ns) < 3:
        raise SystemExit(f"error: need n >= 3, got n={min(ns)}")
    if len(ns) * len(cells) > MAX_GRID_POINTS:
        raise SystemExit(f"error: {len(ns)} orders times {len(cells)} "
                         f"values make more than {MAX_GRID_POINTS} rows")
    weights = [matrices._expected_weight(w, p) for w, p in cells]
    rows = []
    for n in ns:
        for (w, p), weight, numeric in zip(cells, weights,
                                           _numeric_rates(n, weights)):
            r = rates.rate_weighted(n, weight)
            rows.append(dict(n=n, w=w, p=p, analytic_rate=r.rate,
                             numeric_rate=numeric, empirical_rate=empirical,
                             lambda2_modulus=r.lambda2_modulus,
                             regime=r.regime))
    return rows


def cmd_report(args) -> int:
    """The rows of rate, sweep-weight, sweep-n and link-failure: every order
    of --n or --n-range at every value of the command's grid kind, w or p,
    its default grid when neither the value nor the grid flag is given.
    Each command sets kind, grid and its missing-order error line where
    build_parser registers it."""
    n = getattr(args, "n", None)
    ns = getattr(args, "n_range", None) or ([n] if n is not None else None)
    if ns is None:
        raise SystemExit(args.missing)
    values = _resolve_grid(args, args.kind, args.grid)
    cells = [(v, None) if args.kind == "w" else (None, v) for v in values]
    write_rows(_report_rows(ns, cells), REPORT_FIELDS, args.out, args.format)
    return 0


def cmd_simulate(args) -> int:
    if args.n is None:
        raise SystemExit("error: simulate needs --n")
    try:
        config = sim.SimConfig(
            n=args.n, w=args.w if args.w is not None else 0.5,
            p=args.p if args.p is not None else 0.0, seed=args.seed,
            max_periods=args.max_periods, tolerance=args.tolerance)
        mc = sim.monte_carlo_rate(config, args.trials)
    except (ValueError, RuntimeError, MemoryError) as exc:
        raise SystemExit(f"error: {exc}") from None
    # The row leaves p empty without failures and w empty for plain
    # averaging with failures.
    p = config.p or None
    w = None if p is not None and config.w == 0.5 else config.w
    rows = _report_rows([config.n], [(w, p)], mc.mean)
    write_rows(rows, REPORT_FIELDS, args.out, args.format)
    return 0


SPECTRUM_FIELDS = ("n", "parameter_kind", "parameter", "index",
                   "analytic_re", "analytic_im", "numeric_re", "numeric_im",
                   "pair_distance")


def cmd_spectrum(args) -> int:
    if args.n is None:
        raise SystemExit("error: spectrum needs --n")
    n = args.n
    if not 3 <= n <= oracle.MAX_SPECTRUM_ORDER:
        raise SystemExit(f"error: spectrum needs 3 <= n <= "
                         f"{oracle.MAX_SPECTRUM_ORDER}, got n={n}")
    kind = "w" if args.p is None else "p"
    (value,) = _resolve_grid(args, kind, [0.5])
    w = matrices._expected_weight(**{kind: value})
    analytic = pentadiag.analytic_eigenvalues(
        pentadiag.weighted_gossip_params(n, w))
    numeric = oracle.plane_eigenvalues(n, w).astype(complex)

    order = np.lexsort((analytic.imag, analytic.real, -np.abs(analytic)))
    analytic = analytic[order]
    numeric = numeric[oracle.spectrum_pairing(analytic, numeric)]
    dist = np.abs(analytic - numeric)
    # Whole columns as Python floats, not one numpy scalar per entry.
    columns = zip(analytic.real.tolist(), analytic.imag.tolist(),
                  numeric.real.tolist(), numeric.imag.tolist(), dist.tolist())
    rows = [{"n": n, "parameter_kind": kind, "parameter": value,
             "index": i, "analytic_re": a_re, "analytic_im": a_im,
             "numeric_re": n_re, "numeric_im": n_im, "pair_distance": d}
            for i, (a_re, a_im, n_re, n_im, d) in enumerate(columns, 1)]
    write_rows(rows, SPECTRUM_FIELDS, args.out, args.format)
    return 0


# --- verify suites -------------------------------------------------------
# Every suite takes (n_max, seed) and returns its worst discrepancy.


def _suite_spectra(n_max: int, seed: int) -> float:
    # The w-grid plus the link-failure weights (1-p)*w at w = 1/2, each
    # solved once.
    weights = sorted(set(_parse_grid("0.05:0.95:0.05"))
                     | {matrices._expected_weight(p=p)
                        for p in _parse_grid("0:0.9:0.1")})
    groups = ([w for w in weights if w <= 0.5],
              [w for w in weights if w > 0.5])
    worst = 0.0
    for n in range(3, n_max + 1):
        # The dense reference, oracle.isospectral_matrix.  A group (the
        # weights on one side of 1/2, where that matrix switches) is solved
        # in stacks of at most STACK_BYTES.
        for group in groups:
            for chunk in _stacks(group, 8 * n * n):
                stack = oracle.isospectral_matrix(n, chunk)
                nums = oracle.full_spectrum(stack).eigenvalues
                anas = pentadiag.analytic_eigenvalues(
                    pentadiag.weighted_gossip_params(n, chunk))
                worst = max(worst,
                            oracle.spectrum_match_distance(anas, nums))
    return worst


def _suite_charpoly(n_max: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    orders = sorted({o for o in (5, 6, 13, 14, 27, 28, 50, 51)
                     if o <= max(n_max, 6)})
    worst = 0.0
    for n in orders:
        for _ in range(3):
            # Python floats and complexes: the charpoly recurrences step
            # through Python loops, where numpy scalars are slower.
            e, b, c = rng.uniform(-1.5, 1.5, 3).tolist()
            d = b + c if n % 2 == 1 else rng.uniform(-1.5, 1.5)
            params = pentadiag.PentaParams(alpha=0.0, beta=0.0, e=e, b=b,
                                           c=c, d=d, n=n)
            lams = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
            for fam, corners in ((pentadiag.charpoly_bb, ("bb", "bb")),
                                 (pentadiag.charpoly_bb_bd, ("bb", "bd")),
                                 (pentadiag.charpoly_bd_bd, ("bd", "bd"))):
                a = pentadiag.penta_matrix(params, corners)
                dets = oracle.determinant_shifted(a, lams).tolist()
                for lam, det in zip(lams.tolist(), dets):
                    val = fam(params, lam)
                    worst = max(worst,
                                abs(val - det) / max(1.0, abs(det)))
    return worst


def _suite_failure_matrix(n_max: int, seed: int) -> float:
    worst = 0.0
    ps = _parse_grid("0:1:0.1")
    for n in range(3, min(n_max, 10) + 1):
        exacts = oracle.enumerate_failure_expectation(n, ps)
        builts = matrices.expected_failure_matrix(n, ps)
        worst = max(worst, float(np.abs(exacts - builts).max()))
    return worst


def _suite_simulator(n_max: int, seed: int) -> float:
    worst = 0.0
    # Below n_max = 4 the grid of orders is empty: check n_max itself.
    for n in range(4, min(n_max, 16) + 1, 4) or [n_max]:
        for w in (0.3, 0.5, 0.7):
            config = sim.SimConfig(n=n, w=w, p=0.0, seed=seed,
                                   max_periods=200, tolerance=1e-12)
            probe = np.zeros(n)
            probe[0] = 1.0
            result = sim.run_periodic_gossip(config, probe)
            target = rates.rate_weighted(n, w).rate
            if result.empirical_rate is not None:
                worst = max(worst, abs(result.empirical_rate - target))
    return worst


VERIFY_SUITES = {
    "spectra": (_suite_spectra, 1e-8, "max eigenvalue pairing distance"),
    "charpoly": (_suite_charpoly, 1e-8, "max determinant rel. error"),
    "failure-matrix": (_suite_failure_matrix, 1e-12, "max entry deviation"),
    "simulator": (_suite_simulator, 0.05, "max |empirical - analytic| rate"),
}


def cmd_verify(args) -> int:
    if args.n_max < 3:
        raise SystemExit(f"error: --n-max must be >= 3, got {args.n_max}")
    # The spectra suite solves every order up to n_max; the others cap
    # their own orders.
    if args.scope in ("all", "spectra") and \
            args.n_max > oracle.MAX_SPECTRUM_ORDER:
        raise SystemExit(f"error: --n-max must be <= "
                         f"{oracle.MAX_SPECTRUM_ORDER} for scope "
                         f"{args.scope}, got {args.n_max}")
    scopes = list(VERIFY_SUITES) if args.scope == "all" else [args.scope]
    failed = False
    for scope in scopes:
        suite, tol, label = VERIFY_SUITES[scope]
        worst = suite(args.n_max, args.seed)
        ok = worst <= tol
        failed |= not ok
        print(f"{scope:<16} {label}: {worst:.3e} "
              f"(tolerance {tol:g})  {'PASS' if ok else 'FAIL'}")
    print(f"overall: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


# --- reproduce targets ---------------------------------------------------


def _rows_tuned(ns: list[int]) -> tuple[tuple[str, ...], list[dict]]:
    fields = ("n", "convergence_rate", "optimal_weight")
    grid = rates.default_weight_grid()
    rows = []
    for n in ns:
        w_star, result = rates.optimal_weight(n, grid)
        rows.append({"n": n, "convergence_rate": result.rate,
                     "optimal_weight": w_star})
    return fields, rows


def _rows_table2() -> tuple[tuple[str, ...], list[dict]]:
    fields, rows = _rows_tuned(sorted(TABLE2_REFERENCE))
    for row in rows:
        row.update(reference_rate=TABLE2_REFERENCE[row["n"]],
                   reference_inconsistent=row["n"] in TABLE2_INCONSISTENT)
    return fields + ("reference_rate", "reference_inconsistent"), rows


def _rows_rate(ns: list[int],
               ws: list[float]) -> tuple[tuple[str, ...], list[dict]]:
    fields = ("n", "w", "rate")
    rows = [{"n": n, "w": w, "rate": rates.rate_weighted(n, w).rate}
            for n in ns for w in ws]
    return fields, rows


def _rows_relative_error(ns: list[int]) -> tuple[tuple[str, ...], list[dict]]:
    fields = ("n", "relative_error")
    rows = [{"n": n, "relative_error": rates.relative_error(n)} for n in ns]
    return fields, rows


def _rows_fig7() -> tuple[tuple[str, ...], list[dict]]:
    fields = ("n", "p", "rate")
    # rate_link_failure's rate, with one rates call a row.
    rows = [{"n": n, "p": p,
             "rate": rates.rate_weighted(
                 n, matrices._expected_weight(p=p)).rate}
            for n in (5, 10, 15, 20) for p in _parse_grid("0:1:0.05")]
    return fields, rows


REPRODUCE_TARGETS = {
    "table1": lambda: _rows_tuned(list(range(4, 21))),
    "table2": _rows_table2,
    "fig2": lambda: _rows_rate(list(range(3, 101)), [0.5]),
    "fig3": lambda: _rows_rate([4, 8, 12, 16, 20],
                               _parse_grid("0.05:0.95:0.05")),
    "fig4": lambda: _rows_rate(list(range(100, 1001, 100)),
                               _parse_grid("0.05:0.95:0.05")),
    "fig5": lambda: _rows_relative_error(list(range(4, 101))),
    "fig6": lambda: _rows_relative_error(list(range(100, 1001, 10))),
    "fig7": _rows_fig7,
}


def cmd_reproduce(args) -> int:
    fields, rows = REPRODUCE_TARGETS[args.target]()
    write_rows(rows, fields, args.out, args.format)
    return 0


# --- entry point ----------------------------------------------------------


# Every flag a command may declare.  A command lists only the flags it
# reads, so argparse rejects the rest.
_FLAGS = {
    "--n": dict(type=int, help="node count"),
    "--n-range": dict(type=_parse_int_range, metavar="A:B",
                      help="inclusive node-count range"),
    "--w": dict(type=float, help="gossip weight in (0,1)"),
    "--w-grid": dict(type=_parse_grid, metavar="A:B:STEP",
                     help="inclusive gossip-weight grid"),
    "--p": dict(type=float, help="link failure probability in [0,1]"),
    "--p-grid": dict(type=_parse_grid, metavar="A:B:STEP",
                     help="inclusive failure-probability grid"),
    "--seed": dict(type=_parse_seed, default=0,
                   help="base RNG seed (default 0)"),
    "--trials": dict(type=int, default=1,
                     help="Monte Carlo trials (default 1)"),
    "--max-periods": dict(type=int, default=sim.SimConfig.max_periods,
                          help="period budget per run (default %(default)s)"),
    "--tolerance": dict(type=float, default=sim.SimConfig.tolerance,
                        help="disagreement threshold (default %(default)s)"),
    "--scope": dict(default="all", choices=(*VERIFY_SUITES, "all"),
                    help="suite to run (default all)"),
    "--n-max": dict(type=int, default=30,
                    help="largest order checked (default 30)"),
    "--target": dict(required=True, choices=tuple(sorted(REPRODUCE_TARGETS))),
    "--out": dict(help="output path (default: stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="output format (default csv)"),
}


def _command(sub, name: str, func, help: str, *flags, **defaults) -> None:
    """Add subcommand name with the given _FLAGS entries; a tuple of flags
    becomes a mutually exclusive group.  defaults are set on the parsed
    arguments as they are.  Abbreviations are off, so an undeclared flag
    cannot pass as the prefix of a declared one."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.set_defaults(func=func, **defaults)
    for flag in flags:
        if isinstance(flag, tuple):
            group = parser.add_mutually_exclusive_group()
            for f in flag:
                group.add_argument(f, **_FLAGS[f])
        else:
            parser.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticegossip",
        description="Periodic gossip on path networks: closed-form rates, "
                    "spectra, link-failure analysis, and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    out = ("--out", "--format")
    either_n = "error: provide --n or --n-range"
    _command(sub, "rate", cmd_report, "convergence rate for given n (and w)",
             ("--n", "--n-range"), ("--w", "--w-grid"), *out,
             kind="w", grid=[0.5], missing=either_n)
    _command(sub, "spectrum", cmd_spectrum,
             "analytic vs numeric eigenvalues for one matrix",
             "--n", ("--w", "--p"), *out)
    _command(sub, "sweep-weight", cmd_report, "rate across a weight grid",
             "--n", ("--w", "--w-grid"), *out, kind="w",
             grid=rates.default_weight_grid(),
             missing="error: sweep-weight needs --n")
    _command(sub, "sweep-n", cmd_report, "rate across a node-count range",
             "--n-range", ("--w", "--w-grid"), *out, kind="w", grid=[0.5],
             missing="error: sweep-n needs --n-range")
    _command(sub, "link-failure", cmd_report,
             "rate under Bernoulli link failures",
             ("--n", "--n-range"), ("--p", "--p-grid"), *out,
             kind="p", grid=_parse_grid("0:1:0.1"), missing=either_n)
    _command(sub, "simulate", cmd_simulate, "Monte Carlo empirical rate",
             "--n", "--w", "--p", "--seed", "--trials", "--max-periods",
             "--tolerance", *out)
    _command(sub, "verify", cmd_verify,
             "run the analytic-vs-oracle invariant suites",
             "--scope", "--n-max", "--seed")
    _command(sub, "reproduce", cmd_reproduce,
             "regenerate reference table/figure data", "--target", *out)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise SystemExit(f"error: --out directory {os.path.dirname(out)!r} "
                         f"does not exist")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
