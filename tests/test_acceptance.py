"""End-to-end acceptance suite.

Eight headline guarantees, one test per criterion, each printing a single
pass/fail line with the observed worst case (run with -s or -rP to see the
lines for passing tests):

  1. Closed-form spectra match the numeric eigensolver for every
     n in [3, 100] and every weight on the 0.05 grid (<= 1e-8, under 2 min).
  2. The small-network tuned-rate table (n = 4..20) is reproduced exactly:
     grid-optimal weights match, plateau rates to 1e-6, four-decimal rows
     to their stated tolerances.
  3. The large-network tuned-rate table is reproduced at w = 0.9 within one
     unit of the last printed digit for the self-consistent rows, and the
     five inconsistent reference rows are flagged, not matched.
  4. The relative-error curve is flat: RE(n) in [0.87, 0.91] for all
     n in [100, 1000].
  5. All three characteristic-polynomial closed forms agree with the LU
     determinant at 20 random complex points per configuration, orders up
     to 51, both parities, relative error <= 1e-8.
  6. The expected link-failure matrix equals the exhaustive enumeration to
     1e-12 (n in [3, 10], p on the 0.1 grid), and the closed-form failure
     rate matches the numeric spectral gap to 1e-8 for n in [3, 50].
  7. The simulator's fitted empirical rate lands within 0.05 of the closed
     form for p = 0, n in {4..16}, w in {0.3, 0.5, 0.7}; every run
     conserves the average to 1e-10 and replays bit-identically (< 1 min).
  8. The two hand-solved small spectra are exact to 1e-10 and satisfy
     their trace identities.
"""
import time

import numpy as np
import pytest

from latticegossip.cli import _rows_table2
from latticegossip.matrices import expected_failure_matrix, primitive_gossip_matrix
from latticegossip.oracle import (determinant_shifted,
                                  enumerate_failure_expectation, full_spectrum,
                                  spectral_gap_numeric, spectrum_match_distance)
from latticegossip.pentadiag import (PentaParams, analytic_eigenvalues,
                                     charpoly_bb, charpoly_bb_bd,
                                     charpoly_bd_bd, link_failure_params,
                                     penta_matrix, weighted_gossip_params)
from latticegossip.rates import (default_weight_grid, optimal_weight,
                                 rate_link_failure, rate_weighted,
                                 relative_error)
from latticegossip.sim import SimConfig, run_periodic_gossip

WEIGHT_GRID = [round(0.05 * k, 2) for k in range(1, 20)]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_spectrum_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 101):
        for w in WEIGHT_GRID:
            analytic = analytic_eigenvalues(weighted_gossip_params(n, w))
            numeric = full_spectrum(
                primitive_gossip_matrix(n, w)).eigenvalues
            worst = max(worst, spectrum_match_distance(analytic, numeric))
    elapsed = time.perf_counter() - start
    _report(1, "spectrum equivalence", worst <= 1e-8 and elapsed <= 120.0,
            f"worst pairing distance {worst:.3e}, {elapsed:.1f} s")


TABLE1_REFERENCE = {
    4: (0.8, 0.6), 5: (0.6, 0.7), 6: (0.6, 0.7), 7: (0.6, 0.7),
    8: (0.4, 0.8), 9: (0.4, 0.8), 10: (0.4, 0.8), 11: (0.4, 0.8),
    12: (0.4, 0.8), 13: (0.3034, 0.8), 14: (0.2412, 0.8), 15: (0.2015, 0.8),
    16: (0.2, 0.9), 17: (0.2, 0.9), 18: (0.2, 0.9), 19: (0.2, 0.9),
    20: (0.2, 0.9),
}
TABLE1_RATE_TOL = {13: 1e-3, 14: 5e-4, 15: 5e-4}


def test_criterion_2_small_network_table():
    worst = 0.0
    ok = True
    for n, (ref_rate, ref_weight) in TABLE1_REFERENCE.items():
        w_star, result = optimal_weight(n, default_weight_grid())
        tol = TABLE1_RATE_TOL.get(n, 1e-6)
        err = abs(result.rate - ref_rate)
        worst = max(worst, err - tol)
        ok &= (w_star == ref_weight) and (err <= tol)
    _report(2, "small-network tuned rates", ok,
            f"worst rate excess over tolerance {worst:.3e}")


TABLE2_UNIT = {100: 1e-3, 200: 1e-4, 300: 1e-3, 400: 1e-4, 1000: 1e-4}


def test_criterion_3_large_network_table():
    _, rows = _rows_table2()
    by_n = {row["n"]: row for row in rows}
    ok = True
    worst = 0.0
    for n, unit in TABLE2_UNIT.items():
        row = by_n[n]
        err = abs(row["convergence_rate"] - row["reference_rate"])
        worst = max(worst, err / unit)
        ok &= err <= unit
        ok &= row["optimal_weight"] == 0.9
        ok &= not row["reference_inconsistent"]
    for n in (500, 600, 700, 800, 900):
        ok &= by_n[n]["reference_inconsistent"]
        ok &= by_n[n]["optimal_weight"] == 0.9
    _report(3, "large-network tuned rates", ok,
            f"worst deviation {worst:.3f} units of last printed digit")


def test_criterion_4_relative_error_plateau():
    values = [relative_error(n) for n in range(100, 1001)]
    lo, hi = min(values), max(values)
    _report(4, "relative-error plateau", 0.87 <= lo and hi <= 0.91,
            f"range [{lo:.4f}, {hi:.4f}]")


def test_criterion_5_charpoly_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (3, 4, 5, 6, 13, 14, 27, 28, 50, 51):
        for _ in range(2):
            e, b, c = rng.uniform(0.2, 1.5, size=3)
            d_free = float(rng.uniform(0.2, 1.5))
            lams = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
            for func, corners, d in (
                    (charpoly_bb, ("bb", "bb"), d_free),
                    (charpoly_bb_bd, ("bb", "bd"), d_free),
                    (charpoly_bd_bd, ("bd", "bd"),
                     float(b + c) if n % 2 == 1 else d_free)):
                params = PentaParams(alpha=0.0, beta=0.0, e=float(e),
                                     b=float(b), c=float(c), d=d, n=n)
                matrix = penta_matrix(params, corners)
                for lam in lams:
                    det = determinant_shifted(matrix, lam)
                    err = abs(func(params, lam) - det) / max(1.0, abs(det))
                    worst = max(worst, err)
    _report(5, "characteristic polynomials vs determinant", worst <= 1e-8,
            f"worst relative error {worst:.3e}")


def test_criterion_6_link_failure_exactness():
    worst_entry = 0.0
    for n in range(3, 11):
        for p in np.arange(0.0, 1.001, 0.1):
            exact = enumerate_failure_expectation(n, float(p))
            built = expected_failure_matrix(n, float(p))
            worst_entry = max(worst_entry, float(np.abs(exact - built).max()))
    worst_rate = 0.0
    for n in range(3, 51):
        for p in np.arange(0.0, 1.001, 0.1):
            gap = spectral_gap_numeric(expected_failure_matrix(n, float(p)))
            worst_rate = max(worst_rate,
                             abs(rate_link_failure(n, float(p)).rate - gap))
    _report(6, "link-failure matrix and rate",
            worst_entry <= 1e-12 and worst_rate <= 1e-8,
            f"worst entry {worst_entry:.3e}, worst rate gap {worst_rate:.3e}")


def test_criterion_7_simulator_agreement():
    start = time.perf_counter()
    worst = 0.0
    worst_drift = 0.0
    replayed = True
    for n in range(4, 17):
        probe = np.zeros(n)
        probe[0] = 1.0
        for w in (0.3, 0.5, 0.7):
            config = SimConfig(n=n, w=w, p=0.0, seed=0, max_periods=200)
            result = run_periodic_gossip(config, probe)
            assert result.empirical_rate is not None
            worst = max(worst,
                        abs(result.empirical_rate - rate_weighted(n, w).rate))
            worst_drift = max(worst_drift,
                              abs(np.mean(result.final_states)
                                  - np.mean(probe)))
            again = run_periodic_gossip(config, probe)
            replayed &= (again.disagreement_trace == result.disagreement_trace
                         and np.array_equal(again.final_states,
                                            result.final_states))
    elapsed = time.perf_counter() - start
    _report(7, "simulator agreement",
            worst <= 0.05 and worst_drift <= 1e-10 and replayed
            and elapsed <= 60.0,
            f"worst rate gap {worst:.4f}, worst average drift "
            f"{worst_drift:.2e}, replay {'ok' if replayed else 'BROKEN'}, "
            f"{elapsed:.1f} s")


def test_criterion_8_small_case_exact_spectra():
    ok = True
    worst = 0.0
    for n, expected, trace in ((3, [0.0, 0.25, 1.0], 1.25),
                               (4, [0.0, 0.0, 0.5, 1.0], 1.5)):
        matrix = primitive_gossip_matrix(n, 0.5)
        for eigs in (full_spectrum(matrix).eigenvalues,
                     analytic_eigenvalues(weighted_gossip_params(n, 0.5))):
            got = np.sort(np.real(np.asarray(eigs)))
            err = float(np.abs(got - np.asarray(expected)).max())
            err = max(err, float(np.abs(np.imag(np.asarray(eigs))).max()))
            worst = max(worst, err)
            ok &= err <= 1e-10
        ok &= abs(np.trace(matrix) - trace) <= 1e-12
        ok &= abs(np.sum(np.real(full_spectrum(matrix).eigenvalues)) - trace) \
            <= 1e-10
    _report(8, "small-case exact spectra", ok,
            f"worst eigenvalue deviation {worst:.3e}")
