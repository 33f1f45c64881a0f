"""Tests for the numeric oracles.

Proves:
  1. determinant_shifted evaluates det(A - lambda I) for real and complex
     shifts, and its values at gossip matrices satisfy the three-term
     corner-composition identity built from the closed-form polynomials.
     A NaN or +-inf entry of the matrix, or shift (one or an array), is a
     ValueError naming it, with no warning first; finite input is never
     scanned for them.
  2. full_spectrum returns verified eigenvalues: known small spectra, exact
     conjugate pairing, a small eigenpair residual, one consensus
     eigenvalue, and moduli bounded by 1 for the stochastic families.
  3. enumerate_failure_expectation averages the full failure lattice and
     matches the product construction exactly, within its documented size
     window.
  4. spectral_gap_numeric computes 1 - |lambda_2| for doubly stochastic
     input and rejects anything else, an empty matrix with a clear error.
  5. spectrum_match_distance pairs two spectra greedily and reports the
     worst gap; it pairs a (k, n) stack row by row, and it and
     spectrum_pairing reject inputs of any other shape rather than read
     them as one flat multiset.  Empty spectra give 0.0 and no partners.
  6. eigenvalues (the eigenvalues-only solve) returns the bits of
     full_spectrum's eigenvalues for every n up to 60 on verify's weights,
     and agrees within 1e-12 above that.
  7. The batched enumeration is bit-equal to a per-pattern product loop,
     on every (n, p) of verify's failure-matrix suite, and never goes
     through the period kernel.  An array of p gives the bytes of its
     per-p calls for n = 3..12, 0 and 1 among them, and a p outside
     [0, 1] or NaN anywhere in it is rejected before any product is built.
  8. A (k, n, n) stack solves to the bits of its one-matrix solves, with
     the largest of their residuals (general stacks and verify's
     symmetric and general stacks alike, up to n = 256), below 1e-13 on
     verify's weights up to n = 60; an array of shifts gives the bits of
     its one-shift determinants; a failed solve names the whole input's
     sha256 digest, also when it fails on a matrix's reflection halves;
     the one-matrix entry points still reject a stack.  A NaN or +-inf
     entry in a matrix or a stack is a ValueError naming the non-finite
     entries, from eigenvalues, full_spectrum and (on a matrix)
     spectral_gap_numeric, symmetric input included; finite input is
     never scanned for them.
  9. For w <= 1/2 isospectral_matrix's S1(h) S2(w) S1(h) = W(h)^T W(h)
     stands in for W(w): it runs the three rounds as two periods through
     matrices.apply_period, h on the odd edges of both with
     2h(1 - h) = w within 1 ulp, then w and 0 on the even edges; the
     product is exactly symmetric and doubly stochastic on the installed
     numpy, its symmetric solve agrees with the general solve of the
     whole W(w) within 1e-13, and
     eigenvalues() sends exactly symmetric input, and only that, to the
     symmetric driver; full_spectrum sends symmetric input (one matrix of
     odd or even order, halves or a stack) to np.linalg.eigh once, split
     where it splits, with real eigenvalues and a residual of at most
     1e-14.
     A 1-D array of weights on one side of 1/2 gives the bytes of its
     per-weight calls.  Below 1/2 those are the bytes of a plain-Python
     reference that applies the three rounds to each e_j one IEEE
     operation at a time and takes (M + M^T) / 2 (averaged with its
     rotation at even n), and within 4 ulps of the dense BLAS product
     c.T @ c of c = W(h); its stack is bit-symmetric and, at even n,
     bit-equal to its rotation.
 10. The reflection split, inside both solvers: at even n the period
     matrix is bit-equal to its 180-degree rotation, and the eigenvalues
     of its two half-order blocks together lie within 1e-13 of the whole
     matrix's general solve; spectral_gap_numeric and a stack solve them
     in one call of (2k, n/2, n/2); odd n, an even-order input one ulp off
     its rotation, or a stack that mixes the two, is solved whole, with
     the bits of the whole matrix's np.linalg.eigvals; symmetric input
     gives bit-symmetric halves that reach the symmetric driver;
     isospectral_matrix below 1/2 is bit-equal to its rotation at every
     even n up to 520, so it always splits; the order limit applies to
     the caller's order, not the halves'; an empty matrix or stack is
     a ValueError; and the one block either solver hands the driver is
     reflection_halves of its input, byte for byte.
 11. The w <= 1/2 matrix built from seven seed columns: at every n from 3
     to 600 and at 1000 and 2000, for 0, 1e-300, verify's low weights, and
     1/2 and the float 4 ulps below it, it is bit-symmetric, bit-equal to
     its rotation at even n, exactly zero off its seven central diagonals
     and doubly stochastic within 1e-12, and a stack is the bytes of its
     per-weight calls; the optimal weight 4 ulps either side, which lies
     above 1/2, gives W(w) itself.  A bad weight anywhere in the input is
     rejected before anything is built or the schedule is read, and an
     order below 3 on either side of 1/2.
 12. The residual over the reflection halves stays below 1e-13 at n = 128
     to 512 on both sides of 1/2, and full_spectrum's eigenvalues pair with
     eigenvalues()' within 1e-12.
 13. plane_eigenvalues gives W(w)'s n eigenvalues from its invariant
     planes without building or solving an n x n matrix: within 1e-12 of
     the dense solve of W(w) at n = 511, 512, 1000, 1999 and 2000 on both
     sides of 1/2 and at w = 0 and 1; the consensus eigenvalue 1 once and,
     at even n, the unpaired 1 - 2w once; its solves go through
     eigenvalues(), the even-order Gram to the symmetric driver as its
     reflection halves (C^T C at n = 0 (mod 4), C C^T at n = 2 (mod 4);
     C C^T whole at odd n) and the (m1, 2, 2) planes to the general one;
     an order outside 3..MAX_SPECTRUM_ORDER or a weight outside [0, 1] is
     a ValueError before any solve.
 14. The Gram built from the edge arrays is the bits of the dense products
     C C^T and C^T C for n = 3..300.  At every even n up to 600 and at
     1000, 1002, 1024 and 2000 the kept squared cosines pair with the
     eigenvalues of C C^T within 1e-14, and at n = 0 (mod 4) the one
     eigenvalue of C^T C dropped is below 1e-14; a Gram with no null
     eigenvalue is a RuntimeError.  A 1-D array of weights gives, row for
     row, the entries of the one-weight calls, from one Gram solve and
     one stacked plane solve, at odd n and both even residues, with 0,
     1/2 and 1 mixed in; a bad weight anywhere in it is a ValueError
     before any solve.
 15. plane_eigenvalues, enumerate_failure_expectation and
     isospectral_matrix below 1/2 each take the schedule from
     matrices.optimal_schedule, once a call, for one weight or a stack.
 16. The rate from the top plane, _plane_rates: the Newton solve's top
     squared cosine lies within 8 ulps of the dense Gram solve's at every
     n up to 64 and at sampled n up to 2000, in at most 10 strictly
     falling steps; it is exact at n = 3 and 4 (a 1 x 1 Gram) and 6, where
     Gershgorin's bound is the eigenvalue and the last pivot is exactly 0;
     the Sturm count takes a zero pivot as negative and matches the dense
     count; the Gram's bands are the dense Gram's, and a Gram with a term
     off its three diagonals is a RuntimeError; a wrong top value (the
     second cosine, 1e-9 either side, above every eigenvalue) is a
     RuntimeError.  The rate of a stack of weights is, entry for entry,
     that of one-weight calls and within 1e-12 of 1 - |lambda_2| of
     plane_eigenvalues, from one (k, 2, 2) solve and no Gram solve or
     n x n build; a bad order or weight is a ValueError before any solve.
     At the top plane's double root the rate agrees with plane_eigenvalues,
     the dense solve and the closed form within 1e-7, the square root of
     the few ulps between the two top cosines.
"""
import hashlib
import math
import warnings

import numpy as np
import pytest

from latticegossip import cli, matrices, oracle
from latticegossip.matrices import (expected_failure_matrix, optimal_schedule,
                                    pair_update_matrix, primitive_gossip_matrix)
from latticegossip.oracle import (MAX_SPECTRUM_ORDER, determinant_shifted,
                                  eigenvalues, enumerate_failure_expectation,
                                  full_spectrum, isospectral_matrix,
                                  reflection_halves, spectral_gap_numeric,
                                  spectrum_match_distance, spectrum_pairing)
from latticegossip.pentadiag import (PentaParams, charpoly_bb, charpoly_bb_bd,
                                     charpoly_bd_bd, penta_matrix,
                                     weighted_gossip_params)
from latticegossip.rates import rate_weighted

# --- shifted determinants ------------------------------------------------------


def test_determinant_identity():
    assert determinant_shifted(np.eye(3), 0.0) == pytest.approx(1.0)


def test_determinant_vanishes_at_consensus_eigenvalue():
    m = primitive_gossip_matrix(3, 0.5)
    assert abs(determinant_shifted(m, 1.0)) < 1e-12


def test_determinant_matches_corner_composition():
    # det(A(alpha, beta) - lambda I) decomposes over the corner-free,
    # one-corner, and two-corner polynomials two orders down.
    n, w, lam = 5, 0.7, 0.3 + 0.1j
    gp = weighted_gossip_params(n, w)
    b = gp.b

    def core(order):
        return PentaParams(alpha=0.0, beta=0.0, e=gp.e, b=gp.b, c=gp.c,
                           d=gp.d, n=order)

    composed = (charpoly_bd_bd(core(n), lam)
                + 2 * b * charpoly_bb_bd(core(n - 1), lam)
                + b * b * charpoly_bb(core(n - 2), lam))
    direct = determinant_shifted(primitive_gossip_matrix(n, w), lam)
    assert abs(composed - direct) / abs(direct) < 1e-8


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant_shifted(np.ones((2, 3)), 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shifts", [0.5, np.array([0.5, 0.3 + 0.1j])],
                         ids=["scalar", "array"])
def test_non_finite_determinant_input_is_a_value_error(value, shifts):
    # A non-finite entry of the matrix, or a non-finite shift, is named,
    # as the solvers name theirs, with no numeric warning before it.
    matrix = with_entries(np.full((3, 3), 0.25), [(0, 1), (2, 2)], value)
    bad_shifts = np.array(shifts, dtype=complex)
    bad_shifts.reshape(-1)[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            determinant_shifted(matrix, shifts)
        with pytest.raises(ValueError) as shift_info:
            determinant_shifted(np.eye(3), bad_shifts)
    message = str(info.value)
    assert "2 non-finite entries" in message
    assert f"{value} at (0, 1)" in message and f"{value} at (2, 2)" in message
    assert "1 non-finite entries" in str(shift_info.value)


def test_finite_determinants_never_scan_their_input(monkeypatch):
    def must_not_run(m):
        raise AssertionError("finite input scanned for non-finite entries")

    monkeypatch.setattr(oracle, "_reject_non_finite", must_not_run)
    m = penta_matrix(PentaParams(alpha=0.0, beta=0.0, e=0.3, b=-0.7, c=1.1,
                                 d=0.4, n=9), ("bb", "bd"))
    determinant_shifted(m, 0.3 + 0.1j)
    determinant_shifted(m, np.array([0.5, -1.0 + 2.0j]))


# --- full spectra ----------------------------------------------------------------


def test_spectrum_of_a_swap():
    spec = full_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sorted(np.real(spec.eigenvalues)) == pytest.approx([-1.0, 1.0])


def test_spectrum_four_nodes_half_weight():
    spec = full_spectrum(primitive_gossip_matrix(4, 0.5))
    got = sorted(float(np.real(v)) for v in spec.eigenvalues)
    assert got == pytest.approx([0.0, 0.0, 0.5, 1.0], abs=1e-10)


def test_spectrum_four_nodes_complex_pair():
    spec = full_spectrum(primitive_gossip_matrix(4, 0.6))
    complex_vals = [v for v in spec.eigenvalues if abs(np.imag(v)) > 1e-12]
    assert len(complex_vals) == 2
    assert complex_vals[0] == np.conj(complex_vals[1])
    assert abs(complex_vals[0]) == pytest.approx(0.2, abs=1e-8)


@pytest.mark.parametrize("n", [3, 8, 20, 50])
def test_spectrum_residual_is_small(n):
    spec = full_spectrum(primitive_gossip_matrix(n, 0.7))
    assert spec.residual < 1e-10
    assert len(spec.eigenvalues) == n


def test_spectrum_residual_bound_at_large_order():
    assert full_spectrum(primitive_gossip_matrix(500, 0.9)).residual < 1e-8


@pytest.mark.parametrize("n", [3, 6, 15, 40])
@pytest.mark.parametrize("w", [0.25, 0.5, 0.9])
def test_spectrum_has_one_consensus_eigenvalue_and_bounded_moduli(n, w):
    eigs = np.asarray(full_spectrum(primitive_gossip_matrix(n, w)).eigenvalues)
    assert np.sum(np.abs(eigs - 1.0) < 1e-8) == 1
    assert np.abs(eigs).max() <= 1 + 1e-10


@pytest.mark.parametrize("n", [5, 12, 23])
def test_determinant_vanishes_on_computed_eigenvalues(n):
    m = primitive_gossip_matrix(n, 0.7)
    for lam in full_spectrum(m).eigenvalues:
        assert abs(determinant_shifted(m, lam)) < 1e-6


def test_spectrum_order_cap():
    with pytest.raises(ValueError):
        full_spectrum(np.eye(MAX_SPECTRUM_ORDER + 1))


# --- exhaustive failure enumeration -----------------------------------------------


def test_enumeration_p_zero_is_plain_average():
    exact = enumerate_failure_expectation(3, 0.0)
    assert np.allclose(exact, primitive_gossip_matrix(3, 0.5),
                       atol=1e-15)


def test_enumeration_half_failure_top_corner():
    assert enumerate_failure_expectation(4, 0.5)[0, 0] == pytest.approx(0.75)


def test_enumeration_matches_expected_matrix():
    exact = enumerate_failure_expectation(6, 0.3)
    built = expected_failure_matrix(6, 0.3)
    assert np.abs(exact - built).max() < 1e-12


def test_enumeration_size_window():
    with pytest.raises(ValueError):
        enumerate_failure_expectation(13, 0.5)
    with pytest.raises(ValueError):
        enumerate_failure_expectation(2, 0.5)


def test_enumeration_rejects_bad_probability():
    with pytest.raises(ValueError):
        enumerate_failure_expectation(5, 1.5)


# --- numeric spectral gap -----------------------------------------------------------


def test_gap_three_nodes_half_weight():
    assert spectral_gap_numeric(primitive_gossip_matrix(3, 0.5)) == \
        pytest.approx(0.75, abs=1e-12)


def test_gap_of_identity_is_zero():
    assert spectral_gap_numeric(np.eye(5)) == pytest.approx(0.0, abs=1e-12)


def test_gap_hundred_nodes_tuned_weight():
    gap = spectral_gap_numeric(primitive_gossip_matrix(100, 0.9))
    assert gap == pytest.approx(0.009, abs=5e-4)


def test_gap_rejects_non_stochastic_input():
    with pytest.raises(ValueError):
        spectral_gap_numeric(np.array([[0.5, 0.2], [0.5, 0.8]]))


def test_gap_rejects_empty_input_before_the_stochastic_check():
    with pytest.raises(ValueError, match="nonempty"):
        spectral_gap_numeric(np.zeros((0, 0)))


# --- spectrum pairing ----------------------------------------------------------------


def test_match_distance_zero_for_identical_sets():
    eigs = full_spectrum(primitive_gossip_matrix(7, 0.4)).eigenvalues
    assert spectrum_match_distance(eigs, list(eigs)) == 0.0


def test_match_distance_reports_known_shift():
    a = [0.0, 1.0, 2.0]
    b = [0.0, 1.0, 2.5]
    assert spectrum_match_distance(a, b) == pytest.approx(0.5)


def test_match_distance_is_permutation_invariant():
    a = [1.0, 0.5 + 0.2j, 0.5 - 0.2j, -0.1]
    rng = np.random.default_rng(0)
    shuffled = list(a)
    rng.shuffle(shuffled)
    assert spectrum_match_distance(a, shuffled) < 1e-15


def test_match_distance_rejects_size_mismatch():
    with pytest.raises(ValueError):
        spectrum_match_distance([1.0, 2.0], [1.0])


def test_match_distance_pairs_a_stack_row_by_row():
    # As one multiset of four values the two stacks are equal.  Row by row
    # the greedy pairs 1 with 5, then 0 with 6.
    assert spectrum_match_distance([[0, 1], [5, 6]], [[5, 6], [0, 1]]) == 6.0
    assert spectrum_match_distance([[0, 1], [5, 6]], [[1, 0], [6, 5.5]]) == 0.5


@pytest.mark.parametrize("a, b", [
    (np.zeros((2, 3)), np.zeros((3, 2))),
    (np.zeros((2, 3)), np.zeros(6)),
    (np.zeros((1, 3)), np.zeros(3)),
    (np.zeros((1, 2, 2)), np.zeros((1, 2, 2))),
    (1.0, 1.0),
], ids=["transposed", "stack-vs-flat", "one-row-vs-flat", "3-d", "scalars"])
def test_match_distance_rejects_anything_but_spectra_or_stacks(a, b):
    with pytest.raises(ValueError, match="expected two 1-D spectra"):
        spectrum_match_distance(a, b)


@pytest.mark.parametrize("a, b", [
    (np.zeros((2, 3)), np.zeros((2, 3))),
    (np.zeros(3), np.zeros(2)),
    (np.zeros((1, 3)), np.zeros(3)),
    (1.0, 1.0),
], ids=["stacks", "lengths", "one-row-vs-flat", "scalars"])
def test_pairing_rejects_anything_but_two_spectra(a, b):
    with pytest.raises(ValueError, match="expected two 1-D spectra"):
        spectrum_pairing(a, b)


def test_empty_spectra_pair_to_nothing():
    assert spectrum_match_distance([], []) == 0.0
    assert spectrum_match_distance(np.zeros((0, 4)), np.zeros((0, 4))) == 0.0
    assert spectrum_match_distance(np.zeros((3, 0)), np.zeros((3, 0))) == 0.0
    partner = spectrum_pairing([], [])
    assert partner.shape == (0,) and partner.dtype.kind == "i"


# --- eigenvalues-only solve --------------------------------------------------------

# verify's spectra weights: the w-grid and the link-failure weights (1-p)/2.
WEIGHTS = sorted({round(0.05 * k, 12) for k in range(1, 20)}
                 | {(1.0 - round(0.1 * k, 12)) / 2.0 for k in range(11)})


def test_eigenvalues_are_full_spectrum_bits_up_to_n_60():
    for n in range(3, 61):
        for w in WEIGHTS:
            m = primitive_gossip_matrix(n, w)
            assert np.array_equal(eigenvalues(m), full_spectrum(m).eigenvalues), \
                (n, w)


@pytest.mark.parametrize("n", [127, 224, 512])
def test_eigenvalues_match_full_spectrum_at_large_n(n):
    m = primitive_gossip_matrix(n, 0.3)
    assert spectrum_match_distance(eigenvalues(m),
                                   full_spectrum(m).eigenvalues) <= 1e-12


def test_eigenvalues_order_cap():
    with pytest.raises(ValueError):
        eigenvalues(np.eye(MAX_SPECTRUM_ORDER + 1))


# --- batched enumeration against the per-pattern loop ------------------------------


def per_mask_expectation(n, p):
    """The enumeration one failure pattern at a time: bit k of the mask
    fails path edge (k+1, k+2), and the pair matrices multiply in schedule
    order."""
    schedule = [tuple(pair)
                for pair in np.concatenate(optimal_schedule(n)).tolist()]
    edges = [(i, i + 1) for i in range(1, n)]
    pair_mats = {pair: pair_update_matrix(n, pair, 0.5) for pair in schedule}
    total = np.zeros((n, n))
    for mask in range(1 << (n - 1)):
        failed = {edges[k] for k in range(n - 1) if mask >> k & 1}
        weight = p ** len(failed) * (1.0 - p) ** (n - 1 - len(failed))
        if weight == 0.0:
            continue
        period = np.eye(n)
        for pair in schedule:
            if pair not in failed:
                period = pair_mats[pair] @ period
        total += weight * period
    return total


# n up to 10 and the p grid of verify's failure-matrix suite.
@pytest.mark.parametrize("p", cli._parse_grid("0:1:0.1"))
@pytest.mark.parametrize("n", range(3, 11))
def test_enumeration_is_bit_equal_to_per_mask_loop(monkeypatch, n, p):
    def must_not_run(*args, **kwargs):
        raise AssertionError("enumeration went through apply_period")

    monkeypatch.setattr(matrices, "apply_period", must_not_run)
    assert np.array_equal(enumerate_failure_expectation(n, p),
                          per_mask_expectation(n, p))


# --- stacked solves and arrays of shifts ---------------------------------------------

# verify's 22 spectra weights, computed exactly as the suite computes them.
VERIFY_WEIGHTS = sorted(set(cli._parse_grid("0.05:0.95:0.05"))
                        | {(1.0 - p) / 2.0
                           for p in cli._parse_grid("0:0.9:0.1")})


def gossip_stack(n, weights=VERIFY_WEIGHTS):
    return np.stack([primitive_gossip_matrix(n, w) for w in weights])


def test_stacked_solves_are_the_bits_of_one_matrix_solves_up_to_n_60():
    for n in range(3, 61):
        stack = gossip_stack(n)
        full = full_spectrum(stack).eigenvalues
        only = eigenvalues(stack)
        assert full.shape == only.shape == (len(VERIFY_WEIGHTS), n)
        for k, m in enumerate(stack):
            assert np.array_equal(full[k], full_spectrum(m).eigenvalues), \
                (n, VERIFY_WEIGHTS[k])
            assert np.array_equal(only[k], eigenvalues(m)), \
                (n, VERIFY_WEIGHTS[k])


def isospectral_stacks(n):
    """verify's spectra stacks at order n: isospectral_matrix of its
    weights up to 1/2 (symmetric) and above (general)."""
    return [np.stack([isospectral_matrix(n, w) for w in group])
            for group in ([w for w in VERIFY_WEIGHTS if w <= 0.5],
                          [w for w in VERIFY_WEIGHTS if w > 0.5])]


@pytest.mark.parametrize("n", [3, 4, 12, 33, 60, 128, 256])
def test_stack_residual_is_the_largest_one_matrix_residual(n):
    for stack in [gossip_stack(n)] + isospectral_stacks(n):
        assert full_spectrum(stack).residual == \
            max(full_spectrum(m).residual for m in stack)


def test_stack_residual_is_below_1e_13_on_verify_grid_up_to_n_60():
    for n in range(3, 61):
        for stack in [gossip_stack(n)] + isospectral_stacks(n):
            assert full_spectrum(stack).residual < 1e-13, n


# --- enumeration over an array of probabilities -------------------------------------

ENUMERATION_PS = [0.0, 1.0] + cli._parse_grid("0.05:0.95:0.15") + [1e-300]


@pytest.mark.parametrize("n", range(3, 13))
def test_enumeration_of_a_p_array_is_the_bytes_of_per_p_calls(n):
    stack = enumerate_failure_expectation(n, np.array(ENUMERATION_PS))
    assert stack.shape == (len(ENUMERATION_PS), n, n)
    for p, exact in zip(ENUMERATION_PS, stack):
        assert exact.tobytes() == \
            enumerate_failure_expectation(n, p).tobytes(), p


@pytest.mark.parametrize("ps", [[0.5, 1.5], [-0.1], [0.2, math.nan], 2.0,
                                math.nan, -1e-300])
def test_enumeration_rejects_a_bad_p_before_any_product(monkeypatch, ps):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a product was built before p was checked")

    monkeypatch.setattr(matrices, "optimal_schedule", must_not_run)
    monkeypatch.setattr(matrices, "pair_update_matrix", must_not_run)
    with pytest.raises(ValueError, match="must lie in"):
        enumerate_failure_expectation(6, ps)


@pytest.mark.parametrize("shape", [(1, MAX_SPECTRUM_ORDER + 1,
                                    MAX_SPECTRUM_ORDER + 1), (2, 3, 4)],
                         ids=["order-cap", "not-square"])
def test_stack_shape_is_checked(shape):
    with pytest.raises(ValueError):
        full_spectrum(np.zeros(shape))


@pytest.mark.parametrize("n", [5, 6, 13, 28, 51])
def test_array_of_shifts_is_the_bits_of_one_shift_determinants(n):
    rng = np.random.default_rng(n)
    a = PentaParams(alpha=0.0, beta=0.0, e=0.3, b=-0.7, c=1.1, d=0.4, n=n)
    m = penta_matrix(a, ("bb", "bd"))
    lams = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
    dets = determinant_shifted(m, lams)
    assert dets.shape == lams.shape
    for i in range(lams.size):
        one = determinant_shifted(m, lams[i])
        assert isinstance(one, complex)
        assert dets[i] == one


@pytest.mark.parametrize("entry", [spectral_gap_numeric,
                                   lambda a: determinant_shifted(a, 0.5)],
                         ids=["spectral_gap_numeric", "determinant_shifted"])
def test_one_matrix_entry_points_reject_a_stack(entry):
    with pytest.raises(ValueError):
        entry(gossip_stack(4, [0.3, 0.5]))


# (input, the message's name for it, the driver call that fails, id
# suffix).  At n = 256, W(0.8) is solved as its (2, 128, 128) halves, and
# the message names the matrix passed in.
FAILED_SOLVES = [
    (gossip_stack(5, [0.3, 0.6, 0.9]), "stack of 3 5x5 matrices", 1, ""),
    (primitive_gossip_matrix(256, 0.8), "256x256 matrix", 1, "-halves"),
]


@pytest.mark.parametrize("solver, entry, stack, what, fails_at", [
    pytest.param(solver, entry, stack, what, fails_at,
                 id=f"{solver}-{entry.__name__}{suffix}")
    for stack, what, fails_at, suffix in FAILED_SOLVES
    for solver, entry in [("eig", full_spectrum), ("eigvals", eigenvalues)]
])
def test_failed_stack_solve_names_a_sha256_fingerprint(monkeypatch, solver,
                                                       entry, stack, what,
                                                       fails_at):
    solve = getattr(np.linalg, solver)
    calls = []

    def fail(m):
        calls.append(m.shape)
        if len(calls) == fails_at:
            raise np.linalg.LinAlgError("no convergence")
        return solve(m)

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(RuntimeError) as info:
        entry(stack)
    assert len(calls) == fails_at
    assert hashlib.sha256(stack.tobytes()).hexdigest()[:16] in str(info.value)
    assert what in str(info.value)


def with_entries(a, index_pairs, value):
    a = np.array(a)
    for index in index_pairs:
        a[index] = value
    return a


# (input with a non-finite value at each index, those indices).  A
# symmetric matrix reaches the symmetric driver, which raises nothing on
# inf; a stack names the matrix as its first index.
NON_FINITE_INPUTS = [
    (lambda v: with_entries(np.full((4, 4), 0.25), [(0, 1), (1, 0)], v),
     [(0, 1), (1, 0)]),
    (lambda v: with_entries(gossip_stack(5, [0.3, 0.6]), [(1, 2, 3)], v),
     [(1, 2, 3)]),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry, make, where", [
    pytest.param(entry, make, where, id=f"{entry.__name__}-{kind}")
    for (make, where), kind in zip(NON_FINITE_INPUTS, ["matrix", "stack"])
    for entry in (eigenvalues, full_spectrum, spectral_gap_numeric)
    if kind == "matrix" or entry is not spectral_gap_numeric
])
def test_non_finite_input_is_a_value_error_naming_its_entries(entry, make,
                                                              where, value):
    with pytest.raises(ValueError) as info:
        entry(make(value))
    message = str(info.value)
    assert f"{len(where)} non-finite entries" in message
    for index in where:
        assert f"{value} at {index}" in message


def test_finite_input_is_never_scanned_for_non_finite_entries(monkeypatch):
    def must_not_run(m):
        raise AssertionError("finite input scanned for non-finite entries")

    monkeypatch.setattr(oracle, "_reject_non_finite", must_not_run)
    eigenvalues(gossip_stack(6, [0.3, 0.8]))
    full_spectrum(isospectral_matrix(7, [0.2, 0.4]))
    oracle.plane_eigenvalues(64, [0.3, 0.8])


# --- symmetric oracle matrix for w <= 1/2 --------------------------------------------

LOW_WEIGHTS = [w for w in VERIFY_WEIGHTS if w <= 0.5]


@pytest.mark.parametrize("w", [0.0, 1e-300, 1e-12] + LOW_WEIGHTS)
def test_root_weight_solves_the_pair_square(monkeypatch, w):
    # The rounds S1(h), S2(w), S1(h) run as two periods through the
    # module's kernel: h on the odd (e1) edges of both, then w and 0 on
    # the even (e2) edges.
    periods, kernel = [], matrices.apply_period

    def applying(x, weights):
        periods.append(np.array(weights, dtype=float).reshape(-1))
        return kernel(x, weights)

    monkeypatch.setattr(matrices, "apply_period", applying)
    isospectral_matrix(6, w)
    first, second = periods
    for h in np.concatenate([first[1::2], second[1::2]]).tolist():
        assert 0.0 <= h <= 0.5
        assert abs(2.0 * h * (1.0 - h) - w) <= math.ulp(w)
    assert first[0::2].tolist() == [w] * 3
    assert second[0::2].tolist() == [0.0] * 3


def test_oracle_matrix_is_exactly_symmetric_and_doubly_stochastic():
    # Every weight at n <= 60, then one weight per order, in turn, up to
    # past the report path's largest order.
    for n in range(3, 521):
        ones = np.ones(n)
        for w in (LOW_WEIGHTS if n <= 60
                  else [LOW_WEIGHTS[n % len(LOW_WEIGHTS)]]):
            g = isospectral_matrix(n, w)
            assert np.array_equal(g, g.T), (n, w)
            assert np.abs(g @ ones - ones).max() <= 1e-12, (n, w)


def test_oracle_matrix_has_the_spectrum_of_w_up_to_n_60():
    for n in range(3, 61):
        for w in LOW_WEIGHTS:
            gram = eigenvalues(isospectral_matrix(n, w))
            assert gram.dtype == float
            assert spectrum_match_distance(gram, np.linalg.eigvals(
                primitive_gossip_matrix(n, w))) <= 1e-13, (n, w)


@pytest.mark.parametrize("n", [127, 224, 512])
@pytest.mark.parametrize("w", [0.05, 0.1, 0.3, 0.5])
def test_oracle_matrix_has_the_spectrum_of_w_at_large_n(n, w):
    assert spectrum_match_distance(
        eigenvalues(isospectral_matrix(n, w)),
        np.linalg.eigvals(primitive_gossip_matrix(n, w))) <= 1e-13


def plain_rounds(n, w):
    """isospectral_matrix below 1/2 in plain Python floats: the rounds
    S1(h), S2(w), S1(h) applied to each e_j one IEEE operation at a time,
    pair (i, i+1) to (a(1 - v) + bv, b(1 - v) + av), then (M + M^T) / 2,
    averaged with its rotation at even n.  It uses neither the period
    kernel nor BLAS."""
    h = w / (1.0 + math.sqrt(1.0 - 2.0 * w))
    m = np.zeros((n, n))
    for j in range(n):
        x = [0.0] * n
        x[j] = 1.0
        for first, v in ((1, h), (0, w), (1, h)):
            for i in range(first, n - 1, 2):
                a, b = x[i], x[i + 1]
                x[i], x[i + 1] = a * (1 - v) + b * v, b * (1 - v) + a * v
        m[:, j] = x
    g = (m + m.T) / 2
    return g if n % 2 else (g + g[::-1, ::-1]) / 2


def dense_gram(n, w):
    """isospectral_matrix below 1/2 as first written: the dense BLAS
    product c.T @ c of the identity build, averaged with its rotation at
    even n."""
    c = matrices.apply_period(np.eye(n), w / (1.0 + math.sqrt(1.0 - 2.0 * w)))
    g = c.T @ c
    return g if n % 2 else (g + g[::-1, ::-1]) / 2


def within_ulps(a, b, ulps=4):
    """Whether a and b agree entrywise within ulps units in the last place
    of the larger magnitude."""
    return bool((np.abs(a - b) <= ulps * np.spacing(
        np.maximum(np.abs(a), np.abs(b)))).all())


@pytest.mark.parametrize("n", list(range(3, 41)) + [64, 127, 128, 255, 256])
def test_oracle_stacks_are_the_bytes_of_per_weight_calls(n):
    for group in ([0.0, 1e-300] + LOW_WEIGHTS,
                  [w for w in VERIFY_WEIGHTS if w > 0.5] + [1.0]):
        stack = isospectral_matrix(n, np.array(group))
        assert stack.shape == (len(group), n, n)
        for w, m in zip(group, stack):
            one = isospectral_matrix(n, w)
            assert m.tobytes() == one.tobytes(), (n, w)
            if w <= 0.5:
                assert one.tobytes() == plain_rounds(n, w).tobytes(), (n, w)
                assert within_ulps(one, dense_gram(n, w)), (n, w)
        if max(group) <= 0.5:
            assert np.array_equal(stack, stack.swapaxes(-1, -2))
            if n % 2 == 0:
                assert np.array_equal(stack, stack[..., ::-1, ::-1])


# --- the w <= 1/2 matrix from seven seed columns -----------------------------------


def ulps_away(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def band_weight_groups(n):
    """0, 1e-300, verify's low weights, and 1/2 with the float 4 ulps below
    it, all built from seven seed columns; then the optimal weight 1/(1 + sin(pi/n))
    4 ulps either side, which lies above 1/2 at every n >= 3 and so gives
    W(w) itself."""
    w_star = 1.0 / (1.0 + math.sin(math.pi / n))
    return ([0.0, 1e-300] + LOW_WEIGHTS + [ulps_away(0.5, -4), 0.5],
            [ulps_away(w_star, -4), ulps_away(w_star, 4)])


def chunks(weights, n, limit=4 << 20):
    """weights in runs of at most limit bytes of n x n matrices."""
    per = max(1, limit // (8 * n * n))
    return [weights[i:i + per] for i in range(0, len(weights), per)]


def bits(m):
    return m.view(np.int64)


def diagonal_bits(m, d):
    return bits(m).diagonal(d, axis1=-2, axis2=-1)


@pytest.mark.parametrize("ns", [range(lo, min(lo + 100, 601))
                                for lo in range(3, 601, 100)]
                         + [[1000, 2000]], ids=lambda ns: f"{ns[0]}-{ns[-1]}")
def test_band_build_is_symmetric_banded_stochastic_and_splits(ns):
    # With every nonzero bit pattern on the seven central diagonals, the
    # matrix is bit-symmetric if diagonals d and -d are, and bit-equal to
    # its rotation if, besides, each diagonal equals its reverse.
    for n in ns:
        low, high = band_weight_groups(n)
        for chunk in chunks(low, n):
            stack = isospectral_matrix(n, np.array(chunk))
            for w, m in zip(chunk, stack):
                one = isospectral_matrix(n, w)
                assert np.array_equal(bits(m), bits(one)), (n, w)
            on_band = sum(np.count_nonzero(diagonal_bits(stack, d))
                          for d in range(-3, 4))
            assert np.count_nonzero(bits(stack)) == on_band, n
            for d in range(1, 4):
                assert np.array_equal(diagonal_bits(stack, d),
                                      diagonal_bits(stack, -d)), (n, d)
            if n % 2 == 0:
                for d in range(4):
                    upper = diagonal_bits(stack, d)
                    assert np.array_equal(upper, upper[:, ::-1]), (n, d)
            # Bit-symmetric, so the column sums are the row sums.
            assert np.abs(stack.sum(axis=-1) - 1.0).max() <= 1e-12, n
        stack = isospectral_matrix(n, np.array(high))
        assert np.array_equal(stack,
                              primitive_gossip_matrix(n, np.array(high)))
        for w, m in zip(high, stack):
            one = isospectral_matrix(n, w)
            assert np.array_equal(bits(m), bits(one)), (n, w)


@pytest.mark.parametrize("value", [[0.3, math.nan], [0.3, -1e-300], [0.3, 0.7],
                                   [[0.3]], 1.5, math.nan])
def test_band_weights_are_checked_before_any_build(monkeypatch, value):
    def must_not_run(*args, **kwargs):
        raise AssertionError("built before every weight was checked")

    for name in ("primitive_gossip_matrix", "apply_period",
                 "_seed_diagonals", "_write_diagonal", "optimal_schedule"):
        monkeypatch.setattr(matrices, name, must_not_run)
    with pytest.raises(ValueError, match="must lie in|must be a scalar|"
                                         "one side of 1/2"):
        isospectral_matrix(8, value)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("w", [0.3, 0.8])
def test_oracle_matrix_needs_three_nodes(n, w):
    with pytest.raises(ValueError, match="needs n >= 3"):
        isospectral_matrix(n, w)


def test_oracle_matrix_above_half_is_the_period_matrix():
    assert np.array_equal(isospectral_matrix(9, 0.8),
                          primitive_gossip_matrix(9, 0.8))


@pytest.mark.parametrize("symmetric", [True, False])
def test_only_exactly_symmetric_input_takes_the_symmetric_driver(monkeypatch,
                                                                 symmetric):
    calls = []

    def recorded(name):
        solver = getattr(np.linalg, name)

        def solve(m):
            calls.append(name)
            return solver(m)
        return solve

    for name in ("eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recorded(name))
    g = isospectral_matrix(7, 0.3)
    if not symmetric:
        g = g.copy()
        g[0, 1] = np.nextafter(g[0, 1], 1.0)
    eigenvalues(np.stack([g, g]))
    assert calls == ["eigvalsh" if symmetric else "eigvals"]


@pytest.mark.parametrize("m, solved", [
    (isospectral_matrix(7, 0.3), (7, 7)),
    (isospectral_matrix(12, 0.3), (2, 6, 6)),
    (reflection_halves(isospectral_matrix(12, 0.3)), (2, 6, 6)),
    (np.stack([isospectral_matrix(9, w) for w in LOW_WEIGHTS]),
     (len(LOW_WEIGHTS), 9, 9)),
    (np.stack([isospectral_matrix(10, w) for w in LOW_WEIGHTS]),
     (2 * len(LOW_WEIGHTS), 5, 5)),
], ids=["odd", "even", "halves", "stack", "even-stack"])
def test_full_spectrum_sends_symmetric_input_to_eigh_once(monkeypatch, m,
                                                          solved):
    calls = record_solves(monkeypatch, ("eigh", "eig"))
    spectrum = full_spectrum(m)
    assert calls == [("eigh", solved)]
    assert spectrum.eigenvalues.dtype == float
    assert spectrum.eigenvalues.shape == m.shape[:-1]
    assert spectrum.residual <= 1e-14


# --- reflection split for even n -----------------------------------------------------


# eigenvalues() splits what splits, so the references below solve the whole
# matrix with numpy directly.


def test_halves_have_the_spectrum_of_w_up_to_n_60():
    for n in range(4, 61):
        for w in VERIFY_WEIGHTS:
            m = primitive_gossip_matrix(n, w)
            halves = reflection_halves(m)
            if n % 2 == 0:
                assert np.array_equal(m, m[::-1, ::-1]), (n, w)
                assert halves.shape == (2, n // 2, n // 2), (n, w)
            assert spectrum_match_distance(
                eigenvalues(m), np.linalg.eigvals(m)) <= 1e-13, (n, w)


@pytest.mark.parametrize("n", [128, 224, 320, 416, 512])
@pytest.mark.parametrize("w", [0.55, 0.8, 0.95])
def test_halves_have_the_spectrum_of_w_at_large_n(n, w):
    m = primitive_gossip_matrix(n, w)
    assert reflection_halves(m).shape == (2, n // 2, n // 2)
    assert spectrum_match_distance(eigenvalues(m),
                                   np.linalg.eigvals(m)) <= 1e-13


def test_oracle_matrix_below_half_is_its_own_rotation_at_even_n():
    # Every weight at n <= 60, then one weight per order, in turn, up to
    # past the report path's largest order.
    for n in range(3, 521):
        for w in (LOW_WEIGHTS if n <= 60
                  else [LOW_WEIGHTS[n % len(LOW_WEIGHTS)]]):
            g = isospectral_matrix(n, w)
            assert np.array_equal(g, g.T), (n, w)
            if n % 2 == 0:
                assert np.array_equal(g, g[::-1, ::-1]), (n, w)
                assert reflection_halves(g).shape == (2, n // 2, n // 2)


def record_solves(monkeypatch, names=("eigvalsh", "eigvals")):
    """Patch the named drivers (by default both eigenvalues-only ones) to
    log (name, input shape) and solve."""
    calls = []

    def recorded(name):
        solver = getattr(np.linalg, name)

        def solve(m):
            calls.append((name, m.shape))
            return solver(m)
        return solve

    for name in names:
        monkeypatch.setattr(np.linalg, name, recorded(name))
    return calls


@pytest.mark.parametrize("n", [4, 6, 12, 60, 128])
def test_gap_solves_one_half_order_stack_at_even_n(monkeypatch, n):
    calls = record_solves(monkeypatch)
    spectral_gap_numeric(primitive_gossip_matrix(n, 0.8))
    assert calls == [("eigvals", (2, n // 2, n // 2))]


@pytest.mark.parametrize("n", [3, 5, 9, 33, 61])
@pytest.mark.parametrize("w", [0.3, 0.8])
def test_odd_order_is_solved_whole_with_the_bits_of_eigenvalues(monkeypatch,
                                                                 n, w):
    m = primitive_gossip_matrix(n, w)
    assert reflection_halves(m) is m
    whole = np.linalg.eigvals(m)
    calls = record_solves(monkeypatch)
    assert np.array_equal(eigenvalues(m), whole)
    spectral_gap_numeric(m)
    assert calls == [("eigvals", (n, n))] * 2


@pytest.mark.parametrize("n", [4, 10, 64])
def test_one_ulp_off_the_rotation_is_solved_whole(n):
    m = primitive_gossip_matrix(n, 0.8)
    m[0, 1] = np.nextafter(m[0, 1], 1.0)
    assert reflection_halves(m) is m
    assert np.array_equal(eigenvalues(m), np.linalg.eigvals(m))


@pytest.mark.parametrize("entry", [eigenvalues,
                                   lambda a: full_spectrum(a).eigenvalues],
                         ids=["eigenvalues", "full_spectrum"])
@pytest.mark.parametrize("mixed", [False, True], ids=["splits", "mixed"])
def test_a_stack_splits_only_if_every_matrix_does(monkeypatch, entry, mixed):
    stack = gossip_stack(8, [0.3, 0.8])
    if mixed:
        stack[1, 0, 1] = np.nextafter(stack[1, 0, 1], 1.0)
    whole = np.linalg.eigvals(stack)
    calls = record_solves(monkeypatch, ("eigvals", "eig"))
    values = entry(stack)
    assert [shape for _, shape in calls] == \
        [(2, 8, 8) if mixed else (4, 4, 4)]
    assert values.shape == (2, 8)
    if mixed:
        assert np.array_equal(values, whole)
    else:
        for row, ref in zip(values, whole):
            assert spectrum_match_distance(row, ref) <= 1e-13


@pytest.mark.parametrize("a", [
    primitive_gossip_matrix(12, 0.8),
    isospectral_matrix(10, np.array(LOW_WEIGHTS)),
    primitive_gossip_matrix(9, 0.8),
    isospectral_matrix(9, np.array(LOW_WEIGHTS)),
], ids=["even-W", "even-stack", "odd-W", "odd-stack"])
@pytest.mark.parametrize("entry", [eigenvalues, full_spectrum])
def test_the_driver_solves_the_reflection_halves_byte_for_byte(monkeypatch,
                                                               entry, a):
    blocks = []

    def recorded(name):
        solver = getattr(np.linalg, name)

        def solve(m):
            blocks.append(m.copy())
            return solver(m)
        return solve

    for name in ("eigvalsh", "eigvals", "eigh", "eig"):
        monkeypatch.setattr(np.linalg, name, recorded(name))
    entry(a)
    (block,) = blocks
    halves = reflection_halves(a)
    assert block.shape == halves.shape
    assert block.tobytes() == halves.tobytes()


@pytest.mark.parametrize("entry", [eigenvalues, full_spectrum])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5, 5), (3, 0, 0)])
def test_empty_input_is_rejected(entry, shape):
    with pytest.raises(ValueError, match="nonempty"):
        entry(np.zeros(shape))


@pytest.mark.parametrize("n", [4, 8, 30, 128])
def test_symmetric_input_gives_symmetric_halves_for_the_symmetric_driver(
        monkeypatch, n):
    # Averaging a symmetric doubly stochastic matrix with its rotation
    # makes it bit-equal to both its transpose and its rotation.
    g = isospectral_matrix(n, 0.3)
    s = (g + g[::-1, ::-1]) / 2.0
    halves = reflection_halves(s)
    assert halves.shape == (2, n // 2, n // 2)
    assert np.array_equal(halves, halves.swapaxes(-1, -2))
    calls = record_solves(monkeypatch)
    gap = spectral_gap_numeric(s)
    assert calls == [("eigvalsh", (2, n // 2, n // 2))]
    whole = np.linalg.eigvalsh(s)
    assert spectrum_match_distance(eigenvalues(s), whole) <= 1e-13
    assert abs(gap - (1.0 - np.sort(np.abs(whole))[-2])) <= 1e-13


def test_order_cap_is_on_the_callers_order(monkeypatch):
    # np.eye of an even order is its own rotation, so its halves would be
    # of order 1001, under the cap.
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before the order was checked")

    for name in ("eigvals", "eigvalsh", "eig", "eigh"):
        monkeypatch.setattr(np.linalg, name, must_not_run)
    big = np.eye(MAX_SPECTRUM_ORDER + 2)
    for entry in (spectral_gap_numeric, eigenvalues, full_spectrum,
                  reflection_halves):
        with pytest.raises(ValueError, match="exceeds"):
            entry(big)


# --- residual over the halves ------------------------------------------------------


@pytest.mark.parametrize("n", [128, 224, 320, 512])
def test_residual_over_the_blocks_stays_below_1e_13(n):
    for w in [0.3, 0.45, 0.55, 0.7, 0.8, 0.85, 0.95]:
        m = isospectral_matrix(n, w)
        spectrum = full_spectrum(m)
        assert spectrum.residual < 1e-13, (n, w)
        assert spectrum_match_distance(spectrum.eigenvalues,
                                       eigenvalues(m)) <= 1e-12, (n, w)


# --- eigenvalues from the two-projection planes ---------------------------------------


PLANE_WEIGHTS = [0.0, 0.05, 0.3, 0.5, 0.7, 0.8, 0.85, 0.95, 1.0]


@pytest.mark.parametrize("n", [511, 512, 1000, 1999, 2000])
def test_plane_eigenvalues_pair_with_the_dense_solve_at_large_n(n):
    # One dense solve per order: the rest of the weights pair with the
    # dense solve at n <= 300 (tests/test_properties.py).
    for w in ([0.3, 0.8] if n > 512 else PLANE_WEIGHTS):
        planes = oracle.plane_eigenvalues(n, w)
        assert planes.shape == (n,)
        dense = eigenvalues(primitive_gossip_matrix(n, w))
        assert spectrum_match_distance(planes, dense) <= 1e-12, (n, w)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9, 64, 65, 130])
@pytest.mark.parametrize("w", [0.3, 0.8])
def test_plane_eigenvalues_end_with_consensus_and_the_unpaired_edge(
        monkeypatch, n, w):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an n x n matrix was built")

    monkeypatch.setattr(matrices, "primitive_gossip_matrix", must_not_run)
    monkeypatch.setattr(oracle, "isospectral_matrix", must_not_run)
    calls = record_solves(monkeypatch)
    values = oracle.plane_eigenvalues(n, w)
    m1 = (n - 1) // 2
    assert values.shape == (n,)
    # The even-order Gram splits into its halves: C^T C, of order n/2, at
    # n = 0 (mod 4) and C C^T, of order n/2 - 1, at n = 2 (mod 4).  At odd
    # n C C^T is solved whole.
    gram = ((m1, m1) if n % 2 else
            (2, n // 4, n // 4) if n % 4 == 0 else
            (2, (n - 2) // 4, (n - 2) // 4))
    assert calls == [("eigvalsh", gram), ("eigvals", (m1, 2, 2))]
    tail = [1.0] + [1.0 - 2.0 * w] * (n % 2 == 0)
    assert values[2 * m1:].tolist() == tail


@pytest.mark.parametrize("n", [2, MAX_SPECTRUM_ORDER + 1])
def test_plane_eigenvalues_reject_an_order_before_any_solve(monkeypatch, n):
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before the order was checked")

    monkeypatch.setattr(oracle, "eigenvalues", must_not_run)
    with pytest.raises(ValueError, match="3 <= n"):
        oracle.plane_eigenvalues(n, 0.5)


@pytest.mark.parametrize("w", [-0.1, 1.5, math.nan])
def test_plane_eigenvalues_reject_a_weight_outside_the_unit_interval(w):
    with pytest.raises(ValueError, match="gossip weight"):
        oracle.plane_eigenvalues(8, w)


def dense_gram_block(n):
    """C = U1^T U2 for the two matchings' unit edge vectors, as a dense
    (m1, m2) array: -1/2 where an e1 edge and an e2 edge share a node."""
    e1, e2 = optimal_schedule(n)
    share = (e1[:, None, :, None] == e2[None, :, None, :]).any(axis=(2, 3))
    return np.where(share, -0.5, 0.0)


def test_edge_gram_is_the_bits_of_the_dense_product():
    for n in range(3, 301):
        c = dense_gram_block(n)
        e1, e2 = optimal_schedule(n)
        for gram, dense in ((oracle._edge_gram(e1, e2, n), c @ c.T),
                            (oracle._edge_gram(e2, e1, n), c.T @ c)):
            assert gram.tobytes() == dense.tobytes(), n


def test_even_order_gram_drops_one_null_eigenvalue():
    # At n = 0 (mod 4) the cosines come from C^T C, which has every
    # eigenvalue of C C^T and one 0 more (C has one more column than
    # row); at n = 2 (mod 4) from C C^T itself.  The Gram's eigenvalues
    # are distinct, so the dropped one is the one the cosines lack.
    worst = 0.0
    for n in list(range(4, 601, 2)) + [1000, 1002, 1024, 2000]:
        c = dense_gram_block(n)
        kept = oracle._cosines_squared(n)
        assert kept.shape == (n // 2 - 1,), n
        if n % 4 == 0:
            full = eigenvalues(c.T @ c)
            (dropped,) = full[~np.isin(full, kept)]
            worst = max(worst, abs(dropped))
        assert spectrum_match_distance(
            kept, np.linalg.eigvalsh(c @ c.T)) <= 1e-14, n
    assert worst < 1e-14


@pytest.mark.parametrize("n", [4, 8, 64])
def test_a_gram_without_a_null_eigenvalue_is_an_error(monkeypatch, n):
    gram = oracle._edge_gram
    monkeypatch.setattr(oracle, "_edge_gram", lambda rows, cols, order:
                        gram(rows, cols, order) + 1e-9 * np.eye(len(rows)))
    with pytest.raises(RuntimeError, match="not 0 to rounding"):
        oracle.plane_eigenvalues(n, 0.3)


@pytest.mark.parametrize("read, n, x", [
    (oracle.plane_eigenvalues, 9, 0.3),
    (oracle.plane_eigenvalues, 12, np.array([0.3, 0.8])),
    (enumerate_failure_expectation, 6, 0.2),
    (enumerate_failure_expectation, 7, np.array([0.0, 0.5, 1.0])),
    (isospectral_matrix, 9, 0.3),
    (isospectral_matrix, 8, np.array([0.0, 0.1, 0.5]))],
    ids=["planes", "plane-stack", "enumeration", "enumeration-stack",
         "band", "band-stack"])
def test_each_reader_takes_the_schedule_once_a_call(monkeypatch, read, n, x):
    # matrices.optimal_schedule is the one statement of which edges form a
    # round: each oracle reader asks it once a call, for its own order.
    calls = []
    schedule = matrices.optimal_schedule

    def recorder(order):
        calls.append(order)
        return schedule(order)

    monkeypatch.setattr(matrices, "optimal_schedule", recorder)
    read(n, x)
    assert calls == [n]


MIXED_WEIGHTS = [0.0, 0.3, 0.5, 0.8, 1.0, 0.05, 0.95, 0.5, 0.0,
                 np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]


@pytest.mark.parametrize("n", [3, 4, 6, 9, 64, 66, 511, 512])
@pytest.mark.parametrize("ws", [MIXED_WEIGHTS, [0.0, 0.0], [1.0], [0.3, 0.8]],
                         ids=["mixed", "zeros", "one", "both-sides"])
def test_plane_stack_rows_are_the_entries_of_one_weight_calls(n, ws):
    stack = oracle.plane_eigenvalues(n, np.array(ws))
    assert stack.shape == (len(ws), n)
    for row, w in zip(stack, ws):
        assert (row == oracle.plane_eigenvalues(n, w)).all(), (n, w)


def test_plane_stack_is_one_cosine_and_one_plane_solve(monkeypatch):
    calls = record_solves(monkeypatch)
    oracle.plane_eigenvalues(10, np.array(MIXED_WEIGHTS))
    assert calls == [("eigvalsh", (2, 2, 2)),
                     ("eigvals", (4 * len(MIXED_WEIGHTS), 2, 2))]


@pytest.mark.parametrize("ws", [[0.3, 1.5], [-0.1, 0.3], [0.2, math.nan],
                                [[0.3, 0.8]]])
def test_plane_stack_rejects_a_bad_weight_before_any_solve(monkeypatch, ws):
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before the weights were checked")

    monkeypatch.setattr(oracle, "eigenvalues", must_not_run)
    with pytest.raises(ValueError, match="gossip weight"):
        oracle.plane_eigenvalues(8, np.array(ws))


# --- the rate from the top plane ---------------------------------------------------


def gap_of(eigs):
    """1 - the largest modulus of a spectrum once the entry nearest 1 (the
    consensus eigenvalue) is set aside."""
    rest = np.delete(eigs, int(np.argmin(np.abs(eigs - 1.0))))
    return 1.0 - float(np.abs(rest).max(initial=0.0))


@pytest.mark.parametrize("n", list(range(3, 65)) + [
    100, 127, 128, 130, 255, 256, 320, 416, 511, 512, 513, 1000, 1023, 1024,
    1998, 1999, 2000])
def test_top_cosine_is_within_ulps_of_the_dense_gram_solve(n):
    top = oracle._top_cosine_squared(n)
    dense = oracle._cosines_squared(n).max()
    assert abs(top - dense) <= 8 * np.spacing(dense), n


@pytest.mark.parametrize("n, top", [(3, 0.25), (4, 0.5), (6, 0.75)])
def test_top_cosine_is_exact_where_the_bound_is_an_eigenvalue(n, top):
    # At n = 3 and 4 the Gram is 1 x 1, and at n = 6 both rows sum to 3/4:
    # Gershgorin's bound is the top eigenvalue itself, where the last pivot
    # is exactly 0 and Newton takes no step.
    diag, off = oracle._gram_bands(n)
    off2 = [b * b for b in off]
    assert oracle._newton_step(diag, off2, top) == 0.0
    assert oracle._top_cosine_squared(n) == top


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 12, 33])
def test_sturm_count_takes_an_exact_zero_pivot(n):
    # The first pivot of T - xI is diag[0] - x = 0 at x = 1/2, and at n = 6
    # the last is 0 at the Gram's own eigenvalue 3/4.  A zero pivot counts
    # as negative: an eigenvalue at x counts as below x.
    diag, off = oracle._gram_bands(n)
    off2 = [b * b for b in off]
    assert diag[0] == 0.5
    exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[1:], 1)
                               + np.diag(off[1:], -1))
    for x in (0.25, 0.5, 0.75):
        assert oracle._eigenvalues_below(diag, off2, x) == \
            int((exact < x + 1e-12).sum()), (n, x)


def test_gram_bands_are_the_dense_gram():
    for n in range(3, 301):
        e1, e2 = optimal_schedule(n)
        gram = oracle._edge_gram(e1, e2, n)
        diag, off = oracle._gram_bands(n)
        assert diag == np.diagonal(gram).tolist(), n
        assert off == [0.0] + np.diagonal(gram, 1).tolist(), n


def test_gram_bands_reject_a_gram_that_is_not_tridiagonal(monkeypatch):
    # The Newton solve and the Sturm count read three diagonals only: a
    # schedule whose first matching's edges are out of path order would
    # put 1/4 terms off them.
    schedule = matrices.optimal_schedule
    monkeypatch.setattr(matrices, "optimal_schedule", lambda n: (
        schedule(n)[0][[2, 1, 0, 3]], schedule(n)[1]))
    with pytest.raises(RuntimeError, match="not tridiagonal"):
        oracle._plane_rates(9, 0.3)


@pytest.mark.parametrize("n", [3, 4, 6, 9, 64, 66, 512])
@pytest.mark.parametrize("wrong", ["second", "above", "below", "bound"])
def test_sturm_count_rejects_a_wrong_top_value(monkeypatch, n, wrong):
    cos2 = np.sort(oracle._cosines_squared(n))
    top = oracle._top_cosine_squared(n)
    value = {"second": cos2[-2] if n > 4 else 0.0,
             "above": top + 1e-9, "below": top - 1e-9,
             "bound": 1.0 + 1e-9}[wrong]
    monkeypatch.setattr(oracle, "_newton_from_above",
                        lambda diag, off2, x: value)
    with pytest.raises(RuntimeError, match="Sturm count"):
        oracle._plane_rates(n, 0.3)


def test_newton_solves_each_order_in_a_few_steps(monkeypatch):
    steps = []
    step = oracle._newton_step

    def counted(diag, off2, x):
        steps.append(x)
        return step(diag, off2, x)

    monkeypatch.setattr(oracle, "_newton_step", counted)
    for n in [7, 64, 512, 2000]:
        steps.clear()
        oracle._top_cosine_squared(n)
        assert len(steps) <= 10, n
        assert all(a > b for a, b in zip(steps, steps[1:])), n


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9, 64, 65, 130])
def test_plane_rates_solve_one_plane_per_weight(monkeypatch, n):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an n x n matrix or the cosine Gram was solved")

    monkeypatch.setattr(matrices, "primitive_gossip_matrix", must_not_run)
    monkeypatch.setattr(oracle, "_cosines_squared", must_not_run)
    calls = record_solves(monkeypatch)
    rates = oracle._plane_rates(n, np.array([0.3, 0.5, 0.8]))
    assert rates.shape == (3,)
    assert calls == [("eigvals", (3, 2, 2))]


@pytest.mark.parametrize("n", [3, 4, 6, 9, 64, 66, 511, 512])
@pytest.mark.parametrize("ws", [MIXED_WEIGHTS, [0.0, 0.0], [1.0], [0.3, 0.8]],
                         ids=["mixed", "zeros", "one", "both-sides"])
def test_plane_rates_of_a_stack_are_those_of_one_weight_calls(n, ws):
    stack = oracle._plane_rates(n, np.array(ws))
    assert stack.shape == (len(ws),)
    for rate, w in zip(stack.tolist(), ws):
        one = oracle._plane_rates(n, w)
        assert one.shape == ()
        assert rate == float(one), (n, w)
        assert abs(rate - gap_of(oracle.plane_eigenvalues(n, w))) <= 1e-12


@pytest.mark.parametrize("n", [2, MAX_SPECTRUM_ORDER + 1])
def test_plane_rates_reject_an_order_before_any_solve(monkeypatch, n):
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before the order was checked")

    monkeypatch.setattr(oracle, "_top_cosine_squared", must_not_run)
    with pytest.raises(ValueError, match="3 <= n"):
        oracle._plane_rates(n, 0.5)


@pytest.mark.parametrize("ws", [1.5, -0.1, math.nan, [0.3, 1.5],
                                [[0.3, 0.8]]])
def test_plane_rates_reject_a_bad_weight_before_any_solve(monkeypatch, ws):
    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before the weights were checked")

    monkeypatch.setattr(oracle, "_top_cosine_squared", must_not_run)
    with pytest.raises(ValueError, match="gossip weight"):
        oracle._plane_rates(8, np.array(ws))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 28, 60, 128, 320, 512])
def test_plane_rates_at_the_double_root_agree_to_its_conditioning(n):
    # At w = 1 / (1 + sqrt(1 - s^2)), s the top cosine, the top plane has
    # a double eigenvalue, which moves with the square root of a change in
    # s^2: the few ulps between the Newton and the dense Gram solve's s^2
    # reach the rate as about 1e-8.  Every solve of it, the dense one of W
    # included, agrees with the closed form to that conditioning only.
    s2 = oracle._cosines_squared(n).max()
    for w in [1.0 / (1.0 + math.sqrt(1.0 - s2)),
              1.0 / (1.0 + math.sin(math.pi / n))]:
        rate = float(oracle._plane_rates(n, w))
        assert abs(rate - gap_of(oracle.plane_eigenvalues(n, w))) <= 1e-7
        assert abs(rate - rate_weighted(n, w).rate) <= 1e-7
        if n <= 60:
            dense = spectral_gap_numeric(primitive_gossip_matrix(n, w))
            assert abs(rate - dense) <= 1e-7
