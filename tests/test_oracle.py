"""Tests for the numeric oracles.

Proves:
  1. determinant_shifted evaluates det(A - lambda I) for real and complex
     shifts, and its values at gossip matrices satisfy the three-term
     corner-composition identity built from the closed-form polynomials.
  2. full_spectrum returns verified eigenvalues: known small spectra, exact
     conjugate pairing, a small eigenpair residual, one consensus
     eigenvalue, and moduli bounded by 1 for the stochastic families.
  3. enumerate_failure_expectation averages the full failure lattice and
     matches the product construction exactly, within its documented size
     window.
  4. spectral_gap_numeric computes 1 - |lambda_2| for doubly stochastic
     input and rejects anything else, an empty matrix with a clear error.
  5. spectrum_match_distance pairs two spectra greedily and reports the
     worst gap.
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
     symmetric and general stacks alike), below 1e-13 on verify's weights
     up to n = 60; an array of shifts gives the bits of
     its one-shift determinants; a failed stack solve names its sha256
     digest; the one-matrix entry points still reject a stack.
  9. For w <= 1/2 isospectral_matrix's W(h)^T W(h) stands in for W(w): it
     builds W(h) through matrices.primitive_gossip_matrix with
     2h(1 - h) = w within 1 ulp, the product is exactly symmetric and
     doubly stochastic on the installed numpy, its symmetric solve agrees
     with the general solve of the whole W(w) within 1e-13, and
     eigenvalues() sends exactly symmetric input, and only that, to the
     symmetric driver; full_spectrum sends symmetric input (one matrix of
     odd or even order, halves or a stack) to np.linalg.eigh once, split
     where it splits, with real eigenvalues and a residual of at most
     1e-14.
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
     the caller's order, not the halves'; and an empty matrix or stack is
     a ValueError.
"""
import hashlib
import math

import numpy as np
import pytest

from latticegossip import cli, matrices
from latticegossip.matrices import (expected_failure_matrix, optimal_schedule,
                                    pair_update_matrix, primitive_gossip_matrix)
from latticegossip.oracle import (MAX_SPECTRUM_ORDER, determinant_shifted,
                                  eigenvalues, enumerate_failure_expectation,
                                  full_spectrum, isospectral_matrix,
                                  reflection_halves, spectral_gap_numeric,
                                  spectrum_match_distance)
from latticegossip.pentadiag import (PentaParams, charpoly_bb, charpoly_bb_bd,
                                     charpoly_bd_bd, penta_matrix,
                                     weighted_gossip_params)

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

    composed = (charpoly_bd_bd(core(n), "odd", lam)
                + 2 * b * charpoly_bb_bd(core(n - 1), "even", lam)
                + b * b * charpoly_bb(core(n - 2), "odd", lam))
    direct = determinant_shifted(primitive_gossip_matrix(n, w), lam)
    assert abs(composed - direct) / abs(direct) < 1e-8


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant_shifted(np.ones((2, 3)), 0.0)


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
    assert np.allclose(exact, primitive_gossip_matrix(3, 0.5).entries,
                       atol=1e-15)


def test_enumeration_half_failure_top_corner():
    assert enumerate_failure_expectation(4, 0.5)[0, 0] == pytest.approx(0.75)


def test_enumeration_matches_expected_matrix():
    exact = enumerate_failure_expectation(6, 0.3)
    built = expected_failure_matrix(6, 0.3).entries
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
    sched = optimal_schedule(n)
    edges = [(i, i + 1) for i in range(1, n)]
    pair_mats = {pair: pair_update_matrix(n, pair, 0.5).entries
                 for pair in sched.e1 + sched.e2}
    total = np.zeros((n, n))
    for mask in range(1 << (n - 1)):
        failed = {edges[k] for k in range(n - 1) if mask >> k & 1}
        weight = p ** len(failed) * (1.0 - p) ** (n - 1 - len(failed))
        if weight == 0.0:
            continue
        period = np.eye(n)
        for pair in sched.e1 + sched.e2:
            if tuple(pair) not in failed:
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
    return np.stack([primitive_gossip_matrix(n, w).entries for w in weights])


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
    """verify's spectra stacks at order n: the report path's matrices of
    its weights up to 1/2 (symmetric) and above (general)."""
    return [np.stack([isospectral_matrix(n, w) for w in group])
            for group in ([w for w in VERIFY_WEIGHTS if w <= 0.5],
                          [w for w in VERIFY_WEIGHTS if w > 0.5])]


@pytest.mark.parametrize("n", [3, 4, 12, 33, 60])
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


@pytest.mark.parametrize("solver, entry", [
    ("eig", full_spectrum),
    ("eigvals", eigenvalues),
])
def test_failed_stack_solve_names_a_sha256_fingerprint(monkeypatch, solver,
                                                       entry):
    def fail(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, solver, fail)
    stack = gossip_stack(5, [0.3, 0.6, 0.9])
    with pytest.raises(RuntimeError) as info:
        entry(stack)
    assert hashlib.sha256(stack.tobytes()).hexdigest()[:16] in str(info.value)
    assert "stack of 3 5x5 matrices" in str(info.value)


# --- symmetric oracle matrix for w <= 1/2 --------------------------------------------

LOW_WEIGHTS = [w for w in VERIFY_WEIGHTS if w <= 0.5]


@pytest.mark.parametrize("w", [0.0, 1e-300, 1e-12] + LOW_WEIGHTS)
def test_root_weight_solves_the_pair_square(monkeypatch, w):
    # W(h) is built through the module attribute, where the benchmark's
    # tracer counts matrix builds.
    weights, build = [], matrices.primitive_gossip_matrix

    def building(n, h):
        weights.append(h)
        return build(n, h)

    monkeypatch.setattr(matrices, "primitive_gossip_matrix", building)
    isospectral_matrix(5, w)
    (h,) = weights
    assert 0.0 <= h <= 0.5
    assert abs(2.0 * h * (1.0 - h) - w) <= math.ulp(w)


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
                primitive_gossip_matrix(n, w).entries)) <= 1e-13, (n, w)


@pytest.mark.parametrize("n", [127, 224, 512])
@pytest.mark.parametrize("w", [0.05, 0.1, 0.3, 0.5])
def test_oracle_matrix_has_the_spectrum_of_w_at_large_n(n, w):
    assert spectrum_match_distance(
        eigenvalues(isospectral_matrix(n, w)),
        np.linalg.eigvals(primitive_gossip_matrix(n, w).entries)) <= 1e-13


def test_oracle_matrix_above_half_is_the_period_matrix():
    assert np.array_equal(isospectral_matrix(9, 0.8),
                          primitive_gossip_matrix(9, 0.8).entries)


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
            m = primitive_gossip_matrix(n, w).entries
            halves = reflection_halves(m)
            if n % 2 == 0:
                assert np.array_equal(m, m[::-1, ::-1]), (n, w)
                assert halves.shape == (2, n // 2, n // 2), (n, w)
            assert spectrum_match_distance(
                eigenvalues(m), np.linalg.eigvals(m)) <= 1e-13, (n, w)


@pytest.mark.parametrize("n", [128, 224, 320, 416, 512])
@pytest.mark.parametrize("w", [0.55, 0.8, 0.95])
def test_halves_have_the_spectrum_of_w_at_large_n(n, w):
    m = primitive_gossip_matrix(n, w).entries
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
    m = primitive_gossip_matrix(n, w).entries
    assert reflection_halves(m) is m
    whole = np.linalg.eigvals(m)
    calls = record_solves(monkeypatch)
    assert np.array_equal(eigenvalues(m), whole)
    spectral_gap_numeric(m)
    assert calls == [("eigvals", (n, n))] * 2


@pytest.mark.parametrize("n", [4, 10, 64])
def test_one_ulp_off_the_rotation_is_solved_whole(n):
    m = primitive_gossip_matrix(n, 0.8).entries.copy()
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
