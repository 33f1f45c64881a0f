"""Property tests over random (n, w, p).

Proves, for sizes and parameters drawn by Hypothesis rather than a fixed
grid, with the tolerance of the matching fixed-grid test:
  1. The closed-form rate equals the numeric spectral gap of the built
     matrix and, for w <= 1/2, of the oracle's symmetric stand-in
     isospectral_matrix (abs 1e-8, as tests/test_rates.py).
  2. The exhaustive failure enumeration equals the product-form expected
     matrix (1e-12, as verify's failure-matrix suite).
  3. Both builders are doubly stochastic (1e-12) and equal penta_matrix of
     their parameters (1e-14), as tests/test_matrices.py.
  4. The link-failure rate does not increase with the failure probability.
  5. A report row at any (w, p) takes its closed form at the expected
     weight (1 - p) w, within 1e-8 of its numeric column; a row with p or
     w unset has the bits of rate_weighted or rate_link_failure.
  6. The closed-form spectrum of an array of weights is, row for row, the
     bytes of the per-weight calls, and those are the bytes of a scalar
     loop over the quadratics: n in 3..600, weights in
     [0, 1] with 0, 1/2, 1, verify's weights and the optimal weight
     1/(1 + sin(pi/n)) a few ulps either side, where the discriminant is
     near 0; each entry squares w - 1 with the scalar call's pow.  A stack
     with an invalid entry is rejected, as that entry's scalar call is.
  7. spectrum_pairing gives the partners, and spectrum_match_distance the
     float (==), of the greedy loop it replaced, kept below as the
     reference, for n in 0..64: spectra with exact duplicates, conjugate
     pairs, each entry halfway between two others, all entries equal, a
     permutation plus noise of 1e-16 to 1e-3, and half of one side
     collapsed onto one value.  The same holds for the real parts of
     those spectra, as float arrays or as complex arrays with +0 and -0
     imaginary parts.  A (k, n) stack's distance is the largest of its
     rows' distances.
  8. A stack of weights drawn from [0, 1] builds, matrix for matrix, the
     bytes of the period applied to the whole identity.
  9. isospectral_matrix, built from seven seed columns below 1/2, is
     within 4 ulps of the dense BLAS product W(h)^T W(h) (averaged with
     its rotation at even n) for n in 3..200 and any stack of weights in
     [0, 1/2].
 10. plane_eigenvalues pairs with the dense eigenvalues() of W(w) within
     1e-12 for n in 3..300 and any w in [0, 1].
 11. The report rows' numeric rate from the top plane alone,
     oracle._plane_rates, is within 1e-12 of 1 - |lambda_2| of all of
     plane_eigenvalues for n in 3..512, and of the dense solve of W(w) for
     n in 3..60: w in [0, 1] with 0, 1/2, 1, 1/2 one ulp either side, and
     weights 1e-4 and 1e-3 (relative) either side of the top plane's
     double root 1 / (1 + sin(pi / n)), where the plane's eigenvalues turn
     from real to complex.  Closer to the double root the rate moves with
     the square root of an ulp of s^2 (tests/test_oracle.py).

Examples are derandomized, so every run draws the same cases.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegossip import cli, oracle
from latticegossip.cli import _report_rows
from latticegossip.matrices import (apply_period, expected_failure_matrix,
                                    primitive_gossip_matrix)
from latticegossip.oracle import (eigenvalues, enumerate_failure_expectation,
                                  isospectral_matrix, plane_eigenvalues,
                                  spectral_gap_numeric,
                                  spectrum_match_distance, spectrum_pairing)
from latticegossip.pentadiag import (PentaParams, analytic_eigenvalues,
                                     link_failure_params, penta_matrix,
                                     weighted_gossip_params)
from latticegossip.rates import rate_link_failure, rate_weighted

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40,
                    database=None)


@PROPERTY
@given(n=st.integers(3, 300), w=st.floats(0.05, 0.95),
       low=st.floats(0.0, 0.5, exclude_min=True))
def test_closed_form_rate_matches_numeric_gap(n, w, low):
    numeric = spectral_gap_numeric(primitive_gossip_matrix(n, w))
    assert abs(rate_weighted(n, w).rate - numeric) <= 1e-8
    numeric = spectral_gap_numeric(isospectral_matrix(n, low))
    assert abs(rate_weighted(n, low).rate - numeric) <= 1e-8


@PROPERTY
@given(n=st.integers(3, 9), p=st.floats(0.0, 1.0))
def test_enumeration_matches_expected_failure_matrix(n, p):
    exact = enumerate_failure_expectation(n, p)
    built = expected_failure_matrix(n, p)
    assert np.abs(exact - built).max() <= 1e-12


OPEN_WEIGHT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
PROBABILITY = st.floats(0.0, 1.0)

# Each builder with the penta_matrix of its parameters, and the strategy
# for its parameter.
BUILDERS = {
    "weighted": (primitive_gossip_matrix, weighted_gossip_params, OPEN_WEIGHT),
    "link-failure": (expected_failure_matrix, link_failure_params,
                     PROBABILITY),
}


@pytest.mark.parametrize("family", BUILDERS)
@PROPERTY
@given(data=st.data(), n=st.integers(3, 300))
def test_builders_are_doubly_stochastic(family, data, n):
    build, _, param = BUILDERS[family]
    m = build(n, data.draw(param))
    ones = np.ones(n)
    assert np.abs(m @ ones - ones).max() < 1e-12
    assert np.abs(m.T @ ones - ones).max() < 1e-12


@pytest.mark.parametrize("family", BUILDERS)
@PROPERTY
@given(data=st.data(), n=st.integers(3, 300))
def test_builders_equal_the_penta_template(family, data, n):
    build, params, param = BUILDERS[family]
    x = data.draw(param)
    assert np.abs(build(n, x) - penta_matrix(params(n, x))).max() \
        < 1e-14


@PROPERTY
@given(n=st.integers(3, 300), p=PROBABILITY, q=PROBABILITY)
def test_link_failure_rate_is_non_increasing_in_p(n, p, q):
    lo, hi = sorted((p, q))
    assert rate_link_failure(n, hi).rate <= rate_link_failure(n, lo).rate


CLOSED_FORM = ("analytic_rate", "lambda2_modulus", "regime")


@PROPERTY
@given(n=st.integers(3, 60), w=OPEN_WEIGHT, p=PROBABILITY)
def test_report_row_is_the_expected_matrix_at_any_weight(n, w, p):
    row, w_only, p_only = _report_rows([n], [(w, p), (w, None), (None, p)])
    assert abs(row["analytic_rate"] - row["numeric_rate"]) <= 1e-8
    assert row["analytic_rate"] == rate_weighted(n, (1.0 - p) * w).rate
    for single, r in ((w_only, rate_weighted(n, w)),
                      (p_only, rate_link_failure(n, p))):
        assert [single[f] for f in CLOSED_FORM] == \
            [r.rate, r.lambda2_modulus, r.regime]


# --- the closed form over an array of weights ------------------------------

VERIFY_WEIGHTS = sorted(set(cli._parse_grid("0.05:0.95:0.05"))
                        | {(1.0 - p) * 0.5 for p in cli._parse_grid("0:0.9:0.1")})


def near_optimal_weight(n, ulps):
    """The optimal weight 1/(1 + sin(pi/n)), moved by ulps units in the last
    place."""
    w = 1.0 / (1.0 + math.sin(math.pi / n))
    for _ in range(abs(ulps)):
        w = math.nextafter(w, math.copysign(math.inf, ulps))
    return w


def scalar_loop_eigenvalues(n, w):
    """The closed form at one weight, one quadratic at a time in Python
    scalars: the reference for the bits of the array evaluation."""
    b, c, e = w - w * w, w * w, (w - 1.0) ** 2
    if n % 2:
        ys = [complex(-(2.0 * b + c))]
        gs = np.cos((2.0 * np.arange((n - 1) // 2) + 1.0) * np.pi / n)
    else:
        ys = [complex(c), complex(-(2.0 * b + c))]
        gs = np.cos(2.0 * np.arange(1, n // 2) * np.pi / n)
    for g in gs:
        bcoef = -2.0 * c * g
        ccoef = 2.0 * b * b * g - 2.0 * b * b + c * c
        disc = bcoef * bcoef - 4.0 * ccoef
        if disc >= 0.0:
            sq = math.sqrt(disc)
            q = -(bcoef + sq) / 2.0 if bcoef >= 0.0 else -(bcoef - sq) / 2.0
            ys += [complex(q), complex(ccoef / q if q != 0.0 else 0.0)]
        else:
            re, im = -bcoef / 2.0, math.sqrt(-disc) / 2.0
            ys += [complex(re, im), complex(re, -im)]
    return e - np.array(ys, dtype=complex)


# (w - 1)^2 rounds one way as libm's pow, which the scalar call uses, and
# the other way as a product, which numpy uses for an array squared.
POW_SQUARE_SPLIT = 0.958203739894623


def weight_stacks(n):
    weight = st.one_of(st.floats(0.0, 1.0),
                       st.sampled_from([0.0, 0.5, 1.0, POW_SQUARE_SPLIT]
                                       + VERIFY_WEIGHTS),
                       st.integers(-4, 4).map(
                           lambda k: near_optimal_weight(n, k)))
    return st.lists(weight, min_size=1, max_size=8)


@PROPERTY
@given(data=st.data(), n=st.integers(3, 600))
def test_array_weight_closed_form_is_the_bytes_of_per_weight_calls(data, n):
    ws = data.draw(weight_stacks(n))
    stack = analytic_eigenvalues(weighted_gossip_params(n, np.array(ws)))
    assert stack.shape == (len(ws), n)
    for w, row in zip(ws, stack):
        one = analytic_eigenvalues(weighted_gossip_params(n, w))
        # tobytes: an imaginary part of -0.0 is not +0.0.
        assert row.tobytes() == one.tobytes(), w
        assert one.tobytes() == scalar_loop_eigenvalues(n, w).tobytes(), w


def test_array_weights_square_as_the_scalar_call_does():
    ws = [POW_SQUARE_SPLIT] + np.random.default_rng(0).uniform(
        0.0, 1.0, 3000).tolist()
    stack = weighted_gossip_params(5, np.array(ws)).e
    assert stack.tobytes() == np.array(
        [weighted_gossip_params(5, w).e for w in ws]).tobytes()
    assert (POW_SQUARE_SPLIT - 1.0) ** 2 != \
        (POW_SQUARE_SPLIT - 1.0) * (POW_SQUARE_SPLIT - 1.0)


FIELDS = ("alpha", "beta", "e", "b", "c", "d")


@PROPERTY
@given(data=st.data(), n=st.integers(3, 600),
       field=st.sampled_from(["alpha", "beta", "d"]),
       offset=st.floats(1e-6, 1.0))
def test_stack_with_an_invalid_entry_is_rejected(data, n, field, offset):
    ws = data.draw(weight_stacks(n))
    bad = data.draw(st.integers(0, len(ws) - 1))
    params = weighted_gossip_params(n, np.array(ws))
    values = {f: np.array(getattr(params, f)) for f in FIELDS}
    values[field][bad] += offset
    with pytest.raises(ValueError, match="closed-form eigenvalues require"):
        analytic_eigenvalues(PentaParams(n=n, **values))
    with pytest.raises(ValueError, match="closed-form eigenvalues require"):
        analytic_eigenvalues(PentaParams(
            n=n, **{f: float(v[bad]) for f, v in values.items()}))


# --- eigenvalue pairing --------------------------------------------------------


def looped_pairing(eigs_a, eigs_b):
    """The greedy loop spectrum_pairing replaced, verbatim: one Python step
    per sorted distance."""
    a = np.asarray(eigs_a, dtype=complex).ravel()
    b = np.asarray(eigs_b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    n = a.size
    partner = np.full(n, -1)
    taken = np.zeros(n, dtype=bool)
    matched = 0
    for flat in np.argsort(np.abs(a[:, None] - b[None, :]), axis=None):
        i, j = divmod(int(flat), n)
        if partner[i] >= 0 or taken[j]:
            continue
        partner[i] = j
        taken[j] = True
        matched += 1
        if matched == n:
            break
    return partner


def looped_match_distance(eigs_a, eigs_b):
    a = np.asarray(eigs_a, dtype=complex).ravel()
    b = np.asarray(eigs_b, dtype=complex).ravel()
    return float(np.abs(a - b[looped_pairing(a, b)]).max(initial=0.0))


def spectra_pair(kind, n, seed):
    """Two spectra of n entries of the given kind, from a seeded generator:
    the kinds reach both the strict-nearest shortcut and the greedy."""
    rng = np.random.default_rng(seed)
    if kind == "duplicates":
        a = rng.integers(0, 4, n) * 0.25 + 0j
        return a, rng.permutation(a)
    if kind == "conjugates":
        z = rng.uniform(-1, 1, n // 2) + 1j * rng.uniform(-1, 1, n // 2)
        a = np.concatenate([z, z.conj(), np.ones(n % 2)])
        return a, rng.permutation(a)
    if kind == "interleaved":
        # Each entry of a halfway between two of b, the lower one first in
        # b: the nearest partners form a permutation, but not strictly.
        return rng.permutation(2.0 * np.arange(n) + 1.0), 2.0 * np.arange(n)
    if kind == "all-equal":
        return np.full(n, 0.5), np.full(n, 0.5) + rng.choice([0.0, 1e-16], n)
    if kind == "noise":
        a = rng.uniform(-1, 1, n) + 1j * rng.choice([0.0, 1.0], n) * \
            rng.uniform(-1, 1, n)
        return a, rng.permutation(a) + 10.0 ** rng.uniform(-16, -3, n)
    # "collapsed"
    a = rng.uniform(-1, 1, n)
    b = rng.permutation(a)
    b[rng.permutation(n)[:n // 2]] = a[0] if n else 0.0
    return a, b


SPECTRA_KINDS = st.sampled_from(["duplicates", "conjugates", "interleaved",
                                 "all-equal", "noise", "collapsed"])


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(kind=SPECTRA_KINDS, n=st.integers(0, 64), seed=st.integers(0, 2**32))
def test_pairing_is_the_looped_greedy(kind, n, seed):
    a, b = spectra_pair(kind, n, seed)
    assert np.array_equal(spectrum_pairing(a, b), looped_pairing(a, b))
    assert spectrum_match_distance(a, b) == looped_match_distance(a, b)


@PROPERTY
@given(kind=SPECTRA_KINDS, n=st.integers(0, 64), seed=st.integers(0, 2**32),
       as_complex=st.booleans())
def test_real_pairing_is_the_looped_greedy(kind, n, seed, as_complex):
    # The real parts alone, as floats or as complex with +0 and -0
    # imaginary parts: the distances come from the real parts.
    a, b = (x.real for x in spectra_pair(kind, n, seed))
    if as_complex:
        a, b = a + 0j, np.conj(b + 0j)
    assert np.array_equal(spectrum_pairing(a, b), looped_pairing(a, b))
    assert spectrum_match_distance(a, b) == looped_match_distance(a, b)


@PROPERTY
@given(kinds=st.lists(SPECTRA_KINDS, max_size=5), n=st.integers(0, 24),
       seed=st.integers(0, 2**32))
def test_stack_distance_is_the_largest_row_distance(kinds, n, seed):
    pairs = [spectra_pair(kind, n, seed + r) for r, kind in enumerate(kinds)]
    a = np.array([a for a, _ in pairs], dtype=complex).reshape(len(pairs), n)
    b = np.array([b for _, b in pairs], dtype=complex).reshape(len(pairs), n)
    assert spectrum_match_distance(a, b) == max(
        (spectrum_match_distance(x, y) for x, y in zip(a, b)), default=0.0)


# --- builds from seed columns -----------------------------------------------------


@PROPERTY
@given(n=st.integers(3, 80),
       weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_weight_stack_is_the_bytes_of_the_identity_build(n, weights):
    stack = primitive_gossip_matrix(n, np.array(weights))
    for w, built in zip(weights, stack):
        assert built.tobytes() == apply_period(np.eye(n), w).tobytes()


@PROPERTY
@given(n=st.integers(3, 200),
       weights=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4))
def test_band_build_is_within_ulps_of_the_dense_product(n, weights):
    stack = isospectral_matrix(n, np.array(weights))
    for w, built in zip(weights, stack):
        c = apply_period(np.eye(n), w / (1.0 + math.sqrt(1.0 - 2.0 * w)))
        dense = c.T @ c
        if n % 2 == 0:
            dense = (dense + dense[::-1, ::-1]) / 2
        assert (np.abs(built - dense) <= 4 * np.spacing(
            np.maximum(np.abs(built), np.abs(dense)))).all(), (n, w)


# --- eigenvalues from the two-projection planes -------------------------------------


@PROPERTY
@given(n=st.integers(3, 300), w=st.floats(0.0, 1.0))
def test_plane_eigenvalues_pair_with_the_dense_solve(n, w):
    dense = eigenvalues(primitive_gossip_matrix(n, w))
    assert spectrum_match_distance(plane_eigenvalues(n, w), dense) <= 1e-12


# --- the rate from the top plane ---------------------------------------------------


def plane_gap(eigs):
    """1 - the largest modulus of a spectrum once the entry nearest 1 (the
    consensus eigenvalue) is set aside."""
    rest = np.delete(eigs, int(np.argmin(np.abs(eigs - 1.0))))
    return 1.0 - float(np.abs(rest).max(initial=0.0))


@st.composite
def order_and_weight(draw, max_n):
    """An order n and a weight: any in [0, 1], one of the edges and
    halfway points, or one near the top plane's double root at n."""
    n = draw(st.integers(3, max_n))
    double_root = 1.0 / (1.0 + math.sin(math.pi / n))
    w = draw(st.floats(0.0, 1.0)
             | st.sampled_from([0.0, 0.5, 1.0, math.nextafter(0.5, 0.0),
                                math.nextafter(0.5, 1.0)])
             | st.sampled_from([-1e-3, -1e-4, 1e-4, 1e-3]).map(
                 lambda rel: min(1.0, double_root * (1.0 + rel))))
    return n, w


@settings(PROPERTY, max_examples=150)
@given(case=order_and_weight(512))
def test_top_plane_rate_is_the_gap_of_every_plane(case):
    n, w = case
    rate = float(oracle._plane_rates(n, w))
    assert abs(rate - plane_gap(plane_eigenvalues(n, w))) <= 1e-12


@settings(PROPERTY, max_examples=150)
@given(case=order_and_weight(60))
def test_top_plane_rate_is_the_gap_of_the_dense_solve(case):
    n, w = case
    rate = float(oracle._plane_rates(n, w))
    dense = spectral_gap_numeric(primitive_gossip_matrix(n, w))
    assert abs(rate - dense) <= 1e-12
