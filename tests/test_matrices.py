"""Tests for the gossip matrix builders.

Proves:
  1. pair_update_matrix places the averaging block exactly and validates
     its arguments.
  2. optimal_schedule emits the two path matchings (e1 first, e2 second)
     as (m, 2) integer arrays with the documented edge sets for both
     parities, which together cover every path edge once; a schedule row
     is a pair pair_update_matrix takes.
  3. primitive_gossip_matrix reproduces the hand-computed w=1/2 matrices
     for n=3 and n=4 and the 1-w top corner for general w.
  4. All three matrix families are doubly stochastic, nonnegative,
     mean-preserving, and pentadiagonal (bandwidth 2).
  5. The weighted product equals the corner-perturbed pentadiagonal
     template realized from the weighted parameterization, entrywise; same
     for the link-failure family (this pins down the product order).
  6. expected_failure_matrix matches the exhaustive failure enumeration
     and its degenerate ends p=0 / p=1.
  7. The two one-period product orders are similar matrices: identical
     numeric spectra.
"""
import numpy as np
import pytest

from latticegossip.matrices import (expected_failure_matrix, optimal_schedule,
                                    pair_update_matrix, primitive_gossip_matrix)
from latticegossip.oracle import (enumerate_failure_expectation,
                                  full_spectrum, spectrum_match_distance)
from latticegossip.pentadiag import (link_failure_params, penta_matrix,
                                     weighted_gossip_params)

# --- pair updates ---------------------------------------------------------


def test_pair_update_plain_average_two_nodes():
    m = pair_update_matrix(2, (1, 2), 0.5)
    assert type(m) is np.ndarray
    assert np.array_equal(m, [[0.5, 0.5], [0.5, 0.5]])


def test_pair_update_w_one_is_a_swap():
    m = pair_update_matrix(3, (1, 2), 1.0)
    assert np.array_equal(m, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_pair_update_block_placement():
    m = pair_update_matrix(3, (2, 3), 0.3)
    expected = [[1.0, 0.0, 0.0], [0.0, 0.7, 0.3], [0.0, 0.3, 0.7]]
    assert np.allclose(m, expected, atol=0, rtol=0)
    assert m[0, 0] == 1.0


@pytest.mark.parametrize("pair", [(0, 1), (1, 3), (3, 4), (2, 2)])
def test_pair_update_rejects_bad_pairs(pair):
    with pytest.raises(ValueError):
        pair_update_matrix(3, pair, 0.5)


def test_pair_update_rejects_bad_weight():
    with pytest.raises(ValueError):
        pair_update_matrix(3, (1, 2), 1.5)


# --- schedule ---------------------------------------------------------------


def test_schedule_even():
    e1, e2 = optimal_schedule(4)
    assert e1.tolist() == [[2, 3]]
    assert e2.tolist() == [[1, 2], [3, 4]]


def test_schedule_two_nodes():
    e1, e2 = optimal_schedule(2)
    assert e1.shape == (0, 2)
    assert e2.tolist() == [[1, 2]]


def test_schedule_odd():
    # Odd n uses the same two matchings as even n; the product test below
    # confirms this is the labeling that reproduces the one-period matrix.
    e1, e2 = optimal_schedule(5)
    assert e1.tolist() == [[2, 3], [4, 5]]
    assert e2.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("n", range(2, 201))
def test_schedule_partitions_all_edges(n):
    e1, e2 = optimal_schedule(n)
    assert e1.shape == ((n - 1) // 2, 2)
    assert e2.shape == (n // 2, 2)
    for matching in (e1, e2):
        assert type(matching) is np.ndarray
        assert np.issubdtype(matching.dtype, np.integer)
        # A matching: no node on two of its edges; edges in path order.
        assert np.unique(matching).size == matching.size
        assert (np.diff(matching[:, 0]) > 0).all()
    edges = np.concatenate([e1, e2]).tolist()
    assert sorted(edges) == [[i, i + 1] for i in range(1, n)]


def test_pair_update_takes_a_schedule_row():
    row = optimal_schedule(5)[0][1]
    assert isinstance(row[0], np.integer)
    assert np.array_equal(pair_update_matrix(5, row, 0.3),
                          pair_update_matrix(5, (4, 5), 0.3))


def test_schedule_rejects_tiny_n():
    with pytest.raises(ValueError):
        optimal_schedule(1)


# --- primitive gossip matrix ------------------------------------------------


def test_primitive_half_weight_n4():
    w = primitive_gossip_matrix(4, 0.5)
    expected = [[0.5, 0.25, 0.25, 0.0],
                [0.5, 0.25, 0.25, 0.0],
                [0.0, 0.25, 0.25, 0.5],
                [0.0, 0.25, 0.25, 0.5]]
    assert np.allclose(w, expected, atol=1e-15)


def test_primitive_half_weight_n3():
    w = primitive_gossip_matrix(3, 0.5)
    expected = [[0.5, 0.25, 0.25],
                [0.5, 0.25, 0.25],
                [0.0, 0.5, 0.5]]
    assert np.allclose(w, expected, atol=1e-15)


@pytest.mark.parametrize("w", [0.15, 0.5, 0.85])
def test_primitive_top_corner_is_one_minus_w(w):
    assert primitive_gossip_matrix(4, w)[0, 0] == pytest.approx(
        1 - w, abs=1e-15)


def test_primitive_rejects_small_n():
    with pytest.raises(ValueError):
        primitive_gossip_matrix(2, 0.5)


# --- family-wide structural invariants --------------------------------------


def _families(n):
    yield primitive_gossip_matrix(n, 0.5)
    yield primitive_gossip_matrix(n, 0.31)
    yield primitive_gossip_matrix(n, 0.93)
    yield expected_failure_matrix(n, 0.4)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 32, 64])
def test_doubly_stochastic_and_nonnegative(n):
    for m in _families(n):
        ones = np.ones(n)
        assert np.abs(m @ ones - ones).max() < 1e-12
        assert np.abs(m.T @ ones - ones).max() < 1e-12
        assert m.min() >= -1e-15


@pytest.mark.parametrize("n", [3, 6, 11, 24])
def test_mean_preservation(n):
    rng = np.random.default_rng(7)
    x = rng.normal(size=n)
    for m in _families(n):
        assert np.mean(m @ x) == pytest.approx(np.mean(x), abs=1e-12)


@pytest.mark.parametrize("n", [4, 7, 10, 21])
def test_pentadiagonal_bandwidth(n):
    idx = np.arange(n)
    outside = np.abs(idx[:, None] - idx[None, :]) > 2
    for m in _families(n):
        assert not np.any(m[outside])


# --- template equivalence ----------------------------------------------------


@pytest.mark.parametrize("n", range(3, 14))
@pytest.mark.parametrize("w", [0.3, 0.5, 0.62, 0.9])
def test_weighted_product_equals_penta_template(n, w):
    built = primitive_gossip_matrix(n, w)
    template = penta_matrix(weighted_gossip_params(n, w))
    assert np.abs(built - template).max() < 1e-14


@pytest.mark.parametrize("n", range(3, 14))
@pytest.mark.parametrize("p", [0.0, 0.25, 0.6, 1.0])
def test_failure_product_equals_penta_template(n, p):
    built = expected_failure_matrix(n, p)
    template = penta_matrix(link_failure_params(n, p))
    assert np.abs(built - template).max() < 1e-14


# --- expected failure matrix -------------------------------------------------


@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
def test_failure_top_corner(p):
    m = expected_failure_matrix(4, p)
    assert m[0, 0] == pytest.approx((p + 1) / 2, abs=1e-15)


def test_failure_p0_is_plain_average():
    a = expected_failure_matrix(4, 0.0)
    b = primitive_gossip_matrix(4, 0.5)
    assert np.array_equal(a, b)


def test_failure_p1_is_identity():
    assert np.array_equal(expected_failure_matrix(4, 1.0), np.eye(4))


@pytest.mark.parametrize("n", range(3, 9))
def test_failure_matches_exhaustive_enumeration(n):
    for p in np.arange(0.0, 1.001, 0.1):
        built = expected_failure_matrix(n, float(p))
        exact = enumerate_failure_expectation(n, float(p))
        assert np.abs(built - exact).max() < 1e-12


# --- product-order similarity ------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 9, 14, 20])
def test_both_product_orders_share_the_spectrum(n):
    w = 0.7

    def round_product(pairs):
        m = np.eye(n)
        for pair in pairs:
            m = pair_update_matrix(n, pair, w) @ m
        return m

    s1, s2 = (round_product(pairs) for pairs in optimal_schedule(n))
    eigs_a = full_spectrum(s2 @ s1).eigenvalues
    eigs_b = full_spectrum(s1 @ s2).eigenvalues
    assert spectrum_match_distance(eigs_a, eigs_b) < 1e-8
