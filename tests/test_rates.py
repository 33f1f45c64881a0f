"""Tests for the closed-form convergence rates.

Proves:
  1. rate_weighted reproduces hand-solved anchors, reports the regime that
     matches the discriminant sign, and agrees with the numeric spectral
     gap across sizes and weights, the rate-0 ends w = 0 and 1 included.
  2. In the complex regime the subdominant modulus collapses to |2w - 1|
     exactly, independent of n.
  3. The closed form coincides with the subdominant modulus of the
     closed-form spectrum (parity unification) and decays monotonically in
     n at w = 1/2.
  4. rate_link_failure reduces to the w = 1/2 rate at p = 0, dies at
     p = 1, tracks the numeric gap of the expected matrix, and never
     improves when links fail more often.
  5. optimal_weight scans its grid correctly; relative_error reproduces
     the large-n plateau and is honestly negative for small n.
"""
import numpy as np
import pytest

from latticegossip.matrices import (expected_failure_matrix,
                                    primitive_gossip_matrix)
from latticegossip.oracle import spectral_gap_numeric
from latticegossip.pentadiag import (analytic_eigenvalues,
                                     second_largest_modulus,
                                     weighted_gossip_params)
from latticegossip.rates import (COMPLEX_PAIR, REAL_ROOTS, default_weight_grid,
                                 optimal_weight, rate_link_failure,
                                 rate_weighted, relative_error)

# --- weighted rate anchors ----------------------------------------------------


def test_rate_half_weight_four_nodes():
    r = rate_weighted(4, 0.5)
    assert r.lambda2_modulus == pytest.approx(0.5, abs=1e-12)
    assert r.rate == pytest.approx(0.5, abs=1e-12)
    assert r.regime == REAL_ROOTS


def test_rate_complex_regime_four_nodes():
    r = rate_weighted(4, 0.6)
    assert r.regime == COMPLEX_PAIR
    assert r.lambda2_modulus == pytest.approx(0.2, abs=1e-12)
    assert r.rate == pytest.approx(0.8, abs=1e-12)


def test_rate_fifteen_nodes_tuned_weight():
    assert rate_weighted(15, 0.8).rate == pytest.approx(0.2015, abs=5e-4)


@pytest.mark.parametrize("n,w", [(2, 0.5), (3, -0.2), (3, 1.2)])
def test_rate_weighted_rejects_bad_arguments(n, w):
    with pytest.raises(ValueError):
        rate_weighted(n, w)


@pytest.mark.parametrize("w", [0.0, 1.0])
@pytest.mark.parametrize("n", [3, 4, 7, 8, 33])
def test_rate_weighted_endpoints_give_rate_zero(n, w):
    # w = 0 is the identity and w = 1 a permutation: no mode contracts.
    r = rate_weighted(n, w)
    assert r.rate == 0.0
    assert r.lambda2_modulus == 1.0
    numeric = spectral_gap_numeric(primitive_gossip_matrix(n, w))
    assert abs(r.rate - numeric) <= 1e-8


@pytest.mark.parametrize("n", [3, 4, 7, 10, 33])
@pytest.mark.parametrize("w", [0.1, 0.35, 0.5, 0.75, 0.9])
def test_regime_matches_discriminant_sign(n, w):
    s = np.sin((n - 2) * np.pi / (2 * n))
    radicand = (w * s) ** 2 - 2 * w + 1
    expected = COMPLEX_PAIR if radicand < 0 else REAL_ROOTS
    assert rate_weighted(n, w).regime == expected


@pytest.mark.parametrize("n", [4, 5, 10, 11, 40, 41])
@pytest.mark.parametrize("w", [0.62, 0.7, 0.85, 0.95])
def test_complex_regime_modulus_is_abs_two_w_minus_one(n, w):
    r = rate_weighted(n, w)
    if r.regime == COMPLEX_PAIR:
        assert r.lambda2_modulus == abs(2 * w - 1)


@pytest.mark.parametrize("n", range(3, 49))
def test_rate_agrees_with_numeric_gap(n):
    for w in np.arange(0.05, 0.96, 0.1):
        from latticegossip.matrices import primitive_gossip_matrix
        gap = spectral_gap_numeric(primitive_gossip_matrix(n, float(w)))
        assert rate_weighted(n, float(w)).rate == pytest.approx(gap, abs=1e-8)


@pytest.mark.parametrize("n", [3, 4, 11, 12, 29, 30])
@pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
def test_rate_unifies_both_parities_with_closed_form_spectrum(n, w):
    spec = analytic_eigenvalues(weighted_gossip_params(n, w))
    assert rate_weighted(n, w).lambda2_modulus == pytest.approx(
        second_largest_modulus(spec), abs=1e-12)


def test_rate_strictly_decays_with_n_at_half_weight():
    rates = [rate_weighted(n, 0.5).rate for n in range(3, 513)]
    diffs = np.diff(rates)
    assert (diffs < 0).all()


# --- link-failure rate ----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 9, 16, 61])
def test_failure_rate_reduces_to_half_weight_at_p_zero(n):
    assert rate_link_failure(n, 0.0).rate == pytest.approx(
        rate_weighted(n, 0.5).rate, abs=1e-12)


def test_failure_rate_dies_at_p_one():
    r = rate_link_failure(9, 1.0)
    assert r.rate == 0.0
    assert r.lambda2_modulus == pytest.approx(1.0)


def test_failure_rate_six_nodes_anchor():
    r = rate_link_failure(6, 0.3)
    gap = spectral_gap_numeric(expected_failure_matrix(6, 0.3))
    assert r.rate == pytest.approx(gap, abs=1e-8)
    assert r.rate == pytest.approx(0.13675815226147492, abs=1e-12)


@pytest.mark.parametrize("n", range(4, 21))
def test_failure_rate_never_improves_with_more_failure(n):
    probs = np.arange(0.0, 1.001, 0.05)
    rates = [rate_link_failure(n, float(p)).rate for p in probs]
    assert (np.diff(rates) <= 1e-12).all()


@pytest.mark.parametrize("p", [-0.1, 1.1])
def test_failure_rate_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        rate_link_failure(6, p)


# --- weight optimization ----------------------------------------------------------


def test_optimal_weight_eight_nodes():
    w, result = optimal_weight(8, default_weight_grid())
    assert w == 0.8
    assert result.rate == pytest.approx(0.4, abs=1e-12)


def test_optimal_weight_hundred_nodes():
    w, result = optimal_weight(100, default_weight_grid())
    assert w == 0.9
    assert result.rate == pytest.approx(0.009, abs=5e-4)


def test_optimal_weight_sixteen_nodes():
    w, result = optimal_weight(16, default_weight_grid())
    assert w == 0.9
    assert result.rate == pytest.approx(0.2, abs=1e-12)


def test_optimal_weight_grid_order_is_irrelevant():
    grid = [0.9, 0.1, 0.5, 0.8]
    assert optimal_weight(8, grid) == optimal_weight(8, sorted(grid))


def test_optimal_weight_rejects_empty_grid():
    with pytest.raises(ValueError):
        optimal_weight(8, [])


def test_default_weight_grid():
    assert default_weight_grid() == [pytest.approx(k / 10) for k in range(1, 10)]


# --- relative error of the tuned rate ----------------------------------------------


def test_relative_error_hundred_nodes():
    assert relative_error(100) == pytest.approx(0.890688, abs=2e-3)


def test_relative_error_thousand_nodes():
    assert relative_error(1000) == pytest.approx(0.89, abs=0.02)


def test_relative_error_negative_for_small_n():
    # At n = 4 the tuned weight w = 0.9 is worse than w = 1/2 (complex
    # plateau), so the relative improvement is genuinely negative.
    assert relative_error(4) == pytest.approx(-1.5, abs=1e-12)
