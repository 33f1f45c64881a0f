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

Examples are derandomized, so every run draws the same cases.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegossip.matrices import expected_failure_matrix, primitive_gossip_matrix
from latticegossip.oracle import (enumerate_failure_expectation,
                                  isospectral_matrix, spectral_gap_numeric)
from latticegossip.pentadiag import (link_failure_params, penta_matrix,
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
    built = expected_failure_matrix(n, p).entries
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
    m = build(n, data.draw(param)).entries
    ones = np.ones(n)
    assert np.abs(m @ ones - ones).max() < 1e-12
    assert np.abs(m.T @ ones - ones).max() < 1e-12


@pytest.mark.parametrize("family", BUILDERS)
@PROPERTY
@given(data=st.data(), n=st.integers(3, 300))
def test_builders_equal_the_penta_template(family, data, n):
    build, params, param = BUILDERS[family]
    x = data.draw(param)
    assert np.abs(build(n, x).entries - penta_matrix(params(n, x))).max() \
        < 1e-14


@PROPERTY
@given(n=st.integers(3, 300), p=PROBABILITY, q=PROBABILITY)
def test_link_failure_rate_is_non_increasing_in_p(n, p, q):
    lo, hi = sorted((p, q))
    assert rate_link_failure(n, hi).rate <= rate_link_failure(n, lo).rate
