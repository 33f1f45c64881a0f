"""Property tests over random (n, w, p).

Proves, for sizes and parameters drawn by Hypothesis rather than a fixed
grid, with the tolerance of the matching fixed-grid test:
  1. The closed-form rate equals the numeric spectral gap of the built
     matrix (abs 1e-8, as tests/test_rates.py).
  2. The exhaustive failure enumeration equals the product-form expected
     matrix (1e-12, as verify's failure-matrix suite).

Examples are derandomized, so every run draws the same cases.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegossip.matrices import expected_failure_matrix, primitive_gossip_matrix
from latticegossip.oracle import enumerate_failure_expectation, spectral_gap_numeric
from latticegossip.rates import rate_weighted

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40,
                    database=None)


@PROPERTY
@given(n=st.integers(3, 300), w=st.floats(0.05, 0.95))
def test_closed_form_rate_matches_numeric_gap(n, w):
    numeric = spectral_gap_numeric(primitive_gossip_matrix(n, w))
    assert abs(rate_weighted(n, w).rate - numeric) <= 1e-8


@PROPERTY
@given(n=st.integers(3, 9), p=st.floats(0.0, 1.0))
def test_enumeration_matches_expected_failure_matrix(n, p):
    exact = enumerate_failure_expectation(n, p)
    built = expected_failure_matrix(n, p).entries
    assert np.abs(exact - built).max() <= 1e-12
