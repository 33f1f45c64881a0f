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

Examples are derandomized, so every run draws the same cases.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegossip import cli
from latticegossip.cli import _report_row
from latticegossip.matrices import expected_failure_matrix, primitive_gossip_matrix
from latticegossip.oracle import (enumerate_failure_expectation,
                                  isospectral_matrix, spectral_gap_numeric)
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


CLOSED_FORM = ("analytic_rate", "lambda2_modulus", "regime")


@PROPERTY
@given(n=st.integers(3, 60), w=OPEN_WEIGHT, p=PROBABILITY)
def test_report_row_is_the_expected_matrix_at_any_weight(n, w, p):
    row = _report_row(n, w, p)
    assert abs(row["analytic_rate"] - row["numeric_rate"]) <= 1e-8
    assert row["analytic_rate"] == rate_weighted(n, (1.0 - p) * w).rate
    for single, r in ((_report_row(n, w=w), rate_weighted(n, w)),
                      (_report_row(n, p=p), rate_link_failure(n, p))):
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
    assert stack.eigenvalues.shape == (len(ws), n)
    for w, row in zip(ws, stack.eigenvalues):
        one = analytic_eigenvalues(weighted_gossip_params(n, w)).eigenvalues
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
