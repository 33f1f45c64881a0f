"""Tests for the pentadiagonal template, characteristic polynomials, and
closed-form spectra.

Proves:
  1. chebyshev_u implements the second-kind Chebyshev recurrence, including
     the degree -1 seed and the trigonometric identity on (0, pi).
  2. penta_matrix places every band, corner, and parity-dependent override
     exactly where the template says (hand-written 5x5 and 6x6 references).
  3. Each closed-form characteristic polynomial agrees with an LU-based
     determinant oracle at random complex points, for both parities, at
     orders up to 51, including the z = cY - b^2 = 0 stress point where a
     naive Chebyshev-argument evaluation would divide by zero.
  4. The all-corner form with odd order genuinely requires d - b = c: the
     guarded function raises, and the raw formula provably disagrees with
     the determinant when the constraint is broken.
  5. analytic_eigenvalues reproduces hand-solved small spectra, keeps the
     consensus eigenvalue 1 at every size, satisfies the trace identity,
     and enforces its preconditions.
  6. second_largest_modulus extracts the subdominant modulus, insists on
     the presence of the consensus eigenvalue, and rejects a stack of
     spectra rather than reading it as one.
"""
import numpy as np
import pytest

from latticegossip.matrices import expected_failure_matrix, primitive_gossip_matrix
from latticegossip.oracle import (determinant_shifted, full_spectrum,
                                  spectrum_match_distance)
from latticegossip.pentadiag import (PentaParams, Spectrum, analytic_eigenvalues,
                                     charpoly_bb, charpoly_bb_bd,
                                     charpoly_bd_bd, chebyshev_u,
                                     link_failure_params, penta_matrix,
                                     second_largest_modulus,
                                     weighted_gossip_params,
                                     _charpoly_bd_bd_odd_raw)
from latticegossip.rates import rate_weighted

# --- Chebyshev polynomials of the second kind --------------------------------


def test_chebyshev_seeds_and_small_values():
    assert chebyshev_u(0, 0.123) == 1.0
    assert chebyshev_u(-1, 0.123) == 0.0
    assert chebyshev_u(1, 0.7) == pytest.approx(1.4)
    assert chebyshev_u(2, 1.0) == pytest.approx(3.0)
    assert chebyshev_u(3, 0.5) == pytest.approx(-1.0)


def test_chebyshev_rejects_degree_below_minus_one():
    with pytest.raises(ValueError):
        chebyshev_u(-2, 0.5)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8, 12])
def test_chebyshev_trig_identity(m):
    theta = np.linspace(0.05, np.pi - 0.05, 40)
    for t in theta:
        lhs = chebyshev_u(m, np.cos(t)) * np.sin(t)
        assert lhs == pytest.approx(np.sin((m + 1) * t), abs=1e-10)


# --- template placement -------------------------------------------------------


def test_penta_matrix_hand_reference_odd():
    p = PentaParams(alpha=1.0, beta=2.0, e=10.0, b=3.0, c=4.0, d=5.0, n=5)
    expected = [[9, 3, 4, 0, 0],
                [5, 10, 3, 0, 0],
                [0, 3, 10, 3, 4],
                [0, 4, 3, 10, 3],
                [0, 0, 0, 5, 8]]
    assert np.array_equal(penta_matrix(p), expected)


def test_penta_matrix_hand_reference_even():
    p = PentaParams(alpha=1.0, beta=2.0, e=10.0, b=3.0, c=4.0, d=5.0, n=6)
    expected = [[9, 3, 4, 0, 0, 0],
                [5, 10, 3, 0, 0, 0],
                [0, 3, 10, 3, 4, 0],
                [0, 4, 3, 10, 3, 0],
                [0, 0, 0, 3, 10, 5],
                [0, 0, 0, 4, 3, 8]]
    assert np.array_equal(penta_matrix(p), expected)


def test_penta_matrix_plain_corners_skip_d_and_shifts():
    p = PentaParams(alpha=1.0, beta=2.0, e=10.0, b=3.0, c=4.0, d=5.0, n=5)
    m = penta_matrix(p, corners=("bb", "bb"))
    assert m[1, 0] == 3.0        # no d override at the top
    assert m[4, 3] == 3.0        # no d override at the bottom
    assert m[0, 0] == 10.0 - 1.0  # corner shifts still applied
    assert m[4, 4] == 10.0 - 2.0


def test_penta_params_rejects_small_order():
    with pytest.raises(ValueError):
        PentaParams(alpha=0.0, beta=0.0, e=1.0, b=0.1, c=0.2, d=0.1, n=2)


# --- characteristic polynomials vs. determinant oracle ------------------------

# The smallest members of the recurrence, written out by hand, anchor the
# whole ladder: order 1 would be Y and order 2 would be Y^2 - b^2; the first
# orders in the supported range are checked against explicit expansions here
# and the determinant oracle confirms every larger order below.


def test_order_one_and_two_seeds_via_explicit_arrays():
    e, b, lam = 1.7, 0.4, 0.3 + 0.2j
    y = e - lam
    assert determinant_shifted(np.array([[e]]), lam) == pytest.approx(y)
    two = np.array([[e, b], [b, e]])
    assert determinant_shifted(two, lam) == pytest.approx(y * y - b * b)


def test_smallest_odd_order_matches_hand_cubic():
    e, b, c = 0.9, 0.35, 0.2
    p = PentaParams(alpha=0.0, beta=0.0, e=e, b=b, c=c, d=b, n=3)
    for lam in (0.05, 0.4 + 0.3j, 1.2):
        y = e - lam
        hand = y**3 - 2 * b * b * y + c * b * b
        assert charpoly_bb(p, "odd", lam) == pytest.approx(hand, rel=1e-13)


def _parity(n):
    return "odd" if n % 2 == 1 else "even"


def _random_params(rng, n, constrained=False):
    e, b, c = rng.uniform(0.2, 1.5, size=3)
    d = b + c if constrained else rng.uniform(0.2, 1.5)
    return PentaParams(alpha=0.0, beta=0.0, e=float(e), b=float(b),
                       c=float(c), d=float(d), n=n)


def _random_lambdas(rng, count=20):
    return rng.uniform(-2, 2, size=count) + 1j * rng.uniform(-2, 2, size=count)


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 13, 14, 27, 28, 50, 51])
def test_charpoly_bb_matches_determinant(n):
    rng = np.random.default_rng(100 + n)
    params = _random_params(rng, n)
    matrix = penta_matrix(params, corners=("bb", "bb"))
    for lam in _random_lambdas(rng):
        assert _rel_err(charpoly_bb(params, _parity(n), lam),
                        determinant_shifted(matrix, lam)) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6, 13, 14, 27, 28, 50, 51])
def test_charpoly_bb_bd_matches_determinant(n):
    rng = np.random.default_rng(200 + n)
    params = _random_params(rng, n)
    matrix = penta_matrix(params, corners=("bb", "bd"))
    for lam in _random_lambdas(rng):
        assert _rel_err(charpoly_bb_bd(params, _parity(n), lam),
                        determinant_shifted(matrix, lam)) < 1e-8


@pytest.mark.parametrize("n", [3, 5, 13, 27, 51])
def test_charpoly_bd_bd_odd_matches_determinant(n):
    rng = np.random.default_rng(300 + n)
    params = _random_params(rng, n, constrained=True)  # odd orders need d-b=c
    matrix = penta_matrix(params)
    for lam in _random_lambdas(rng):
        assert _rel_err(charpoly_bd_bd(params, "odd", lam),
                        determinant_shifted(matrix, lam)) < 1e-8


@pytest.mark.parametrize("n", [4, 6, 14, 28, 50])
@pytest.mark.parametrize("constrained", [False, True])
def test_charpoly_bd_bd_even_matches_determinant(n, constrained):
    rng = np.random.default_rng(400 + n)
    params = _random_params(rng, n, constrained=constrained)
    matrix = penta_matrix(params)
    for lam in _random_lambdas(rng):
        assert _rel_err(charpoly_bd_bd(params, "even", lam),
                        determinant_shifted(matrix, lam)) < 1e-8


def test_charpoly_bb_bd_reduces_to_bb_when_d_equals_b():
    rng = np.random.default_rng(11)
    for n in (5, 6, 9, 12):
        e, b, c = rng.uniform(0.2, 1.5, size=3)
        params = PentaParams(alpha=0.0, beta=0.0, e=float(e), b=float(b),
                             c=float(c), d=float(b), n=n)
        for lam in _random_lambdas(rng, count=6):
            assert charpoly_bb_bd(params, _parity(n), lam) == pytest.approx(
                charpoly_bb(params, _parity(n), lam), rel=1e-12)


def test_charpoly_gossip_parameterization_order_seven():
    # w = 1/2 gives e = 1/4, b = 1/4, c = 1/4, d = 1/2, which satisfies the
    # odd-order constraint d - b = c by construction.
    params = weighted_gossip_params(7, 0.5)
    core = PentaParams(alpha=0.0, beta=0.0, e=params.e, b=params.b,
                       c=params.c, d=params.d, n=7)
    assert (params.e, params.b, params.c, params.d) == (
        0.25, 0.25, 0.25, 0.5)
    matrix = penta_matrix(core)
    rng = np.random.default_rng(5)
    for lam in _random_lambdas(rng):
        assert _rel_err(charpoly_bd_bd(core, "odd", lam),
                        determinant_shifted(matrix, lam)) < 1e-10


@pytest.mark.parametrize("family", ["bb", "bb_bd", "bd_bd_even"])
def test_charpoly_at_vanishing_z(family):
    # z = cY - b^2 = 0 is where the Chebyshev argument t/(2z) blows up; the
    # scaled recurrence must sail through it. Pick Y = b^2 / c exactly.
    e, b, c = 1.1, 0.8, 0.4
    n = 13 if family != "bd_bd_even" else 14
    d = b + c if family != "bb" else b
    params = PentaParams(alpha=0.0, beta=0.0, e=e, b=b, c=c, d=d, n=n)
    corners = {"bb": ("bb", "bb"), "bb_bd": ("bb", "bd"),
               "bd_bd_even": ("bd", "bd")}[family]
    func = {"bb": charpoly_bb, "bb_bd": charpoly_bb_bd,
            "bd_bd_even": charpoly_bd_bd}[family]
    matrix = penta_matrix(params, corners=corners)
    for y in (b * b / c, b * b / c + 1e-13):
        lam = e - y
        assert _rel_err(func(params, _parity(n), lam),
                        determinant_shifted(matrix, lam)) < 1e-8


def test_charpoly_bb_bd_at_y_equals_c():
    # Y = c makes the trigonometric-ratio corner coefficients singular; the
    # polynomial form must agree with the determinant there regardless.
    e, b, c, d = 1.3, 0.6, 0.45, 0.9
    params = PentaParams(alpha=0.0, beta=0.0, e=e, b=b, c=c, d=d, n=7)
    matrix = penta_matrix(params, corners=("bb", "bd"))
    lam = e - c  # Y = e - lam = c exactly
    assert _rel_err(charpoly_bb_bd(params, "odd", lam),
                    determinant_shifted(matrix, lam)) < 1e-10


def test_charpoly_bd_bd_odd_rejects_unconstrained_d():
    params = PentaParams(alpha=0.0, beta=0.0, e=1.0, b=0.5, c=0.3, d=0.9, n=7)
    with pytest.raises(ValueError):
        charpoly_bd_bd(params, "odd", 0.2)


def test_charpoly_rejects_inconsistent_parity():
    params = PentaParams(alpha=0.0, beta=0.0, e=1.0, b=0.5, c=0.3, d=0.8, n=6)
    with pytest.raises(ValueError):
        charpoly_bb(params, "odd", 0.2)
    with pytest.raises(ValueError):
        charpoly_bb(params, "diagonal", 0.2)


def test_bd_bd_odd_formula_truly_needs_the_constraint():
    # Bypassing the guard must yield a genuine mismatch with the
    # determinant, confirming the constraint is mathematical, not cosmetic.
    params = PentaParams(alpha=0.0, beta=0.0, e=1.0, b=0.5, c=0.3, d=0.9, n=7)
    matrix = penta_matrix(params)
    worst = max(_rel_err(_charpoly_bd_bd_odd_raw(params, lam),
                         determinant_shifted(matrix, lam))
                for lam in _random_lambdas(np.random.default_rng(2)))
    assert worst > 1e-3


# --- closed-form spectra -------------------------------------------------------


def _sorted_real(values):
    return sorted(float(np.real(v)) for v in values)


def test_analytic_spectrum_three_nodes_half_weight():
    spec = analytic_eigenvalues(weighted_gossip_params(3, 0.5))
    assert _sorted_real(spec.eigenvalues) == pytest.approx(
        [0.0, 0.25, 1.0], abs=1e-12)


def test_analytic_spectrum_four_nodes_half_weight():
    spec = analytic_eigenvalues(weighted_gossip_params(4, 0.5))
    assert _sorted_real(spec.eigenvalues) == pytest.approx(
        [0.0, 0.0, 0.5, 1.0], abs=1e-12)


@pytest.mark.parametrize("n", range(3, 41))
def test_analytic_spectrum_contains_consensus_eigenvalue(n):
    for w in (0.2, 0.5, 0.8):
        spec = analytic_eigenvalues(weighted_gossip_params(n, w))
        assert len(spec.eigenvalues) == n
        assert min(abs(v - 1.0) for v in spec.eigenvalues) < 1e-9


@pytest.mark.parametrize("w", [0.1, 0.45, 0.5, 0.73])
def test_even_order_carries_the_one_minus_two_w_eigenvalue(w):
    spec = analytic_eigenvalues(weighted_gossip_params(8, w))
    assert min(abs(v - (1 - 2 * w)) for v in spec.eigenvalues) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 9, 10, 25, 26])
@pytest.mark.parametrize("w", [0.3, 0.5, 0.77])
def test_trace_identity(n, w):
    params = weighted_gossip_params(n, w)
    spec = analytic_eigenvalues(params)
    assert sum(spec.eigenvalues) == pytest.approx(
        np.trace(penta_matrix(params)), abs=1e-8)


@pytest.mark.parametrize("n", list(range(3, 30)) + [47, 64, 85, 100])
@pytest.mark.parametrize("w", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_analytic_matches_numeric_weighted(n, w):
    analytic = analytic_eigenvalues(weighted_gossip_params(n, w)).eigenvalues
    numeric = full_spectrum(primitive_gossip_matrix(n, w)).eigenvalues
    assert spectrum_match_distance(analytic, numeric) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 7, 12, 25, 40])
def test_analytic_matches_numeric_link_failure(n):
    for p in np.arange(0.0, 0.95, 0.1):
        analytic = analytic_eigenvalues(link_failure_params(n, float(p)))
        numeric = full_spectrum(expected_failure_matrix(n, float(p)))
        assert spectrum_match_distance(analytic.eigenvalues,
                                       numeric.eigenvalues) < 1e-8


def test_analytic_requires_matching_corners():
    base = weighted_gossip_params(6, 0.5)
    bad = PentaParams(alpha=0.1, beta=base.beta, e=base.e, b=base.b,
                      c=base.c, d=base.d, n=6)
    with pytest.raises(ValueError):
        analytic_eigenvalues(bad)


def test_analytic_requires_d_minus_b_equals_c():
    bad = PentaParams(alpha=-0.25, beta=-0.25, e=0.25, b=0.25, c=0.1,
                      d=0.5, n=6)
    with pytest.raises(ValueError):
        analytic_eigenvalues(bad)


# --- subdominant modulus --------------------------------------------------------


def test_second_largest_modulus_basic():
    assert second_largest_modulus([1.0, 0.25, 0.0]) == pytest.approx(0.25)


def test_second_largest_modulus_complex_pair():
    spec = analytic_eigenvalues(weighted_gossip_params(4, 0.6))
    assert second_largest_modulus(spec) == pytest.approx(0.2, abs=1e-12)


def test_second_largest_modulus_repeated_ones():
    assert second_largest_modulus([1.0, 1.0, 0.3]) == pytest.approx(1.0)


def test_second_largest_modulus_requires_consensus_eigenvalue():
    with pytest.raises(ValueError):
        second_largest_modulus([0.9, 0.2, 0.1])


def test_second_largest_modulus_rejects_a_stack_of_spectra():
    stack = analytic_eigenvalues(weighted_gossip_params(8, [0.3, 0.8]))
    with pytest.raises(ValueError, match="one spectrum"):
        stack.second_largest_modulus
    assert [second_largest_modulus(row) for row in stack.eigenvalues] == \
        pytest.approx([rate_weighted(8, w).lambda2_modulus
                       for w in (0.3, 0.8)], abs=1e-12)


def test_second_largest_modulus_accepts_spectrum_objects():
    spec = Spectrum(eigenvalues=(1.0, 0.5 + 0.1j, 0.2))
    assert second_largest_modulus(spec) == pytest.approx(abs(0.5 + 0.1j))
