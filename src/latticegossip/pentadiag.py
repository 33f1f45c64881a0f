"""Closed-form characteristic polynomials and eigenvalues of corner-perturbed
pentadiagonal matrices.

The matrix family A_n(alpha, beta, e, b, c, d) has value e on the diagonal
except for the corners (1,1) = e - alpha and (n,n) = e - beta, value b on the
sub/superdiagonals except for corner couplings that take the value d, and a
checkerboard second band: entry (i, i+2) = c for odd i and (i+2, i) = c for
even i (1-based).  The corner couplings sit at (2,1) for every n, plus
(n, n-1) when n is odd or (n-1, n) when n is even.  One period of weighted
gossip on an n-node path produces exactly such a matrix, which is why its
spectrum is worth having in closed form.

Everything is computed through Y = e - lambda, z = c*Y - b^2 and the scaled
second-kind Chebyshev values V_m = z^m * U_m((Y^2 + c^2 - 2 b^2) / (2 z)).
The V_m satisfy the plain polynomial recurrence

    V_m = (Y^2 + c^2 - 2 b^2) * V_{m-1} - z^2 * V_{m-2},  V_0 = 1, V_{-1} = 0,

so every formula below is a polynomial in lambda and stays finite at z = 0,
where the unscaled U_m(x) has a pole in x.  chebyshev_u is still exposed on
its own because the trigonometric identity U_m(cos t) sin t = sin((m+1) t)
is the cleanest way to test the recurrence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_REL_TOL = 1e-12


@dataclass(frozen=True)
class PentaParams:
    """Parameters of the corner-perturbed pentadiagonal family."""

    alpha: float
    beta: float
    e: float
    b: float
    c: float
    d: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"matrix order must be >= 3, got n={self.n}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Multiset of complex eigenvalues."""

    eigenvalues: np.ndarray

    @property
    def second_largest_modulus(self) -> float:
        return second_largest_modulus(self)


def penta_matrix(params: PentaParams,
                 corners: tuple[str, str] = ("bd", "bd")) -> np.ndarray:
    """Realize the dense matrix for the given parameters.

    corners selects the corner-coupling variant: "bd" keeps the d coupling
    at that end, "bb" replaces it with the interior value b.  The first
    entry governs the top corner (2,1), the second the bottom corner
    ((n,n-1) for odd n, (n-1,n) for even n).
    """
    top, bottom = corners
    if top not in ("bb", "bd") or bottom not in ("bb", "bd"):
        raise ValueError(f"corner codes must be 'bb' or 'bd', got {corners!r}")
    n = params.n
    a = np.full(n, params.b)
    m = np.diag(np.full(n, params.e)) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
    m[0, 0] -= params.alpha
    m[n - 1, n - 1] -= params.beta
    if top == "bd":
        m[1, 0] = params.d
    if bottom == "bd":
        if n % 2 == 1:
            m[n - 1, n - 2] = params.d
        else:
            m[n - 2, n - 1] = params.d
    for i in range(1, n - 1):  # 1-based band index
        if i % 2 == 1:
            m[i - 1, i + 1] = params.c
        else:
            m[i + 1, i - 1] = params.c
    return m


def weighted_gossip_params(n: int, w: float) -> PentaParams:
    """Parameters whose realized matrix is primitive_gossip_matrix(n, w)."""
    b = w - w * w
    return PentaParams(alpha=-b, beta=-b, e=(w - 1.0) ** 2, b=b, c=w * w,
                       d=w, n=n)


def link_failure_params(n: int, p: float) -> PentaParams:
    """Parameters whose realized matrix is expected_failure_matrix(n, p).

    Link failure at probability p is weighted gossip at w = (1-p)/2.
    """
    return weighted_gossip_params(n, (1.0 - p) / 2.0)


def chebyshev_u(m: int, x: complex) -> complex:
    """Second-kind Chebyshev value U_m(x) for any complex x, m >= -1."""
    if m < -1:
        raise ValueError(f"degree must be >= -1, got m={m}")
    prev, cur = 0.0, 1.0  # U_{-1}, U_0
    if m == -1:
        return prev
    for _ in range(m):
        prev, cur = cur, 2 * x * cur - prev
    return cur


# --- characteristic polynomials -----------------------------------------


def _v_values(y: complex, b: float, c: float, kmax: int) -> list[complex]:
    """Scaled Chebyshev values [V_{-1}, V_0, ..., V_kmax] at Y = y."""
    z = c * y - b * b
    t = y * y + c * c - 2.0 * b * b
    z2 = z * z
    vs = [0.0, 1.0]
    for _ in range(kmax):
        vs.append(t * vs[-1] - z2 * vs[-2])
    return vs


def _check_parity(params: PentaParams, parity: str) -> None:
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if (params.n % 2 == 1) != (parity == "odd"):
        raise ValueError(f"parity {parity!r} inconsistent with order n={params.n}")


def charpoly_bb(params: PentaParams, parity: str, lam: complex) -> complex:
    """det(A - lam*I) for the variant with both corner couplings equal to b.

    Only e, b, c enter; the d field and the diagonal corner perturbations
    alpha/beta play no role in this variant.
    """
    _check_parity(params, parity)
    y = params.e - lam
    b, c = params.b, params.c
    z = c * y - b * b
    if parity == "odd":
        m = (params.n - 1) // 2
        vs = _v_values(y, b, c, m)
        return y * vs[m + 1] - c * z * vs[m]
    m = params.n // 2
    vs = _v_values(y, b, c, m)
    return vs[m + 1] + (b * b - c * c) * vs[m]


def charpoly_bb_bd(params: PentaParams, parity: str, lam: complex) -> complex:
    """det(A - lam*I) with the top corner coupling b and the bottom one d.

    Reduces to charpoly_bb when d = b.  alpha/beta play no role.
    """
    _check_parity(params, parity)
    y = params.e - lam
    b, c, d = params.b, params.c, params.d
    z = c * y - b * b
    if parity == "odd":
        m = (params.n - 1) // 2
        vs = _v_values(y, b, c, m)
        return y * vs[m + 1] - (c * z + (d - b) * b * (y - c)) * vs[m]
    m = params.n // 2
    vs = _v_values(y, b, c, m)
    return (vs[m + 1] - ((d - 2.0 * b) * b + c * c) * vs[m]
            + (d - b) * b * z * vs[m - 1])


def _charpoly_bd_bd_odd_raw(params: PentaParams, lam: complex) -> complex:
    """Odd-order both-corners-d formula with no validity guard (see below)."""
    y = params.e - lam
    b, c = params.b, params.c
    z = c * y - b * b
    m = (params.n - 1) // 2
    vs = _v_values(y, b, c, m)
    return (y * vs[m + 1]
            - c * (z + 2.0 * b * (y - c) - c * c) * vs[m]
            - c * c * y * z * vs[m - 1])


def charpoly_bd_bd(params: PentaParams, parity: str, lam: complex) -> complex:
    """det(A - lam*I) with both corner couplings equal to d.

    The odd-order closed form is only established under d - b = c, and it
    genuinely fails outside that constraint, so violating parameters are
    rejected.  The even-order form holds for arbitrary d.  Reduces to
    charpoly_bb when d = b.  alpha/beta play no role.
    """
    _check_parity(params, parity)
    b, c, d = params.b, params.c, params.d
    if parity == "odd":
        scale = max(1.0, abs(b), abs(c), abs(d))
        if abs((d - b) - c) > _REL_TOL * scale:
            raise ValueError(
                "odd-order charpoly_bd_bd requires d - b = c; "
                f"got d - b = {d - b!r}, c = {c!r}")
        return _charpoly_bd_bd_odd_raw(params, lam)
    y = params.e - lam
    z = c * y - b * b
    m = params.n // 2
    vs = _v_values(y, b, c, m)
    return (vs[m + 1] + (3.0 * b * b - 2.0 * b * d - c * c) * vs[m]
            + (-(d - b) * (d - 3.0 * b) * z
               + (d - b) ** 2 * c * (y - c)) * vs[m - 1]
            + (d - b) ** 2 * z * z * vs[m - 2])


# --- eigenvalues ---------------------------------------------------------


def _stable_quadratic_roots(bcoef: float, ccoef: float) -> tuple[complex, complex]:
    """Roots of Y^2 + bcoef*Y + ccoef = 0, real coefficients.

    Real case: the larger-magnitude root is computed without cancellation
    and the other recovered from the product (Vieta).  Negative
    discriminant: exact conjugates.
    """
    disc = bcoef * bcoef - 4.0 * ccoef
    if disc >= 0.0:
        sq = np.sqrt(disc)
        if bcoef >= 0.0:
            q = -(bcoef + sq) / 2.0
        else:
            q = -(bcoef - sq) / 2.0
        y1 = q
        y2 = ccoef / q if q != 0.0 else 0.0
        return complex(y1), complex(y2)
    re = -bcoef / 2.0
    im = np.sqrt(-disc) / 2.0
    return complex(re, im), complex(re, -im)


def analytic_eigenvalues(params: PentaParams) -> Spectrum:
    """All n eigenvalues of A in closed form.

    Valid only when alpha = beta = -b and d - b = c (both gossip
    parameterizations satisfy this).  Each eigenvalue is e - Y where the Y
    are one or two explicit values plus the roots of the quadratics

        Y^2 - 2*(c*Y - b^2)*g - (2*b^2 - c^2) = 0,

    one per grid value g of the cosine: g = cos((2k+1)*pi/n) for odd n
    (k = 0..(n-3)/2) and g = cos(2k*pi/n) for even n (k = 1..n/2-1).  The
    explicit values are Y = -(2b+c), plus Y = c for even n.
    """
    b, c, d, e = params.b, params.c, params.d, params.e
    scale = max(1.0, abs(b), abs(c), abs(d), abs(e))
    if abs(params.alpha + b) > _REL_TOL * scale or \
            abs(params.beta + b) > _REL_TOL * scale:
        raise ValueError(
            "closed-form eigenvalues require alpha = beta = -b; "
            f"got alpha={params.alpha!r}, beta={params.beta!r}, b={b!r}")
    if abs((d - b) - c) > _REL_TOL * scale:
        raise ValueError(
            "closed-form eigenvalues require d - b = c; "
            f"got d - b = {d - b!r}, c = {c!r}")
    n = params.n
    ys: list[complex] = []
    if n % 2 == 1:
        ys.append(complex(-(2.0 * b + c)))
        gs = np.cos((2.0 * np.arange((n - 1) // 2) + 1.0) * np.pi / n)
    else:
        ys.append(complex(c))
        ys.append(complex(-(2.0 * b + c)))
        gs = np.cos(2.0 * np.arange(1, n // 2) * np.pi / n)
    for g in gs:
        y1, y2 = _stable_quadratic_roots(-2.0 * c * g,
                                         2.0 * b * b * g - 2.0 * b * b + c * c)
        ys.append(y1)
        ys.append(y2)
    return Spectrum(eigenvalues=e - np.array(ys, dtype=complex))


def second_largest_modulus(spectrum: Spectrum | np.ndarray) -> float:
    """Largest modulus after removing one eigenvalue closest to 1.

    The input must contain an eigenvalue within 1e-9 of 1 (every valid
    gossip matrix does); otherwise the request is rejected.
    """
    eigs = np.asarray(
        spectrum.eigenvalues if isinstance(spectrum, Spectrum) else spectrum,
        dtype=complex).ravel()
    if eigs.size == 0:
        raise ValueError("empty spectrum")
    idx = int(np.argmin(np.abs(eigs - 1.0)))
    if abs(eigs[idx] - 1.0) > 1e-9:
        raise ValueError(
            f"no eigenvalue within 1e-9 of 1 (closest: {eigs[idx]!r})")
    rest = np.delete(eigs, idx)
    if rest.size == 0:
        return 0.0
    return float(np.abs(rest).max())
