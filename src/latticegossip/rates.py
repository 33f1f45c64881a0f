"""Closed-form convergence rates for periodic gossip on a path.

The per-period convergence rate is the spectral gap R = 1 - |lambda2| of the
primitive gossip matrix, where lambda2 is the eigenvalue of second-largest
modulus.  For the path schedule both parities collapse to one expression in
s = sin((n-2)*pi/(2n)): the slowest non-consensus mode comes from the
quadratic eigenvalue pair at the cosine grid point nearest -1, which has

    lambda2 = 1 - 2w + 2 w^2 s^2 + 2 w s sqrt(w^2 s^2 - 2w + 1)

when the radicand is nonnegative, and |lambda2| = |2w - 1| otherwise (the
pair turns complex-conjugate and Vieta's product fixes the modulus).  The
link-failure variant is the same formula: the expected matrix under i.i.d.
Bernoulli link failures at rate p is weighted gossip at w = (1-p)/2, where
the radicand is nonnegative, so its slow mode is always a real root;
matrices._expected_weight is the one statement of that map.  The formula
holds at both ends of the weight range: w = 0 (the identity) and
w = 1 (a permutation) both give modulus 1 and rate 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import matrices

REAL_ROOTS = "real_roots"
COMPLEX_PAIR = "complex_pair"


@dataclass(frozen=True)
class RateResult:
    """Convergence rate of one configuration.

    regime records whether the slow eigenvalue pair was real or
    complex-conjugate.
    """

    n: int
    lambda2_modulus: float
    rate: float
    regime: str


def _edge_mode_sin(n: int) -> float:
    return math.sin((n - 2) * math.pi / (2 * n))


def rate_weighted(n: int, w: float) -> RateResult:
    """Per-period convergence rate of weighted gossip at w in [0, 1], any
    parity of n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"gossip weight must lie in [0, 1], got {w}")
    s = _edge_mode_sin(n)
    radicand = w * w * s * s - 2.0 * w + 1.0
    if radicand >= 0.0:
        lam2 = 1.0 - 2.0 * w + 2.0 * w * w * s * s + 2.0 * w * s * math.sqrt(radicand)
        modulus, regime = abs(lam2), REAL_ROOTS
    else:
        modulus, regime = abs(2.0 * w - 1.0), COMPLEX_PAIR
    return RateResult(n=n, lambda2_modulus=modulus,
                      rate=1.0 - modulus, regime=regime)


def rate_link_failure(n: int, p: float) -> RateResult:
    """Rate from the expected per-period matrix under link failures:
    rate_weighted at matrices._expected_weight(p=p).  It reduces to
    rate_weighted(n, 1/2) at p = 0 and to zero at p = 1 (all links down,
    identity dynamics).
    """
    matrices._unit_values(p, "failure probability")
    return rate_weighted(n, matrices._expected_weight(p=p))


def optimal_weight(n: int, grid: list[float]) -> tuple[float, RateResult]:
    """Grid member maximizing the rate; ties broken toward smaller w."""
    if not grid:
        raise ValueError("weight grid must be nonempty")
    best: tuple[float, RateResult] | None = None
    for w in sorted(grid):
        result = rate_weighted(n, w)
        if best is None or result.rate > best[1].rate:
            best = (w, result)
    return best


def default_weight_grid() -> list[float]:
    """The standard search grid {0.1, 0.2, ..., 0.9}."""
    return [k / 10.0 for k in range(1, 10)]


def relative_error(n: int) -> float:
    """Efficiency of w = 0.9 over plain averaging: (R_0.9 - R_0.5) / R_0.9."""
    r_opt = rate_weighted(n, 0.9).rate
    r_avg = rate_weighted(n, 0.5).rate
    if r_opt == 0.0:
        raise ValueError(f"relative error undefined: zero rate at w=0.9, n={n}")
    return (r_opt - r_avg) / r_opt
