"""Independent numeric ground truth for the analytic formulas.

Nothing in this module shares formula code with the closed-form layers: the
determinant goes through LU elimination with partial pivoting, spectra come
from the standard dense eigensolvers (Hessenberg reduction plus QR, or
tridiagonal reduction plus QR for a symmetric input), and the link-failure
expectation is an exhaustive sum over all 2^(n-1) failure patterns.
Agreement between these engines and the analytic expressions is therefore
evidence, not tautology.

The solver comes in two strengths.  eigenvalues() solves for the eigenvalues
alone; the report path (spectral_gap_numeric, the CLI's numeric columns)
reads nothing else.  full_spectrum() also solves for the eigenvectors and
returns the eigenpair residual with the eigenvalues.  Both send an input
exactly equal to its transpose to the symmetric driver (np.linalg.eigvalsh,
np.linalg.eigh), about an eighth of the general solve's flops, and any
other input to the general one (np.linalg.eigvals, np.linalg.eig).  All
share one split, one symmetry test, one order limit and one failure
fingerprint.

Both solvers also take a (k, n, n) stack of matrices, and
determinant_shifted takes an array of shifts; either way the whole batch is
one LAPACK call that runs the same routine on each matrix, so every entry
has the bits of its own one-matrix call.  full_spectrum takes the residual
of the whole solved stack in one matmul-and-norm pass.
enumerate_failure_expectation takes an array of failure probabilities: it
builds the 2^(n-1) failure-pattern products once and weights and sums them
for each p, every entry with the bits of its own one-p call.

Both solvers split before they solve.  A matrix W of even order n that is
bit-equal to its 180-degree rotation J W J (J the reversal) has the block
form [[A, B], [J B J, J A J]], and the orthogonal
Q = [[I, I], [J, -J]] / sqrt(2) gives Q^T W Q = diag(A + B J, A - B J).
reflection_halves() returns those two blocks of order n/2, and the solvers
solve them in place of W: two general solves of half the order cost about
a quarter of one.  A stack splits only if every matrix in it does, and is
otherwise solved whole, as is any other input.  The split is plain linear
algebra (Cantoni and Butler, Linear Algebra Appl. 13, 1976) and uses
nothing of the closed forms.

isospectral_matrix(n, w) builds the matrix the CLI solves for W(w).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices

MAX_SPECTRUM_ORDER = 2000


@dataclass(frozen=True, eq=False)
class OracleSpectrum:
    """Eigenvalues with a backward-error estimate of the solve."""

    eigenvalues: np.ndarray
    residual: float


def _as_square_array(a) -> np.ndarray:
    m = np.asarray(getattr(a, "entries", a), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def determinant_shifted(a, lam):
    """det(A - lam*I) by LU elimination with partial pivoting over complex.

    A scalar shift gives a complex; an array of shifts gives a complex array
    of the same shape, from one stacked LU call.
    """
    m = _as_square_array(a).astype(complex)
    lams = np.asarray(lam, dtype=complex)
    shifted = m - lams[..., None, None] * np.eye(m.shape[0], dtype=complex)
    dets = np.linalg.det(shifted)
    return complex(dets) if lams.ndim == 0 else dets


def _as_matrices(a) -> np.ndarray:
    """a as a nonempty square float array, or a (k, n, n) stack of them,
    within the order limit."""
    m = np.asarray(getattr(a, "entries", a), dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        m = _as_square_array(m)
    if m.size == 0:
        raise ValueError(f"expected a nonempty matrix or stack, got shape "
                         f"{m.shape}")
    if m.shape[-1] > MAX_SPECTRUM_ORDER:
        raise ValueError(f"matrix order {m.shape[-1]} exceeds the supported "
                         f"{MAX_SPECTRUM_ORDER}")
    return m


def _solve(a, solver):
    """(m, s, solver(s)) for a as m (see _as_matrices) and s its
    reflection_halves.  A convergence failure names m by a sha256 prefix."""
    m = _as_matrices(a)
    solved = reflection_halves(m)
    try:
        return m, solved, solver(solved)
    except np.linalg.LinAlgError as exc:
        import hashlib  # only on this path: keeps package import fast
        n = m.shape[-1]
        digest = hashlib.sha256(m.tobytes()).hexdigest()[:16]
        what = (f"stack of {len(m)} {n}x{n} matrices" if m.ndim == 3
                else f"{n}x{n} matrix")
        raise RuntimeError(f"eigensolver failed to converge on the {what} "
                           f"(sha256 {digest})") from exc


def _symmetric(m: np.ndarray) -> bool:
    """Whether m (every matrix of a stack) is bit-equal to its transpose."""
    return np.array_equal(m, m.swapaxes(-1, -2))


def _eigvals(m: np.ndarray) -> np.ndarray:
    if _symmetric(m):
        return np.linalg.eigvalsh(m)
    return np.linalg.eigvals(m)


def _eig(m: np.ndarray):
    if _symmetric(m):
        return np.linalg.eigh(m)
    return np.linalg.eig(m)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a real square matrix, without eigenvectors.

    The input is solved as its reflection_halves.  An exactly symmetric
    input (every matrix of a stack bit-equal to its transpose) is solved by
    the symmetric driver: real eigenvalues in ascending order, per half
    where it splits.  Any other input takes the same Hessenberg-plus-QR
    solve as full_spectrum, run for the eigenvalues only: complex
    eigenvalues come out in exact conjugate pairs.  No residual is
    computed.  A (k, n, n) stack gives a (k, n) array, one row per matrix;
    a split matrix's row holds the eigenvalues of A + B J, then of A - B J.
    """
    m, _, values = _solve(a, _eigvals)
    return values.reshape(m.shape[:-1])


def full_spectrum(a) -> OracleSpectrum:
    """All eigenvalues of a real square matrix, with their eigenvectors'
    residual.

    The input is split and routed as in eigenvalues(): an exactly
    symmetric input is solved by the symmetric driver (np.linalg.eigh),
    any other by the dense general eigensolver (Hessenberg reduction
    followed by implicitly shifted QR).  The residual reported is the
    largest relative eigenpair defect max_i |A v_i - lam_i v_i| / ||A||_F
    over the matrices solved (the halves, where the input splits).  A
    (k, n, n) stack gives (k, n) eigenvalues, one row per matrix, and the
    largest of the residuals.
    """
    m, solved, (values, vectors) = _solve(a, _eig)
    # The whole solved stack in one pass, in real arithmetic: complex
    # vectors and defects are handled as their real views, whose columns
    # alternate real and imaginary parts.  Working in place keeps the
    # product the pass's one temporary the size of the vectors.
    vectors = np.ascontiguousarray(vectors)
    defect = (solved @ vectors.view(float)).view(vectors.dtype)
    vectors *= values[..., None, :]
    defect -= vectors
    del vectors
    parts = defect.view(float)
    np.square(parts, out=parts)
    # Each column's sum of its entries' squared real and imaginary parts.
    norms = np.sqrt(parts.reshape(defect.shape + (-1,)).sum(axis=(-3, -1)))
    scale = np.maximum(np.linalg.norm(solved, axis=(-2, -1)), 1e-300)
    residuals = norms.max(axis=-1) / scale
    return OracleSpectrum(eigenvalues=values.reshape(m.shape[:-1]),
                          residual=float(residuals.max()))


def enumerate_failure_expectation(n: int, p):
    """Exact expectation of the one-period matrix by exhaustive enumeration.

    Sums Pr(F) * (period product with the edges in F skipped) over every
    subset F of the n-1 path edges, in mask order.  Exponential in n, hence
    the small-n guard; this is the brute-force check for
    expected_failure_matrix.

    p may also be a 1-D array of probabilities, giving a (k, n, n) stack,
    one expectation per entry with the bits of its own call.  The products
    of all 2^(n-1) patterns are built once, as one (patterns, n, n) stack,
    and weighted and summed for each p.  Every p is checked before any
    product is built.
    """
    if n > 12:
        raise ValueError(f"exhaustive enumeration supports n <= 12, got n={n}")
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    ps = np.asarray(p, dtype=float)
    if ps.ndim > 1:
        raise ValueError(f"failure probabilities must be a scalar or a 1-D "
                         f"array, got shape {ps.shape}")
    qs = np.atleast_1d(ps).tolist()
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(
                f"failure probability must lie in [0, 1], got {q}")
    # Mask bit e set means path edge (e+1, e+2) failed.  Every pattern's
    # period product at once: each pair update, in schedule order,
    # multiplies the patterns whose edge is up.  The pair matrix is an
    # explicit stack, not a broadcast operand, so each product is a plain
    # (n, n) @ (n, n) matmul as in a per-pattern loop.
    masks = np.arange(1 << (n - 1))
    periods = np.repeat(np.eye(n)[None], masks.size, axis=0)
    sched = matrices.optimal_schedule(n)
    for pair in sched.e1 + sched.e2:
        up = np.flatnonzero((masks >> (pair.i - 1) & 1) == 0)
        pair_stack = np.repeat(
            matrices.pair_update_matrix(n, pair, 0.5).entries[None],
            up.size, axis=0)
        periods[up] = pair_stack @ periods[up]
    failed = np.array([bin(mask).count("1") for mask in masks.tolist()])
    expectations = np.empty(ps.shape + (n, n))
    terms = np.empty_like(periods)
    for q, out in zip(qs, expectations.reshape(-1, n, n)):
        # Pr(mask) from Python float powers: numpy's power rounds some of
        # them differently.  The products are nonnegative, so a pattern of
        # probability 0 adds +0.0 and leaves the sum's bits alone.
        by_failures = [q ** f * (1.0 - q) ** (n - 1 - f) for f in range(n)]
        np.multiply(periods, np.array(by_failures)[failed, None, None],
                    out=terms)
        # Sum in mask order: accumulate adds sequentially along the pattern
        # axis, as a running total would.
        np.add.accumulate(terms, axis=0, out=terms)
        out[...] = terms[-1]
    return expectations


def reflection_halves(a) -> np.ndarray:
    """The (2, n/2, n/2) stack [A + B J, A - B J] of a matrix of even order
    n that is bit-equal to its 180-degree rotation, whose eigenvalues
    together are those of the matrix; any other input unchanged.

    A (k, n, n) stack splits into (2k, n/2, n/2), each matrix's two halves
    in turn, if every matrix in it splits.  A bit-symmetric input gives
    bit-symmetric halves.  The order limit of the solvers applies to the
    input's order, not to the halves'.
    """
    m = _as_matrices(a)
    n = m.shape[-1]
    if n % 2 or not np.array_equal(m, m[..., ::-1, ::-1]):
        return m
    h = n // 2
    top, bj = m[..., :h, :h], m[..., :h, h:][..., ::-1]
    return np.stack([top + bj, top - bj], axis=-3).reshape(-1, h, h)


def isospectral_matrix(n: int, w: float) -> np.ndarray:
    """A matrix with the eigenvalues of the period matrix W(w) = S2 S1.

    For w <= 1/2, each round S_k(h) at h = w / (1 + sqrt(1 - 2w)), the root
    of 2h(1 - h) = w written without cancellation, is the positive
    semidefinite square root of S_k(w), so W(w) has the eigenvalues of
    S1(h) S2(w) S1(h) = W(h)^T W(h).  numpy forms that product as an
    exactly symmetric matrix, so the solvers take the symmetric driver.  At
    even n it is averaged with its 180-degree rotation, which it equals in
    exact arithmetic: the average stays bit-symmetric and is bit-equal to
    its rotation, so the solvers split it.  Above 1/2, S1(w) is indefinite
    and W(w) itself is returned.
    """
    if w > 0.5:
        return matrices.primitive_gossip_matrix(n, w).entries
    h = w / (1.0 + math.sqrt(1.0 - 2.0 * w))
    c = matrices.primitive_gossip_matrix(n, h).entries
    g = c.T @ c
    return g if n % 2 else (g + g[::-1, ::-1]) / 2


def spectral_gap_numeric(a) -> float:
    """1 - (second largest eigenvalue modulus) of a doubly stochastic
    matrix, from eigenvalues()."""
    m = _as_matrices(_as_square_array(a))
    ones = np.ones(m.shape[0])
    if np.abs(m @ ones - ones).max() > 1e-9 or \
            np.abs(m.T @ ones - ones).max() > 1e-9:
        raise ValueError("matrix is not doubly stochastic")
    eigs = eigenvalues(m)
    idx = int(np.argmin(np.abs(eigs - 1.0)))
    rest = np.delete(eigs, idx)
    if rest.size == 0:
        return 1.0
    return 1.0 - float(np.abs(rest).max())


def spectrum_pairing(eigs_a, eigs_b) -> np.ndarray:
    """Greedy minimal-distance pairing of two equal-size eigenvalue multisets.

    Repeatedly matches the globally closest unmatched pair; returns, for each
    entry of eigs_a, the index of its partner in eigs_b.
    """
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


def spectrum_match_distance(eigs_a, eigs_b) -> float:
    """Largest distance in the greedy pairing of two eigenvalue multisets --
    a Hausdorff-style gap between the multisets (see spectrum_pairing)."""
    a = np.asarray(eigs_a, dtype=complex).ravel()
    b = np.asarray(eigs_b, dtype=complex).ravel()
    return float(np.abs(a - b[spectrum_pairing(a, b)]).max(initial=0.0))
