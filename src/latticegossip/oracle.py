"""Independent numeric ground truth for the analytic formulas.

Nothing in this module shares formula code with the closed-form layers: the
determinant goes through LU elimination with partial pivoting, spectra come
from the standard dense eigensolvers (Hessenberg reduction plus QR, or
tridiagonal reduction plus QR for a symmetric input), and the link-failure
expectation is an exhaustive sum over all 2^(n-1) failure patterns.
Agreement between these engines and the analytic expressions is therefore
evidence, not tautology.

The solver comes in two strengths.  eigenvalues() solves for the eigenvalues
alone; spectral_gap_numeric and plane_eigenvalues read nothing else.
full_spectrum() also solves for the eigenvectors and returns the eigenpair
residual with the eigenvalues.  Both send an input exactly equal to its
transpose to the symmetric driver (np.linalg.eigvalsh, np.linalg.eigh),
about an eighth of the general solve's flops, and any other input to the
general one (np.linalg.eigvals, np.linalg.eig).  All share one split, one
symmetry test, one order limit and one failure fingerprint.

Both solvers also take a (k, n, n) stack of matrices, and
determinant_shifted takes an array of shifts; either way the whole batch is
one LAPACK call that runs the same routine on each matrix, so every entry
has the bits of its own one-matrix call.  full_spectrum takes the residual
of the solved block in one matmul-and-norm pass, so no eigenvectors
outlive the solve.
enumerate_failure_expectation takes an array of failure probabilities: it
builds the 2^(n-1) failure-pattern products once and weights and sums them
for each p, every entry with the bits of its own one-p call.

Both solvers solve reflection_halves() of their input, the one place the
split is decided: a matrix of even order bit-equal to its 180-degree
rotation, or a stack of which every matrix is, splits, and any other input
is solved whole.  Such a W, rotation J W J (J the reversal), has the block
form [[A, B], [J B J, J A J]], and the orthogonal
Q = [[I, I], [J, -J]] / sqrt(2) gives Q^T W Q = diag(A + B J, A - B J), two
blocks of order n/2 solved as one (2, n/2, n/2) stack in place of W: two
general solves of half the order cost about a quarter of one.  A matrix's
row of eigenvalues lists A + B J's first, then A - B J's.  The split is
plain linear algebra (Cantoni and Butler, Linear Algebra Appl. 13, 1976)
and uses nothing of the closed forms.

plane_eigenvalues(n, w) gives W(w)'s eigenvalues without an n x n matrix.
Each round is S_k = I - 2w P_k, P_k the orthogonal projection onto the
span of matching k's unit edge vectors (e_i - e_j)/sqrt(2), so W(w) splits
into invariant planes, one per principal angle between the two spans,
plus the directions neither span pairs (P. R. Halmos, "Two subspaces",
Trans. AMS 144, 1969).  The principal cosines s are the square roots of
the eigenvalues of C C^T, C = U1^T U2 the (m1, m2) Gram block of the two
matchings' edge vectors, which is -1/2 where two edges share a node and 0
elsewhere.  C is bidiagonal, so C C^T is tridiagonal, built in O(n) from
the schedule's pair arrays with the bits of the dense product, and solved by
eigenvalues().  At even n both C C^T (order n/2 - 1) and C^T C (order
n/2) equal their 180-degree rotations, and one of the two orders is even:
n = 2 (mod 4) solves C C^T, n = 0 (mod 4) C^T C, so the solve splits into
its reflection halves either way.  C^T C has one eigenvalue more, 0 for
C's null vector; the one of least magnitude is dropped, and an error
raised if it is not 0 to rounding.  Odd n solve C C^T whole.  In an
orthonormal basis of its plane P1 = diag(1, 0) and
P2 = [[s^2, sc], [sc, c^2]], c = sqrt(1 - s^2), and the (m1, 2, 2) stack
of (I - 2w P2)(I - 2w P1) is solved by eigenvalues() too.  The consensus
direction adds 1, and at even n the one edge direction of the second
matching left unpaired adds 1 - 2w.  The cosines depend on n alone, so a
1-D array of k weights takes one cosine solve and one (k m1, 2, 2) stack.
Nothing of the closed forms, and no cos(k pi / n), enters; the report
path's numeric columns (the CLI's rate rows, one call per order, and
spectrum) come from here.

isospectral_matrix(n, w) builds the matrix verify's spectra suite solves
for W(w), or for an array of weights on one side of 1/2 the stack of
them.  For w <= 1/2 that is S1(h) S2(w) S1(h) = W(h)^T W(h), of
bandwidth 3, built in O(n) per matrix by the period kernel on seven seed
columns, with h and w on the edges optimal_schedule puts in each round:
each diagonal is averaged with its mirror across the main diagonal and
written to both sides, so it is bit-symmetric, and at even n each is
averaged with its reverse, so it is bit-equal to its rotation and splits.

Closed-form and numeric spectra are compared by a greedy pairing: the
closest unmatched pair first.  spectrum_pairing pairs two 1-D spectra;
spectrum_match_distance also takes two (k, n) stacks, pairs them row by
row in one pass and returns the largest distance of any row.  Where every
eigenvalue has a strictly nearest partner and no two share one, those
partners are the greedy's answer without sorting anything (the greedy is
the locally-dominant-edge matching, R. Preis, STACS 1999).  Rows with
repeated eigenvalues run the greedy in array passes over the sorted
distances.
"""
from __future__ import annotations

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
    m = np.asarray(a, dtype=float)
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
    m = np.asarray(a, dtype=float)
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
    """The eigenvalues of a, as m (see _as_matrices), in the shape of m
    less its last axis, and the extra, from solver(block) =
    (eigenvalues, extra) on reflection_halves(m).  A convergence failure
    names m by a sha256 prefix."""
    m = _as_matrices(a)
    try:
        values, extra = solver(reflection_halves(m))
    except np.linalg.LinAlgError as exc:
        import hashlib  # only on this path: keeps package import fast
        n = m.shape[-1]
        digest = hashlib.sha256(m.tobytes()).hexdigest()[:16]
        what = (f"stack of {len(m)} {n}x{n} matrices" if m.ndim == 3
                else f"{n}x{n} matrix")
        raise RuntimeError(f"eigensolver failed to converge on the {what} "
                           f"(sha256 {digest})") from exc
    return values.reshape(m.shape[:-1]), extra


def _symmetric(m: np.ndarray) -> bool:
    """Whether m (every matrix of a stack) is bit-equal to its transpose."""
    return np.array_equal(m, m.swapaxes(-1, -2))


def _eigvals(m: np.ndarray):
    if _symmetric(m):
        return np.linalg.eigvalsh(m), None
    return np.linalg.eigvals(m), None


def _eig(m: np.ndarray):
    """m's eigenvalues and the largest relative eigenpair defect
    |A v - lam v| / ||A||_F of its matrices, each against its own norm:
    its eigenvectors go with this call."""
    solve = np.linalg.eigh if _symmetric(m) else np.linalg.eig
    values, vectors = solve(m)
    defects = np.linalg.norm(m @ vectors - vectors * values[..., None, :],
                             axis=-2)
    scale = np.maximum(np.linalg.norm(m, axis=(-2, -1)), 1e-300)
    return values, float((defects.max(axis=-1) / scale).max())


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a real square matrix, without eigenvectors.

    An exactly symmetric input (every matrix of a stack bit-equal to its
    transpose) is solved by the symmetric driver: real eigenvalues in
    ascending order, per block where it splits.  Any other input takes the
    same Hessenberg-plus-QR solve as full_spectrum, run for the eigenvalues
    only: complex eigenvalues come out in exact conjugate pairs.  No
    residual is computed.  A (k, n, n) stack gives a (k, n) array, one row
    per matrix.  Where the input splits, a row's first n/2 entries are the
    eigenvalues of A + B J, its last n/2 those of A - B J (see the module
    docstring).
    """
    return _solve(a, _eigvals)[0]


def full_spectrum(a) -> OracleSpectrum:
    """All eigenvalues of a real square matrix, with their eigenvectors'
    residual.

    The input is split, routed and laid out as in eigenvalues(): an
    exactly symmetric input is solved by the symmetric driver
    (np.linalg.eigh), any other by the dense general eigensolver
    (Hessenberg reduction followed by implicitly shifted QR).  The residual
    reported is the largest relative eigenpair defect
    max_i |A v_i - lam_i v_i| / ||A||_F over the matrices solved (the
    halves, where the input splits, each against its own norm).  A
    (k, n, n) stack gives (k, n) eigenvalues, one row per matrix, and the
    largest of the residuals.
    """
    values, residual = _solve(a, _eig)
    return OracleSpectrum(eigenvalues=values, residual=residual)


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
    ps = matrices._unit_values(p, "failure probability")
    qs = np.atleast_1d(ps).tolist()
    # Mask bit e set means path edge (e+1, e+2) failed.  Every pattern's
    # period product at once: each pair update, in schedule order,
    # multiplies the patterns whose edge is up.  The pair matrix is an
    # explicit stack, not a broadcast operand, so each product is a plain
    # (n, n) @ (n, n) matmul as in a per-pattern loop.
    masks = np.arange(1 << (n - 1))
    periods = np.repeat(np.eye(n)[None], masks.size, axis=0)
    for pair in np.concatenate(matrices.optimal_schedule(n)).tolist():
        up = np.flatnonzero((masks >> (pair[0] - 1) & 1) == 0)
        pair_stack = np.repeat(
            matrices.pair_update_matrix(n, pair, 0.5)[None],
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
    together are those of the matrix; any other input unchanged.  This is
    the block the solvers solve (see the module docstring).

    A (k, n, n) stack splits into (2k, n/2, n/2), each matrix's two halves
    in turn, if every matrix in it splits.  A bit-symmetric input gives
    bit-symmetric halves.  The order limit of the solvers applies to the
    input's order, not to the halves'.
    """
    m = _as_matrices(a)
    h, odd = divmod(m.shape[-1], 2)
    if odd or not np.array_equal(m, m[..., ::-1, ::-1]):
        return m
    top, bj = m[..., :h, :h], m[..., :h, h:][..., ::-1]
    return np.stack([top + bj, top - bj], axis=-3).reshape(-1, h, h)


def isospectral_matrix(n: int, w) -> np.ndarray:
    """A matrix with the eigenvalues of the period matrix W(w) = S2 S1.

    For w <= 1/2, each round S_k(h) at h = w / (1 + sqrt(1 - 2w)), the root
    of 2h(1 - h) = w written without cancellation, is the positive
    semidefinite square root of S_k(w), so W(w) has the eigenvalues of the
    symmetric M = S1(h) S2(w) S1(h) = W(h)^T W(h).  M is built from seven
    seed columns (matrices._seed_diagonals): the rounds S1(h), S2(w) and
    S1(h) run as two periods, h on the e1 edges and then w and 0 on the e2
    edges, where a weight of 0 skips its pair exactly.  M has bandwidth 3,
    so each column comes with the operations of its own e_j in O(n).  Each
    diagonal d = 0..3 is averaged with diagonal -d and written
    to both, so the result is bit-symmetric and the solvers take the
    symmetric driver.  At even n each is first averaged with its reverse,
    which it equals in exact arithmetic, so the result is also bit-equal to
    its 180-degree rotation and the solvers split it.  Above 1/2, S1(w) is
    indefinite and W(w) itself is returned.

    w may also be a 1-D array of weights that all lie on one side of 1/2,
    giving the (k, n, n) stack of their matrices with the bits of k
    one-weight calls, from one stacked build.  Every weight is checked
    before anything is built.
    """
    ws = matrices._unit_values(w, "gossip weight")
    above = ws > 0.5
    if above.any():
        if not above.all():
            raise ValueError("gossip weights of one call must all lie on "
                             "one side of 1/2")
        return matrices.primitive_gossip_matrix(n, ws)
    if n < 3:
        raise ValueError(f"isospectral matrix needs n >= 3, got n={n}")
    k = ws.size
    h = (ws / (1.0 + np.sqrt(1.0 - 2.0 * ws))).reshape(k, 1)
    # Per-edge weights of the two periods, edge i + 1 at index i: h on the
    # e1 edges of both, then w on the e2 edges of the first and 0 on those
    # of the second.
    e1, e2 = matrices.optimal_schedule(n)
    periods = np.zeros((2, n - 1, k, 1))
    periods[:, e1[:, 0] - 1] = h
    periods[0, e2[:, 0] - 1] = ws.reshape(k, 1)
    diagonals = matrices._seed_diagonals(n, k, 7, *periods)
    out = np.zeros((k, n, n))
    for d in range(min(4, n)):
        s = (diagonals[3 - d, d:] + diagonals[3 + d, :n - d]) / 2
        if n % 2 == 0:
            s = (s + s[::-1]) / 2
        matrices._write_diagonal(out, d, s)
        if d:
            matrices._write_diagonal(out, -d, s)
    return out if ws.ndim else out[0]


def _edge_gram(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The Gram matrix C C^T of C[a, b] = u_a . u_b, u the unit edge
    vectors of the (m, 2) node-pair arrays rows and cols, two matchings of
    the n-node path, built in O(n) plus its zero fill.

    C is -1/2 where edge a of rows and edge b of cols share a node and 0
    elsewhere.  A node lies on at most one edge of a matching, so each end
    of a cols edge names the one rows edge it meets there, if any, and
    C C^T is the sum over the cols edges b of C[:, b] C[:, b]^T: 1/4 at
    every pair of rows edges b meets.  Each entry is a sum of at most two
    1/4s, so exact, with the bits of the dense product.
    """
    rows_at = np.full(n + 1, -1)
    rows_at[rows] = np.arange(len(rows))[:, None]
    ends = rows_at[cols]
    a, b = ends[:, [0, 0, 1, 1]], ends[:, [0, 1, 0, 1]]
    meet = (a >= 0) & (b >= 0)
    gram = np.zeros((len(rows), len(rows)))
    np.add.at(gram, (a[meet], b[meet]), 0.25)
    return gram


def _cosines_squared(n: int) -> np.ndarray:
    """The m1 = (n - 1) // 2 squared principal cosines between the two
    matchings of the n-node path: the eigenvalues of the even-order Gram
    where there is one (see the module docstring)."""
    e1, e2 = matrices.optimal_schedule(n)
    if n % 4:
        return eigenvalues(_edge_gram(e1, e2, n))
    # C^T C has C C^T's eigenvalues and one 0 more, for C's null vector.
    cos2 = eigenvalues(_edge_gram(e2, e1, n))
    null = int(np.abs(cos2).argmin())
    if abs(cos2[null]) > len(cos2) * np.finfo(float).eps:
        raise RuntimeError(f"the smallest eigenvalue of C^T C at n={n} is "
                           f"{cos2[null]:.3e}, not 0 to rounding")
    return np.delete(cos2, null)


def plane_eigenvalues(n: int, w) -> np.ndarray:
    """The n eigenvalues of the period matrix W(w) = S2 S1 from its
    invariant planes (see the module docstring), with no n x n matrix.

    The planes' eigenvalues come first, two per principal angle, then 1
    for the consensus direction and, at even n, 1 - 2w for the second
    matching's unpaired edge direction.  n must lie in
    3..MAX_SPECTRUM_ORDER and w in [0, 1].

    w may also be a 1-D array of k weights, giving a (k, n) array, row i
    the entries of the call at w[i], from one cosine solve and one
    (k m1, 2, 2) stack of planes.  Every weight is checked before any
    solve.
    """
    if not 3 <= n <= MAX_SPECTRUM_ORDER:
        raise ValueError(f"plane eigenvalues need 3 <= n <= "
                         f"{MAX_SPECTRUM_ORDER}, got n={n}")
    ws = matrices._unit_values(w, "gossip weight")
    k = ws.size
    cos2 = _cosines_squared(n)
    sc = np.sqrt(cos2) * np.sqrt(1.0 - cos2)
    p2 = np.stack([cos2, sc, sc, 1.0 - cos2], axis=-1).reshape(-1, 2, 2)
    # (I - 2w P2)(I - 2w P1), P1 = diag(1, 0): the first column times
    # 1 - 2w.
    two_w = (2.0 * ws).reshape(k, 1, 1)
    planes = np.eye(2) - two_w[..., None] * p2
    planes[..., 0] *= 1.0 - two_w
    values = eigenvalues(planes.reshape(-1, 2, 2)).reshape(k, -1)
    tail = np.empty((k, n - values.shape[1]))
    tail[:, 0] = 1.0
    tail[:, 1:] = 1.0 - two_w[:, 0]
    out = np.concatenate([values, tail], axis=1)
    return out if ws.ndim else out[0]


def _gap(eigs: np.ndarray) -> float:
    """1 - (second largest modulus) of a spectrum: the largest modulus
    once the entry nearest 1 is set aside."""
    idx = int(np.argmin(np.abs(eigs - 1.0)))
    rest = np.delete(eigs, idx)
    if rest.size == 0:
        return 1.0
    return 1.0 - float(np.abs(rest).max())


def spectral_gap_numeric(a) -> float:
    """1 - (second largest eigenvalue modulus) of a doubly stochastic
    matrix, from eigenvalues()."""
    m = _as_matrices(_as_square_array(a))
    ones = np.ones(m.shape[0])
    if np.abs(m @ ones - ones).max() > 1e-9 or \
            np.abs(m.T @ ones - ones).max() > 1e-9:
        raise ValueError("matrix is not doubly stochastic")
    return _gap(eigenvalues(m))


def _as_spectra(eigs_a, eigs_b, stacks: bool):
    """eigs_a and eigs_b as complex (k, n) stacks of one shape: two 1-D
    spectra of one length as one-row stacks, or, where stacks allows it,
    two (k, n) stacks of one shape as they are."""
    a = np.asarray(eigs_a, dtype=complex)
    b = np.asarray(eigs_b, dtype=complex)
    if a.ndim == b.ndim == 1 and a.size == b.size:
        return a[None], b[None]
    if stacks and a.ndim == b.ndim == 2 and a.shape == b.shape:
        return a, b
    what = ("two 1-D spectra of one length or two (k, n) stacks of one "
            "shape" if stacks else "two 1-D spectra of one length")
    raise ValueError(f"expected {what}, got shapes {a.shape} and {b.shape}")


def _greedy_row(d: np.ndarray) -> np.ndarray:
    """Partners of the greedy pairing for one (n, n) distance array, taking
    the entries in the order np.argsort(d, axis=None) gives, so ties fall
    as they sort.

    Each pass looks at the next n sorted entries for the first whose row
    and column are both free, accepts it and resumes after it, or moves a
    whole window on: at most 2n passes of n entries each.  An n x n mask of
    the pairs still open answers for a whole window in one lookup.
    """
    n = len(d)
    order = np.argsort(d, axis=None)
    partner = np.full(n, -1)
    open_pairs = np.ones((n, n), dtype=bool)
    is_open = open_pairs.reshape(-1)
    pos = matched = 0
    while matched < n:
        window = order[pos:pos + n]
        hits = is_open[window]
        t = int(hits.argmax())
        if not hits[t]:
            pos += n
            continue
        i, j = divmod(int(window[t]), n)
        partner[i] = j
        open_pairs[i] = False
        open_pairs[:, j] = False
        matched += 1
        pos += t + 1
    return partner


def _pair(a: np.ndarray, b: np.ndarray):
    """Greedy partners of two complex (k, n) stacks, row by row, and each
    row's largest pair distance: a (k, n) and a (k,) array.

    Where every entry of a row of a has a strictly nearest entry in the
    same row of b and no two share one, that nearest-partner permutation is
    the greedy pairing, whatever order ties elsewhere sort in: the first
    accepted pair (i, j) off it would need the strictly earlier (i, p(i))
    to have been rejected, so p(i) taken, which only i's own pair could
    have done.  Every other row (repeated or NaN eigenvalues) runs the
    greedy itself, in _greedy_row.
    """
    if a.imag.any() or b.imag.any():
        d = np.abs(a[..., :, None] - b[..., None, :])
    else:
        # hypot(x, 0) = |x|: the real parts give every distance's bits,
        # in one float array where the complex path needs a complex one
        # and a float one.
        d = a.real[..., :, None] - b.real[..., None, :]
        np.abs(d, out=d)
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape, dtype=np.intp), np.zeros(len(a))
    partner = d.argmin(axis=-1)
    nearest = np.take_along_axis(d, partner[..., None], axis=-1)[..., 0]
    strict = ((d == nearest[..., None]).sum(axis=-1) == 1).all(axis=-1)
    distinct = (np.sort(partner, axis=-1) == np.arange(n)).all(axis=-1)
    for r in np.flatnonzero(~(strict & distinct)):
        partner[r] = _greedy_row(d[r])
        nearest[r] = d[r, np.arange(n), partner[r]]
    return partner, nearest.max(axis=-1)


def spectrum_pairing(eigs_a, eigs_b) -> np.ndarray:
    """Greedy minimal-distance pairing of two equal-size eigenvalue multisets.

    Repeatedly matches the globally closest unmatched pair, ties taken in
    the order np.argsort sorts the n x n distances in; returns, for each
    entry of eigs_a, the index of its partner in eigs_b.  Takes two 1-D
    spectra of one length.

    Where each entry's nearest partner is strictly nearest and no two
    entries share one, those partners are the greedy pairing and nothing
    is sorted; otherwise the greedy runs in array passes over windows of
    the sorted distances.
    """
    a, b = _as_spectra(eigs_a, eigs_b, stacks=False)
    return _pair(a, b)[0][0]


def spectrum_match_distance(eigs_a, eigs_b) -> float:
    """Largest distance in the greedy pairing of two eigenvalue multisets --
    a Hausdorff-style gap between the multisets (see spectrum_pairing).

    Takes two 1-D spectra of one length, or two (k, n) stacks of one shape,
    paired row by row: a stack gives the largest of its rows' distances,
    from one pass over the whole stack.  Empty spectra give 0.0.
    """
    a, b = _as_spectra(eigs_a, eigs_b, stacks=True)
    return float(_pair(a, b)[1].max(initial=0.0))
