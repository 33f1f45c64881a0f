"""Gossip matrices for the n-node path network.

A period of the schedule activates two maximal matchings of the path: first
every edge (2,3), (4,5), ... then every edge (1,2), (3,4), ....
optimal_schedule states them, as integer arrays of node pairs.  The product
of one period's pairwise averaging matrices is the primitive gossip matrix
whose powers drive the consensus dynamics.  Every builder returns the dense
(n, n) array itself, or for a 1-D array of k weights the (k, n, n) stack.

One kernel, apply_period, applies a period to the rows of an array: the
builders apply it to a few seed columns per matrix, O(n) work
(_seed_diagonals: five for W, seven for the oracle's three-round product
S1(h) S2(w) S1(h)), and the simulator to the state.  The expected
one-period matrix under independent Bernoulli link failures with
probability p is not a family of its own: each edge's expected factor
p*I + (1-p)*P_w is the weighted pair update at (1-p)*w, and
_expected_weight is the one statement of that map.
"""
from __future__ import annotations

import numpy as np


def _check_pair(n: int, pair) -> None:
    i, j = pair
    if not (1 <= i < j <= n):
        raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
    if j != i + 1:
        raise ValueError(f"pair ({i}, {j}) is not a path edge "
                         f"(j must be i+1)")


def pair_update_matrix(n: int, pair, w: float) -> np.ndarray:
    """Identity except the 2x2 block [[1-w, w], [w, 1-w]] at rows/cols (i, j).

    pair is any 1-based (i, j) pair of adjacent nodes, such as a row of an
    optimal_schedule array.  w = 1/2 is the plain pairwise average; w = 1
    swaps the two states and w = 0 is the identity (both degenerate ends
    are allowed here).
    """
    _check_pair(n, pair)
    _unit_values(w, "gossip weight")
    m = np.eye(n)
    i, j = pair[0] - 1, pair[1] - 1
    m[i, i] = m[j, j] = 1.0 - w
    m[i, j] = m[j, i] = w
    return m


def optimal_schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-round periodic schedule covering every path edge exactly once.

    Returns (e1, e2), the rounds in the order they are applied, each an
    (m, 2) integer array of 1-based node pairs (i, i+1) in ascending order:
    e1 = (2,3), (4,5), ... and e2 = (1,2), (3,4), ... for every n.  Two
    rounds are optimal because the path needs two matchings to cover its
    edges (its chromatic index).
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n={n}")
    e1 = np.arange(2, n, 2)[:, None] + np.arange(2)
    e2 = np.arange(1, n, 2)[:, None] + np.arange(2)
    return e1, e2


def apply_period(x: np.ndarray, w) -> np.ndarray:
    """Apply one gossip period to the rows of x in place and return x.

    The e1 round (0-based edges i = 1, 3, ...) runs first, then the e2 round
    (i = 0, 2, ...); edge i updates rows i and i+1 to
    (1-w) x[i] + w x[i+1] and (1-w) x[i+1] + w x[i].  w is one weight for
    every edge or an array of per-edge weights: its first axis runs over
    the n-1 edges and its other axes broadcast against x.shape[1:], so
    (n-1,) gives each edge one weight and (n-1, k, 1) on an (n, k, c) x
    gives each block of c columns its own.  A weight of 0 leaves its pair
    unchanged.  Each column goes through the same floating-point operations
    as it would alone.
    """
    n = x.shape[0]
    per_edge = isinstance(w, np.ndarray)
    if per_edge:
        w = w.reshape((n - 1, 1) + (1,) * (x.ndim - w.ndim) + w.shape[1:])
    v = 1.0 - w
    for q in (1, 0):
        # Rows q, q+1, ... as m pairs; splitting the first axis is a view.
        m = (n - q) // 2
        pairs = x[q:q + 2 * m].reshape((m, 2) + x.shape[1:])
        wq, vq = (w[q::2], v[q::2]) if per_edge else (w, v)
        swapped = pairs[:, ::-1] * wq
        pairs *= vq
        pairs += swapped
    return x


def _unit_values(x, what: str) -> np.ndarray:
    """x as a float scalar or 1-D array whose every entry lies in [0, 1]
    (NaN does not)."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"{what} must be a scalar or a 1-D array, got "
                         f"shape {xs.shape}")
    good = (xs >= 0.0) & (xs <= 1.0)
    if not good.all():
        raise ValueError(f"{what} must lie in [0, 1], got "
                         f"{xs.flat[good.argmin()]}")
    return xs


def _seed_diagonals(n: int, k: int, width: int, *periods) -> np.ndarray:
    """The (width, n, k) diagonals of the k products M of the given periods,
    applied in turn (each a weight for apply_period), as
    diagonals[width // 2 + o, c] = M[c + o, c] for |o| <= width // 2.

    Column j of M is the periods applied to e_j.  Where M is zero off its
    width central diagonals, columns j and j + width never meet in one
    pair update, so the periods applied to width seed columns, seed
    j % width holding every e_j, give each column of M with the operations
    of its own e_j in O(n) per period (the column grouping of Curtis,
    Powell and Reid, J. Inst. Math. Appl. 13, 1974).  Rows c + o outside M
    wrap round and hold nothing of column c.
    """
    j = np.arange(n)
    seed_of = j % width
    seeds = np.zeros((n, k, width))
    seeds[j, :, seed_of] = 1.0
    for period in periods:
        apply_period(seeds, period)
    half = width // 2
    # Row c + o of seed c % width, every (o, c) in one gather.
    return seeds[(j + np.arange(-half, half + 1)[:, None]) % n, :, seed_of]


def _write_diagonal(out: np.ndarray, offset: int, values: np.ndarray) -> None:
    """Write the (n - |offset|, k) values to the entries (c + offset, c),
    c ascending, of the C-contiguous (k, n, n) out: one flat slice of step
    n + 1 per matrix."""
    k, n, _ = out.shape
    start = offset * n if offset >= 0 else -offset
    stop = start + (n - abs(offset) - 1) * (n + 1) + 1
    out.reshape(k, n * n)[:, start:stop:n + 1] = values.T


def primitive_gossip_matrix(n: int, w) -> np.ndarray:
    """One full period of weighted gossip: the e2 round applied after e1.

    Returns W = S2 @ S1 where S1/S2 multiply out the e1/e2 matchings, i.e.
    state evolves x -> S1 x -> S2 S1 x across one period.  The result is a
    doubly stochastic pentadiagonal matrix.  A 1-D array of k weights gives
    the (k, n, n) stack of their matrices; every weight is checked before
    anything is built.  W is built from five seed columns in O(n)
    (_seed_diagonals), each column with the operations of the period
    applied to its own e_j.
    """
    if n < 3:
        raise ValueError(f"primitive gossip matrix needs n >= 3, got n={n}")
    ws = _unit_values(w, "gossip weight")
    k = ws.size
    diagonals = _seed_diagonals(
        n, k, 5, np.broadcast_to(ws.reshape(1, k, 1), (n - 1, k, 1)))
    out = np.zeros((k, n, n))
    for offset in range(-2, 3):
        lo, hi = max(0, -offset), n - max(0, offset)
        _write_diagonal(out, offset, diagonals[2 + offset, lo:hi])
    return out if ws.ndim else out[0]


def _expected_weight(w=None, p=None):
    """The weight of the expected one-period matrix at gossip weight w (1/2
    when None) and link failure probability p (0 when None): link failure
    is weighted gossip at (1-p)*w.  Either value may be a scalar or an
    array; the caller checks them."""
    return (1.0 - (0.0 if p is None else p)) * (0.5 if w is None else w)


def expected_failure_matrix(n: int, p) -> np.ndarray:
    """Expected one-period matrix when each link independently fails.

    Each pairwise average is replaced by identity with probability p.
    Independence across edges makes the expectation of the period product
    the product of the per-edge expectations, so the matrix is
    primitive_gossip_matrix at _expected_weight(p=p).  A 1-D array of
    probabilities gives the stack of their matrices.
    """
    return primitive_gossip_matrix(
        n, _expected_weight(p=_unit_values(p, "failure probability")))
