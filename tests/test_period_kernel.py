"""Tests for the shared one-period kernel and the inputs it is guarded by.

Proves:
  1. apply_period reproduces the dense product of pair_update_matrix
     factors bit for bit, for one weight and for per-edge weights; a zero
     weight skips its edge exactly, and strided inputs give the same result.
  2. Link failure at probability p is weighted gossip at w = (1-p)/2: the
     expected matrix, the pentadiagonal parameters and the rate agree.
  3. monte_carlo_rate output is pinned to fixed bits, so a kernel that
     changes the arithmetic or the draw order is caught.
  4. The greedy eigenvalue pairing is a permutation whose largest distance
     is spectrum_match_distance.
  5. The eigensolver-failure fingerprint is a stable sha256 digest, on
     both eigenpair solves and both eigenvalues-only solves; a split solve
     names the matrix that was passed in, not its halves.
  6. spectrum rejects orders outside [3, MAX_SPECTRUM_ORDER] before it
     builds anything, and grid arguments are capped, rounding slack
     included, before they expand.  The slack past a grid's upper bound is
     at most half a step, and every grid the package, its tests and its
     benchmark use expands to the values it had under the step-free slack.
"""
import argparse
import ast
import hashlib
import pathlib
import re

import numpy as np
import pytest

from latticegossip import cli, matrices, oracle, pentadiag
from latticegossip.matrices import (apply_period, expected_failure_matrix,
                                    optimal_schedule, pair_update_matrix,
                                    primitive_gossip_matrix)
from latticegossip.rates import rate_link_failure, rate_weighted
from latticegossip.sim import SimConfig, monte_carlo_rate


def dense_period(n, weights):
    """S2 @ S1 from explicit pair_update_matrix products, weights per edge."""
    sched = optimal_schedule(n)
    rounds = []
    for matching in (sched.e1, sched.e2):
        m = np.eye(n)
        for pair in matching:
            m = pair_update_matrix(n, pair, weights[pair.i - 1]).entries @ m
        rounds.append(m)
    return rounds[1] @ rounds[0]


# --- the kernel against the dense product --------------------------------------


@pytest.mark.parametrize("n", [3, 4, 7, 10, 33, 64])
@pytest.mark.parametrize("w", [0.05, 0.3, 0.45, 0.5, 0.7, 0.95])
def test_primitive_matrix_is_bit_equal_to_dense_product(n, w):
    built = primitive_gossip_matrix(n, w).entries
    assert np.array_equal(built, dense_period(n, [w] * (n - 1)))


@pytest.mark.parametrize("n", [3, 6, 11])
def test_per_edge_weights_match_dense_product(n):
    weights = np.random.default_rng(n).uniform(0.0, 1.0, n - 1)
    weights[::3] = 0.0
    built = apply_period(np.eye(n), weights)
    assert np.array_equal(built, dense_period(n, list(weights)))


def test_zero_weight_skips_the_edge_exactly():
    x = np.random.default_rng(1).random(7)
    weights = np.array([0.3, 0.0, 0.3, 0.0, 0.3, 0.0])
    out = apply_period(x.copy(), weights)
    # Edges 1, 3, 5 (the e1 round) are down; e2 mixes (0,1), (2,3), (4,5).
    assert out[6] == x[6]
    expected = x.copy()
    v = 1.0 - 0.3
    for i in (0, 2, 4):
        a, b = x[i], x[i + 1]
        expected[i], expected[i + 1] = v * a + 0.3 * b, 0.3 * a + v * b
    assert np.array_equal(out, expected)


def test_strided_inputs_give_the_contiguous_result():
    n = 9
    ref = apply_period(np.eye(n), 0.35)
    assert np.array_equal(apply_period(np.asfortranarray(np.eye(n)), 0.35), ref)
    x = np.random.default_rng(2).random(2 * n)
    strided = x[::2]
    expected = apply_period(strided.copy(), 0.35)
    apply_period(strided, 0.35)
    assert np.array_equal(x[::2], expected)


# --- link failure is weighted gossip at (1-p)/2 ---------------------------------


@pytest.mark.parametrize("n", [3, 4, 9, 20])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.35, 0.9, 1.0])
def test_link_failure_is_weighted_gossip_at_half_one_minus_p(n, p):
    w = (1.0 - p) / 2.0
    assert np.array_equal(expected_failure_matrix(n, p).entries,
                          primitive_gossip_matrix(n, w).entries)
    assert pentadiag.link_failure_params(n, p) == \
        pentadiag.weighted_gossip_params(n, w)
    if p < 1.0:
        assert rate_link_failure(n, p).rate == rate_weighted(n, w).rate


# --- simulator output pinned to bits --------------------------------------------


@pytest.mark.parametrize("n, w, p, seed, pinned", [
    (10, 0.5, 0.0, 123, ["0x1.87221887db5a8p-4", "0x1.87221ab442660p-4",
                         "0x1.87221accd3780p-4", "0x1.872218fc06d80p-4"]),
    (10, 0.5, 0.3, 123, ["0x1.a503c6e3f44a0p-5", "0x1.cbf2bed6d8c60p-5",
                         "0x1.bd3544eb25f70p-5", "0x1.acc0a4702c270p-5"]),
    (9, 0.7, 0.2, 2024, ["0x1.2c7f55b45802cp-3", "0x1.3a64ea01f6ec4p-3",
                         "0x1.447da421ef948p-3", "0x1.371a4dde1b12cp-3"]),
])
def test_monte_carlo_rates_are_pinned(n, w, p, seed, pinned):
    mc = monte_carlo_rate(SimConfig(n=n, w=w, p=p, seed=seed), trials=4)
    assert [r.hex() for r in mc.rates] == pinned


# --- eigenvalue pairing ----------------------------------------------------------


def test_pairing_is_a_permutation_realizing_the_match_distance():
    eigs = oracle.full_spectrum(primitive_gossip_matrix(12, 0.8)).eigenvalues
    shuffled = np.random.default_rng(3).permutation(eigs) + 1e-9
    partner = oracle.spectrum_pairing(eigs, shuffled)
    assert sorted(partner) == list(range(12))
    assert np.abs(eigs - shuffled[partner]).max() == \
        oracle.spectrum_match_distance(eigs, shuffled)


# --- eigensolver-failure fingerprint ---------------------------------------------


@pytest.mark.parametrize("solver, entry, m", [
    ("eig", oracle.full_spectrum, primitive_gossip_matrix(5, 0.3).entries),
    ("eigvals", oracle.spectral_gap_numeric,
     primitive_gossip_matrix(5, 0.3).entries),
    ("eigvalsh", oracle.spectral_gap_numeric, oracle.isospectral_matrix(5, 0.3)),
    # Even order: the solve runs on the reflection halves, and the message
    # names the matrix that was passed in.
    ("eigvals", oracle.spectral_gap_numeric,
     primitive_gossip_matrix(6, 0.8).entries),
    # A symmetric input to full_spectrum goes to the symmetric driver.
    ("eigh", oracle.full_spectrum, oracle.isospectral_matrix(5, 0.3)),
], ids=["eig-full_spectrum", "eigvals-spectral_gap_numeric",
        "eigvalsh-spectral_gap_numeric", "eigvals-spectral_gap_numeric-split",
        "eigh-full_spectrum"])
def test_eigensolver_failure_names_a_sha256_fingerprint(monkeypatch, solver,
                                                         entry, m):
    def fail(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(RuntimeError) as info:
        entry(m)
    assert hashlib.sha256(m.tobytes()).hexdigest()[:16] in str(info.value)


# --- validation before work -------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", str(oracle.MAX_SPECTRUM_ORDER + 1)],
    ["spectrum", "--n", "10000000", "--p", "0.2"],
    ["spectrum", "--n", "2", "--w", "0.4"],
])
def test_spectrum_rejects_order_before_building(monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("built before the order was checked")

    for module, name in ((matrices, "primitive_gossip_matrix"),
                         (matrices, "expected_failure_matrix"),
                         (pentadiag, "analytic_eigenvalues")):
        monkeypatch.setattr(module, name, must_not_run)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert str(info.value).startswith("error:")


@pytest.mark.parametrize("text", ["0:1:1e-12", "0:1e300:1e-300", "-1e308:1e308:1"])
def test_huge_grid_is_rejected_before_expansion(text):
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        cli._parse_grid(text)


@pytest.mark.parametrize("text", ["0.5:0.5:6e-16", "0.5:0.5:1e-16"])
def test_grid_cap_counts_the_rounding_slack(monkeypatch, text):
    # (hi - lo) / step is 0 here, but the loop runs up to a slack above hi:
    # 1.7 and 10 million points.  The loop must not start.
    def must_not_run(*args):
        raise AssertionError("grid expanded before its count was checked")

    monkeypatch.setattr(cli, "round", must_not_run, raising=False)
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        cli._parse_grid(text)


@pytest.mark.parametrize("text", ["0:inf:0.1", "nan:1:0.1", "0:1:nan"])
def test_non_finite_grid_is_rejected(text):
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_grid(text)


def test_huge_int_range_is_rejected_before_expansion():
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        cli._parse_int_range("3:1000000000000")


def test_huge_grid_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["link-failure", "--n", "5", "--p-grid", "0:1:1e-12"])
    assert info.value.code == 2


def test_grid_cap_leaves_ordinary_grids_alone():
    assert len(cli._parse_grid("0:1:0.05")) == 21
    assert len(cli._parse_grid("0.05:0.95:0.05")) == 19
    assert cli._parse_int_range("3:150") == list(range(3, 151))
    assert cli.MAX_GRID_POINTS >= 1000


# Grids whose step is below the step-free slack, where bounding the slack by
# half a step changed the expansion, with their values now.
FINE_STEP_GRIDS = [
    ("0.5:0.5:1e-13", [0.5]),
    ("0:1e-10:3e-11", [0.0, 3e-11, 6e-11, 9e-11]),
    ("1e6:1e6:1e-6", [1e6]),
]


# The grid expansion with the step-free slack hi + 1e-9 * max(1, |hi|) that
# _parse_grid used before its slack was bounded by half a step.
def step_free_expansion(text):
    lo, hi, step = (float(part) for part in text.split(":"))
    top = hi + 1e-9 * max(1.0, abs(hi))
    values = []
    k = 0
    while lo + k * step <= top:
        values.append(round(lo + k * step, 12))
        k += 1
    return values


def grids_in_use():
    """Every A:B:STEP literal in the package, the tests and the README but
    FINE_STEP_GRIDS, and every grid the benchmark's sweep-weight commands
    can draw."""
    root = pathlib.Path(__file__).resolve().parents[1]
    number = r"-?(?:\d+\.?\d*|\.\d+)(?:e-?\d+)?"
    pattern = re.compile(rf"(?<![\w.:]){number}:{number}:{number}(?![\w.:])")
    sources = [root / "src" / "latticegossip" / "cli.py", root / "README.md",
               *sorted((root / "tests").glob("*.py"))]
    texts = {t for path in sources for t in pattern.findall(path.read_text())}
    # The benchmark draws two adjacent weights of its W_GRID (an expression
    # evaluated here without importing the harness).
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    (w_grid,) = [node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["W_GRID"]]
    ws = eval(compile(ast.Expression(w_grid), "W_GRID", "eval"))
    texts |= {f"{a}:{b}:0.05" for a, b in zip(ws, ws[1:])}
    return sorted(texts - {text for text, _ in FINE_STEP_GRIDS})


def test_grids_in_use_expand_as_under_the_step_free_slack():
    expanded = 0
    for text in grids_in_use():
        try:
            values = cli._parse_grid(text)
        except argparse.ArgumentTypeError:
            continue  # rejected before the loop, by checks that did not change
        assert values == step_free_expansion(text), text
        expanded += 1
    # Six that expand among the package's, the tests' and the README's
    # literals, and the 18 benchmark grids.
    assert expanded >= 24


@pytest.mark.parametrize("text, expected", FINE_STEP_GRIDS)
def test_grid_runs_at_most_half_a_step_past_its_bound(text, expected):
    assert cli._parse_grid(text) == expected


def test_fine_step_at_a_single_weight_prints_one_row(capsys):
    assert cli.main(["sweep-weight", "--n", "5", "--w-grid",
                     "0.5:0.5:1e-13"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("5,0.5,")
