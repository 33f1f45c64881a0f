"""Tests for the discrete-time gossip simulator.

Proves:
  1. Tiny deterministic runs behave exactly as hand analysis says: fully
     failed links freeze the system.
  2. Every run conserves the average and replays bit-identically from the
     same seed.
  3. With reliable links the disagreement trace contracts monotonically
     and the fitted empirical rate lands on the closed-form rate.
  4. monte_carlo_rate aggregates independent per-trial streams: trial
     streams never shift when the trial count changes, a single trial has
     zero standard error, and the p = 0 ensemble mean lands within three
     standard errors of the closed form.  A period budget too short to
     measure a rate is rejected before any trial runs, and a run whose
     every trial is dropped says why: too short, or an exact-zero
     disagreement.
  5. With failing links the ensemble mean lands near the expected-matrix
     rate; the residual bias of the random process against that averaged
     proxy stays below eight percent and is reported for inspection.
  6. Configuration and input validation reject out-of-range arguments,
     fewer than 3 nodes among them.
"""
import numpy as np
import pytest

from latticegossip import sim
from latticegossip.rates import rate_link_failure, rate_weighted
from latticegossip.sim import (MonteCarloRate, SimConfig, SimResult,
                               monte_carlo_rate, run_periodic_gossip)

# --- tiny deterministic runs ----------------------------------------------------


def test_fully_failed_links_freeze_the_state():
    config = SimConfig(n=5, w=0.5, p=1.0, seed=4, max_periods=12)
    x0 = [1.0, 0.0, 0.0, 0.0, 0.0]
    result = run_periodic_gossip(config, x0)
    assert not result.converged
    assert result.periods_elapsed == 12
    assert np.array_equal(result.final_states, x0)
    trace = np.asarray(result.disagreement_trace)
    assert np.ptp(trace) == 0.0
    assert result.empirical_rate == pytest.approx(0.0, abs=1e-15)


def test_rng_stream_is_documented():
    config = SimConfig(n=4, w=0.5, p=0.5, seed=1)
    result = run_periodic_gossip(config, [1.0, 0.0, 0.0, 0.0])
    assert isinstance(result, SimResult)
    assert "seed" in result.rng_algorithm


# --- conservation and determinism --------------------------------------------------


@pytest.mark.parametrize("n,w,p,seed", [
    (4, 0.5, 0.0, 0),
    (9, 0.3, 0.5, 11),
    (16, 0.7, 0.2, 3),
    (7, 0.5, 0.9, 21),
])
def test_average_is_conserved(n, w, p, seed):
    config = SimConfig(n=n, w=w, p=p, seed=seed, max_periods=150)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(size=n)
    result = run_periodic_gossip(config, x0)
    assert np.mean(result.final_states) == pytest.approx(np.mean(x0),
                                                         abs=1e-10)


def test_replay_is_bit_identical():
    config = SimConfig(n=8, w=0.6, p=0.4, seed=1234, max_periods=80)
    x0 = np.linspace(0.0, 1.0, 8)
    a = run_periodic_gossip(config, x0)
    b = run_periodic_gossip(config, x0)
    assert a.disagreement_trace == b.disagreement_trace
    assert np.array_equal(a.final_states, b.final_states)
    assert a.empirical_rate == b.empirical_rate
    assert a.periods_elapsed == b.periods_elapsed


@pytest.mark.parametrize("n", [4, 9, 13, 20])
def test_disagreement_contracts_with_reliable_links(n):
    for seed in range(25):
        config = SimConfig(n=n, w=0.5, p=0.0, seed=seed, max_periods=50)
        x0 = np.random.default_rng(1000 + seed).uniform(size=n)
        trace = run_periodic_gossip(config, x0).disagreement_trace
        diffs = np.diff(trace[1:])
        assert (diffs <= 1e-15).all()


# --- empirical rate fitting ----------------------------------------------------------


def test_basis_probe_recovers_half_weight_rate():
    config = SimConfig(n=4, w=0.5, p=0.0, seed=0, max_periods=200)
    x0 = np.zeros(4)
    x0[0] = 1.0
    result = run_periodic_gossip(config, x0)
    assert result.empirical_rate == pytest.approx(0.5, abs=0.02)
    assert result.converged
    assert result.disagreement_trace[-1] <= config.tolerance


@pytest.mark.parametrize("n,w", [(5, 0.5), (10, 0.3), (10, 0.7)])
def test_random_probe_tracks_closed_form(n, w):
    config = SimConfig(n=n, w=w, p=0.0, seed=42, max_periods=200)
    x0 = np.random.default_rng(9).uniform(size=n)
    result = run_periodic_gossip(config, x0)
    assert result.empirical_rate == pytest.approx(rate_weighted(n, w).rate,
                                                  abs=0.05)


# --- Monte Carlo aggregation -----------------------------------------------------------


def test_single_trial_has_zero_stderr():
    config = SimConfig(n=6, w=0.5, p=0.2, seed=5)
    mc = monte_carlo_rate(config, trials=1)
    assert mc.trials == 1
    assert mc.stderr == 0.0
    assert mc.mean == mc.rates[0]


def test_trial_streams_do_not_shift_with_trial_count():
    config = SimConfig(n=6, w=0.5, p=0.2, seed=5)
    one = monte_carlo_rate(config, trials=1)
    three = monte_carlo_rate(config, trials=3)
    assert three.rates[0] == one.rates[0]


def test_monte_carlo_reliable_links_within_three_stderr():
    # Tolerance well above the convergence floor so the tail ratios are not
    # dominated by rounding noise in the final periods.
    config = SimConfig(n=6, w=0.5, p=0.0, seed=123, tolerance=1e-9)
    mc = monte_carlo_rate(config, trials=50)
    target = rate_weighted(6, 0.5).rate
    margin = max(3 * mc.stderr, 1e-12)
    assert abs(mc.mean - target) <= margin


def test_monte_carlo_failing_links_lands_near_expected_matrix_rate():
    # The expected-matrix rate is a proxy: averaging the update before
    # taking the spectral gap is not the same as the gap of the random
    # process, and the process is measurably (a few percent) faster here.
    # The assertion bounds that structural bias; the print records it.
    config = SimConfig(n=6, w=0.5, p=0.3, seed=123, tolerance=1e-9)
    mc = monte_carlo_rate(config, trials=200)
    target = rate_link_failure(6, 0.3).rate
    rel_bias = (mc.mean - target) / target
    print(f"link-failure ensemble mean {mc.mean:.6f} vs expected-matrix "
          f"rate {target:.6f} (relative bias {rel_bias:+.4f}, "
          f"stderr {mc.stderr:.6f})")
    assert abs(rel_bias) <= 0.08


def test_monte_carlo_is_deterministic():
    config = SimConfig(n=5, w=0.5, p=0.5, seed=77)
    assert monte_carlo_rate(config, 8) == monte_carlo_rate(config, 8)


def test_monte_carlo_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        monte_carlo_rate(SimConfig(n=4, w=0.5, p=0.0, seed=0), 0)


def test_monte_carlo_rejects_a_budget_too_short_for_a_rate(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("trial ran although no rate can be measured")

    monkeypatch.setattr(sim, "_run", must_not_run)
    config = SimConfig(n=40, w=0.5, p=0.0, seed=0, max_periods=3)
    with pytest.raises(ValueError, match="max_periods >= 4"):
        monte_carlo_rate(config, 3)


def test_no_rate_from_a_long_trial_at_exact_agreement_names_that_cause():
    # Seed 0's one trial runs 271 periods and ends at a disagreement of
    # exactly 0, where the period ratios give no rate.
    config = SimConfig(n=5, w=0.5, p=0.5, seed=0, max_periods=100_000_000,
                       tolerance=1e-300)
    rng = sim._trial_rng(config.seed, 0)
    trial = sim._run(rng.random(config.n), config.w, config.p,
                     config.max_periods, config.tolerance, rng)
    assert trial.periods_elapsed == 271
    assert trial.disagreement_trace[-1] == 0.0
    assert trial.empirical_rate is None
    with pytest.raises(RuntimeError, match="under 4 periods") as info:
        monte_carlo_rate(config, 1)
    assert "disagreement of exactly 0" in str(info.value)


def test_monte_carlo_result_shape():
    mc = monte_carlo_rate(SimConfig(n=4, w=0.5, p=0.1, seed=2), 4)
    assert isinstance(mc, MonteCarloRate)
    assert len(mc.rates) == 4
    assert mc.stderr >= 0.0


# --- validation ----------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(n=1, w=0.5, p=0.0, seed=0),
    dict(n=4, w=0.0, p=0.0, seed=0),
    dict(n=4, w=1.0, p=0.0, seed=0),
    dict(n=4, w=0.5, p=-0.1, seed=0),
    dict(n=4, w=0.5, p=1.2, seed=0),
    dict(n=4, w=0.5, p=0.0, seed=0, max_periods=0),
    dict(n=4, w=0.5, p=0.0, seed=0, tolerance=0.0),
    dict(n=2, w=0.5, p=0.0, seed=0),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_initial_state_length_must_match():
    config = SimConfig(n=4, w=0.5, p=0.0, seed=0)
    with pytest.raises(ValueError):
        run_periodic_gossip(config, [1.0, 2.0, 3.0])
