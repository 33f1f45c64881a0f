"""Discrete-time execution of periodic gossip on a path, with link failures.

One period applies the (2,3), (4,5), ... matching first and the (1,2),
(3,4), ... matching second, through the same kernel (matrices.apply_period)
that builds the primitive gossip matrix.  Link failures are drawn once per
edge per period: a failed edge gets weight 0 in that period, which skips its
pairwise update entirely.  Averaged over the draws, each edge acts as the
weighted update at (1-p) w, the weight of the expected-matrix model.

Randomness comes from the counter-based Philox generator seeded through
numpy's SeedSequence; independent trials derive their streams from the same
seed via distinct spawn keys, so every result is reproducible from
(seed, trial index) alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrices import apply_period

RNG_ALGORITHM = "philox4x64 via numpy SeedSequence(entropy=seed, spawn_key=(trial,))"


@dataclass(frozen=True)
class SimConfig:
    n: int
    w: float
    p: float
    seed: int
    max_periods: int = 200
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        if not 0.0 < self.w < 1.0:
            raise ValueError(f"gossip weight must lie in (0, 1), got {self.w}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"failure probability must lie in [0, 1], got {self.p}")
        if self.max_periods < 1:
            raise ValueError(f"max_periods must be >= 1, got {self.max_periods}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True, eq=False)
class SimResult:
    periods_elapsed: int
    converged: bool
    disagreement_trace: tuple[float, ...]
    empirical_rate: float | None
    final_states: np.ndarray
    rng_algorithm: str = RNG_ALGORITHM


@dataclass(frozen=True)
class MonteCarloRate:
    """Mean empirical rate over independent trials with its standard error."""

    mean: float
    stderr: float
    trials: int
    rates: tuple[float, ...] = field(repr=False, default=())


def _trial_rng(seed: int, trial: int | None = None) -> np.random.Generator:
    key = () if trial is None else (trial,)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _empirical_rate(trace: list[float]) -> float | None:
    """1 minus the geometric mean of the period ratios over the trace tail.

    Uses the ratios d_{k+1}/d_k restricted to the last half of the trace and
    needs at least 4 recorded periods; returns None otherwise, or when a
    zero disagreement makes the ratios degenerate.
    """
    if len(trace) < 4:
        return None
    ratios = [trace[k + 1] / trace[k]
              for k in range(len(trace) - 1) if trace[k] > 0.0]
    tail = ratios[len(ratios) // 2:]
    if not tail or min(tail) <= 0.0:
        return None
    log_mean = sum(math.log(r) for r in tail) / len(tail)
    return 1.0 - math.exp(log_mean)


def _run(x: np.ndarray, w: float, p: float, max_periods: int,
         tolerance: float, rng: np.random.Generator) -> SimResult:
    n = x.size
    trace: list[float] = []
    converged = False
    for _ in range(max_periods):
        if p > 0.0:
            apply_period(x, np.where(rng.random(n - 1) >= p, w, 0.0))
        else:
            apply_period(x, w)
        trace.append(float(x.max() - x.min()))
        if trace[-1] <= tolerance:
            converged = True
            break
    return SimResult(periods_elapsed=len(trace), converged=converged,
                     disagreement_trace=tuple(trace),
                     empirical_rate=_empirical_rate(trace),
                     final_states=x)


def run_periodic_gossip(config: SimConfig, initial) -> SimResult:
    """Run one seeded gossip trajectory from the given initial states."""
    x = np.array(initial, dtype=float).ravel()
    if x.size != config.n:
        raise ValueError(
            f"initial state has length {x.size}, expected n={config.n}")
    rng = _trial_rng(config.seed)
    return _run(x, config.w, config.p, config.max_periods, config.tolerance,
                rng)


def monte_carlo_rate(config: SimConfig, trials: int) -> MonteCarloRate:
    """Mean empirical rate over trials with fresh uniform initial states.

    Each trial uses its own derived random stream (covering both the
    initial vector and the failure draws), so the full experiment is
    reproducible from config.seed.  Trials that give no rate (fewer than 4
    periods, or a disagreement of exactly 0 in the trace's tail, see
    _empirical_rate) are dropped from the average, so a budget of fewer
    than 4 periods is rejected before any trial runs.
    """
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    if config.max_periods < 4:
        raise ValueError(f"measuring a rate needs max_periods >= 4, "
                         f"got {config.max_periods}")
    rates: list[float] = []
    for trial in range(trials):
        rng = _trial_rng(config.seed, trial)
        x = rng.random(config.n)
        result = _run(x, config.w, config.p, config.max_periods,
                      config.tolerance, rng)
        if result.empirical_rate is not None:
            rates.append(result.empirical_rate)
    if not rates:
        raise RuntimeError(
            "no trial gave a measurable rate (each converged in under 4 "
            "periods or reached a disagreement of exactly 0)")
    mean = sum(rates) / len(rates)
    if len(rates) > 1:
        var = sum((r - mean) ** 2 for r in rates) / (len(rates) - 1)
        stderr = math.sqrt(var / len(rates))
    else:
        stderr = 0.0
    return MonteCarloRate(mean=mean, stderr=stderr, trials=len(rates),
                          rates=tuple(rates))
