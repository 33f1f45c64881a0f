"""Periodic gossip on one-dimensional lattice (path) networks.

Builders for the per-period gossip matrices, closed-form characteristic
polynomials and eigenvalues of the corner-perturbed pentadiagonal family
they belong to, closed-form convergence rates (weighted and link-failure),
independent numeric oracles, and a discrete-time simulator.  The layers
pass plain numpy arrays: matrices are (n, n) float arrays and spectra are
complex eigenvalue arrays.
"""
from .matrices import (expected_failure_matrix, optimal_schedule,
                       pair_update_matrix, primitive_gossip_matrix)
from .oracle import (OracleSpectrum, determinant_shifted, eigenvalues,
                     enumerate_failure_expectation, full_spectrum,
                     plane_eigenvalues, spectral_gap_numeric,
                     spectrum_match_distance)
from .pentadiag import (PentaParams, analytic_eigenvalues, charpoly_bb,
                        charpoly_bb_bd, charpoly_bd_bd, link_failure_params,
                        penta_matrix, second_largest_modulus,
                        weighted_gossip_params)
from .rates import (RateResult, default_weight_grid, optimal_weight,
                    rate_link_failure, rate_weighted, relative_error)
from .sim import (MonteCarloRate, SimConfig, SimResult, monte_carlo_rate,
                  run_periodic_gossip)

__version__ = "0.1.0"

__all__ = [
    "expected_failure_matrix", "optimal_schedule", "pair_update_matrix",
    "primitive_gossip_matrix",
    "OracleSpectrum", "determinant_shifted", "eigenvalues",
    "enumerate_failure_expectation", "full_spectrum", "plane_eigenvalues",
    "spectral_gap_numeric", "spectrum_match_distance",
    "PentaParams", "analytic_eigenvalues", "charpoly_bb", "charpoly_bb_bd",
    "charpoly_bd_bd", "link_failure_params", "penta_matrix",
    "second_largest_modulus", "weighted_gossip_params",
    "RateResult", "default_weight_grid", "optimal_weight",
    "rate_link_failure", "rate_weighted", "relative_error",
    "MonteCarloRate", "SimConfig", "SimResult", "monte_carlo_rate",
    "run_periodic_gossip",
    "__version__",
]
