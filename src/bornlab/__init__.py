"""Numerical laboratory for operational transition probabilities and
probability-rule rigidity in finite-dimensional and truncated-Fock quantum
models.

The package computes the transition probability between pure states by a
closed form and by an optimizer over effects, realizes ensemble steering
through purification, measures the Jensen gap that a distorted probability
rule opens between two steering choices of the same marginal state, and
certifies numerically that only the undistorted (Born) rule closes that gap
everywhere.
"""

__version__ = "0.1.0"

from .linalg import (
    BipartiteState,
    DensityMatrix,
    Effect,
    Povm,
    StateVector,
    haar_random_state,
    partial_trace_a,
    purify,
    tensor,
)
from .rules import PhiRule, check_admissibility, phi_eval, prob_ensemble, prob_pure
from .steering import (
    Ensemble,
    SteeringResult,
    barycenter,
    geometric_fock_ensemble,
    hjw_povm,
    steer,
    verify_marginal_invariance,
)
from .transition import (
    TransitionResult,
    complementarity_check,
    tau_closed,
    tau_extremal_effect,
    tau_mixed,
    tau_optimized,
)
from .signaling import (
    ExperimentRecord,
    SteeringScenario,
    build_two_level_scenario,
    detectability,
    jensen_gap,
    run_steering_experiment,
)
from .rigidity import CertificationResult, RigidityReport, certify_identity, scan_gaps
from .fock import (
    sigma_affinity_convergence,
    tau_coherent_analytic,
    truncation_convergence,
)

__all__ = [
    "BipartiteState",
    "CertificationResult",
    "DensityMatrix",
    "Effect",
    "Ensemble",
    "ExperimentRecord",
    "PhiRule",
    "Povm",
    "RigidityReport",
    "StateVector",
    "SteeringResult",
    "SteeringScenario",
    "TransitionResult",
    "barycenter",
    "build_two_level_scenario",
    "certify_identity",
    "check_admissibility",
    "complementarity_check",
    "detectability",
    "geometric_fock_ensemble",
    "haar_random_state",
    "hjw_povm",
    "jensen_gap",
    "partial_trace_a",
    "phi_eval",
    "prob_ensemble",
    "prob_pure",
    "purify",
    "run_steering_experiment",
    "scan_gaps",
    "sigma_affinity_convergence",
    "steer",
    "tau_closed",
    "tau_coherent_analytic",
    "tau_extremal_effect",
    "tau_mixed",
    "tau_optimized",
    "tensor",
    "truncation_convergence",
    "verify_marginal_invariance",
]
