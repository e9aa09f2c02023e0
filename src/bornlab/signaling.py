"""End-to-end steering-amplification experiment on a two-level system.

Two preparations of the same marginal state: a split ensemble of two pure
states, and the direct, unsteered preparation. A distorted probability
rule assigns them different statistics for the same test effect; the
difference is the Jensen gap of the distortion. The full
steering pipeline and the analytic gap formula are computed independently
and compared, and a finite-sample simulation estimates how detectable the
gap is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .linalg import BipartiteState, DensityMatrix, Povm, StateVector, make_rng
from .rules import ENDPOINT_ATOL, PhiRule, phi_eval, prob_pure
from .steering import Ensemble, barycenter, steer, steering_setup
from .transition import tau_mixed

_NORMAL = NormalDist()


@dataclass(frozen=True)
class SteeringScenario:
    """Two-level steering setup with the split preparation's measurement
    attached.

    ``povm_split`` steers Bob into the two-member ensemble; the direct
    preparation of the barycenter needs no measurement. ``degenerate``
    flags equal target probabilities, where the two members coincide and
    every gap vanishes.

    The type checks nothing itself; each check has one owner.
    ``steering_setup`` builds the purification and measurement from the
    mixture's members, and their constructors check them. ``steer`` decides
    which branches are null. ``build_two_level_scenario`` is the only
    builder; a hand-built scenario whose purification does not match
    ``omega`` shows up as a large ``pipeline_discrepancy``.
    """

    p1: float
    p2: float
    lam: float
    phi: StateVector
    omega: DensityMatrix
    purification: BipartiteState
    povm_split: Povm
    degenerate: bool


@dataclass(frozen=True)
class ExperimentRecord:
    """Exact experiment outcome: both preparations' probabilities, their gap,
    and the deviation from the analytic Jensen-gap formula."""

    prob_split: float
    prob_direct: float
    gap: float
    analytic_gap: float
    pipeline_discrepancy: float


@dataclass(frozen=True)
class DetectabilityReport:
    """Finite-sample signal detection summary for one seeded run."""

    n_samples: int
    alpha: float
    prob_split: float
    prob_direct: float
    freq_split: float
    freq_direct: float
    z_statistic: float
    p_value: float
    rejected: bool
    insufficient_sample: bool
    sample_size_estimate: float


def _probability_amplitudes(p: float) -> StateVector:
    # real nonnegative amplitudes: a canonical, reproducible representative
    return StateVector(np.array([math.sqrt(p), math.sqrt(1.0 - p)], dtype=complex))


def build_two_level_scenario(p1: float, p2: float, lam: float) -> SteeringScenario:
    """Construct the qubit scenario hitting transition probabilities p1, p2.

    The test state is |0> and the preparations are sqrt(p)|0> +
    sqrt(1-p)|1>, mixed with weight ``lam``. Equal p1 and p2 make the two
    members identical; the scenario is then flagged degenerate, and the
    split is steered like any other.
    """
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie strictly between 0 and 1")

    phi = StateVector.basis(2, 0)
    # sqrt(p)|0> + sqrt(1-p)|1> has transition probability p to |0>, to rounding
    members = [_probability_amplitudes(p).amplitudes for p in (p1, p2)]
    mixture = Ensemble([lam, 1.0 - lam], members)
    omega = barycenter(mixture)
    purification, povm_split = steering_setup(mixture)
    return SteeringScenario(
        p1=float(p1),
        p2=float(p2),
        lam=float(lam),
        phi=phi,
        omega=omega,
        purification=purification,
        povm_split=povm_split,
        degenerate=p1 == p2,
    )


def jensen_gap(rule: PhiRule, p1: float, p2: float, lam: float) -> float:
    """lam Phi(p1) + (1-lam) Phi(p2) - Phi(lam p1 + (1-lam) p2).

    Zero for affine distortions; strictly positive (negative) when the
    distortion is strictly convex (concave) between distinct p1, p2.
    """
    for name, value in (("p1", p1), ("p2", p2), ("lambda", lam)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    mixture = lam * p1 + (1.0 - lam) * p2
    return lam * phi_eval(rule, p1) + (1.0 - lam) * phi_eval(rule, p2) - phi_eval(rule, mixture)


def run_steering_experiment(rule: PhiRule, scenario: SteeringScenario) -> ExperimentRecord:
    """Compare the two preparations' statistics for the test effect.

    The split arm runs the full pipeline: steer with the split measurement,
    apply the rule to each pure conditional preparation, and mix with the
    observed branch probabilities. The direct arm applies the rule to the
    mixed-state transition probability. Their difference is compared to the
    analytic Jensen gap; the two computations share no intermediate steps.

    A null branch (``SteeringResult.null``) is skipped: ``steer`` alone
    decides nullity. Every other branch is pure, held by its unit vector.
    The scenario is not checked again here: ``steering_setup`` checked it
    when it was built.
    """
    result = steer(scenario.purification, scenario.povm_split)
    prob_split = 0.0
    for index in np.flatnonzero(~result.null).tolist():
        member = StateVector(result.vectors[index])
        prob_split += float(result.probabilities[index]) * prob_pure(rule, member, scenario.phi)
    prob_direct = phi_eval(rule, tau_mixed(scenario.omega, scenario.phi))
    gap = prob_split - prob_direct
    analytic = jensen_gap(rule, scenario.p1, scenario.p2, scenario.lam)
    return ExperimentRecord(
        prob_split=prob_split,
        prob_direct=prob_direct,
        gap=gap,
        analytic_gap=analytic,
        pipeline_discrepancy=abs(gap - analytic),
    )


def _two_proportion_test(x1: int, x2: int, n: int) -> tuple[float, float]:
    """Pooled-variance two-proportion z statistic and two-sided p-value."""
    f1, f2 = x1 / n, x2 / n
    pooled = (x1 + x2) / (2.0 * n)
    variance = pooled * (1.0 - pooled) * (2.0 / n)
    if variance <= 0.0:
        return 0.0, 1.0
    z = (f1 - f2) / math.sqrt(variance)
    return z, 2.0 * (1.0 - _NORMAL.cdf(abs(z)))


def required_sample_size(prob_split: float, prob_direct: float, alpha: float = 0.05) -> float:
    """Per-arm sample estimate (z_{1-alpha/2} + z_{1-alpha})^2 * pbar(1-pbar) * 2 / gap^2.

    ``alpha`` is both the false-alarm rate and the miss rate (one minus
    power). The level quantile is two-sided, matching the two-sided test of
    ``_two_proportion_test``.
    """
    gap = prob_split - prob_direct
    if abs(gap) < 1e-15:
        return math.inf
    pbar = 0.5 * (prob_split + prob_direct)
    z_sum = _NORMAL.inv_cdf(1.0 - alpha / 2.0) + _NORMAL.inv_cdf(1.0 - alpha)
    return z_sum**2 * pbar * (1.0 - pbar) * 2.0 / gap**2


def _arm_probability(name: str, p: float) -> float:
    """``p`` clamped into [0, 1] if it lies within ``ENDPOINT_ATOL`` of it,
    where rounding can take an admissible rule's arm; ValueError otherwise."""
    if not -ENDPOINT_ATOL <= p <= 1.0 + ENDPOINT_ATOL:
        raise ValueError(f"{name} = {p!r} lies outside [0, 1]: the rule's values are not probabilities")
    return min(1.0, max(0.0, p))


def detectability(
    rule: PhiRule,
    scenario: SteeringScenario,
    n_samples: int,
    seed: int,
    alpha: float = 0.05,
) -> DetectabilityReport:
    """Simulate both arms and test whether their statistics differ.

    Each arm's success count among ``n_samples`` outcomes of the test effect
    is one Binomial(``n_samples``, p) draw, from an independent stream
    derived from ``seed`` (stream 1 for the split arm, 2 for the direct
    one), so time and memory do not depend on ``n_samples``. An arm
    probability within ``ENDPOINT_ATOL`` of [0, 1] is clamped into it;
    farther out, the rule's values are not probabilities and ValueError is
    raised before anything is drawn. A pooled two-proportion z-test is then
    applied. Runs with pooled expected counts below 5 are flagged
    insufficient and never claim a rejection. The report includes the
    analytic per-arm sample-size estimate with ``alpha`` as both error rates.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample per arm")
    record = run_steering_experiment(rule, scenario)
    p_split = _arm_probability("prob_split", record.prob_split)
    p_direct = _arm_probability("prob_direct", record.prob_direct)
    x_split = int(make_rng(seed, stream=1).binomial(n_samples, p_split))
    x_direct = int(make_rng(seed, stream=2).binomial(n_samples, p_direct))
    z, p_value = _two_proportion_test(x_split, x_direct, n_samples)
    pooled = (x_split + x_direct) / (2.0 * n_samples)
    expected = n_samples * pooled
    insufficient = min(expected, n_samples - expected) < 5.0
    return DetectabilityReport(
        n_samples=n_samples,
        alpha=alpha,
        prob_split=record.prob_split,
        prob_direct=record.prob_direct,
        freq_split=x_split / n_samples,
        freq_direct=x_direct / n_samples,
        z_statistic=z,
        p_value=p_value,
        rejected=bool(not insufficient and p_value < alpha),
        insufficient_sample=bool(insufficient),
        sample_size_estimate=required_sample_size(record.prob_split, record.prob_direct, alpha),
    )
