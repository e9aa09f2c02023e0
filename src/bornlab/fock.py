"""Truncated Fock space: coherent states, analytic overlap benchmarks, and
convergence of ensemble probabilities under countable thermal mixtures.

Infinite dimensions enter the laboratory only through convergence: every
truncated quantity must approach its analytic limit as the cutoff grows,
with the error controlled by the declared tail. Coherent-state overlaps
provide the closed-form benchmark; geometric number-state ensembles probe
stability of ensemble probabilities under countable mixing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import StateVector, embed_state
from .rules import PhiRule, prob_ensemble
from .steering import geometric_fock_ensemble
from .transition import tau_closed

DEFAULT_REFERENCE_PADDING = 50


@dataclass(frozen=True)
class CoherentSpec:
    """Coherent amplitude with a truncation deep enough to trust.

    The guardrail |alpha|^2 <= N/4 keeps the discarded Poisson tail below
    1e-6 for every spec that passes construction; probing shallower
    truncations deliberately is possible through
    ``truncation_convergence``, which takes raw amplitudes.
    """

    alpha: complex
    truncation_n: int

    def __post_init__(self):
        if self.truncation_n < 1:
            raise ValueError("truncation must be a positive integer")
        if abs(self.alpha) ** 2 > self.truncation_n / 4.0:
            raise ValueError(
                f"|alpha|^2 = {abs(self.alpha) ** 2:g} exceeds truncation/4 = {self.truncation_n / 4.0:g}"
            )
        object.__setattr__(self, "alpha", complex(self.alpha))


def _coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    # iterative ratio c_{n+1} = c_n * alpha / sqrt(n+1): no factorial overflow
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(n_max):
        amps[n + 1] = amps[n] * alpha / np.sqrt(n + 1.0)
    return amps


def coherent_vector(spec: CoherentSpec) -> tuple[StateVector, float]:
    """Truncated, renormalized coherent state and its pre-normalization
    tail deficit 1 - sum |c_n|^2."""
    raw = _coherent_amplitudes(spec.alpha, spec.truncation_n)
    captured = float(np.real(np.vdot(raw, raw)))
    deficit = max(0.0, 1.0 - captured)
    return StateVector(raw / np.sqrt(captured)), deficit


def tau_coherent_analytic(alpha: complex, beta: complex) -> float:
    """Transition probability between ideal coherent states: exp(-|a-b|^2)."""
    return float(np.exp(-abs(complex(alpha) - complex(beta)) ** 2))


def truncation_convergence(
    alpha: complex, beta: complex, n_list: list[int]
) -> list[tuple[int, float]]:
    """Truncation error of the coherent overlap at each cutoff.

    Returns (N, |tau_truncated - tau_analytic|) pairs. Cutoffs may sit
    below the CoherentSpec guardrail on purpose: the point is to watch the
    error fall as the cutoff deepens (strictly, within a 1e-14 floating
    point floor).
    """
    if list(n_list) != sorted(set(int(n) for n in n_list)):
        raise ValueError("cutoff list must be strictly ascending")
    if any(n < 0 for n in n_list):
        raise ValueError("cutoffs must be nonnegative")
    exact = tau_coherent_analytic(alpha, beta)
    out = []
    for n in n_list:
        state_a = _truncated_coherent(complex(alpha), n, "alpha")
        state_b = _truncated_coherent(complex(beta), n, "beta")
        out.append((int(n), abs(tau_closed(state_a, state_b).value - exact)))
    return out


def _truncated_coherent(amplitude: complex, n: int, name: str) -> StateVector:
    raw = _coherent_amplitudes(amplitude, n)
    norm = np.linalg.norm(raw)
    # exp(-|amplitude|^2/2) underflows to 0 past |amplitude| ~ 38.6, and
    # the squares of tiny entries underflow before that
    if not norm > 0.0:
        raise ValueError(
            f"coherent amplitude {name} = {amplitude}: the truncated vector at cutoff {n} underflows to norm 0"
        )
    return StateVector(raw / norm)


def sigma_affinity_convergence(
    rule: PhiRule,
    r: float,
    phi: StateVector,
    n_list: list[int],
    reference_padding: int = DEFAULT_REFERENCE_PADDING,
) -> list[tuple[int, float, float]]:
    """Convergence of the ensemble probability under deepening geometric
    number-state mixtures.

    For each cutoff N the ensemble probability of ``phi`` is compared to a
    reference computed ``reference_padding`` levels deeper; the deviation
    is guaranteed below the discarded tail weight r^(N+1) because member
    probabilities never exceed 1. Returns (N, deviation, tail_bound)
    triples.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    if list(n_list) != sorted(set(int(n) for n in n_list)) or not n_list:
        raise ValueError("cutoff list must be nonempty and strictly ascending")
    if any(n < 0 for n in n_list):
        raise ValueError("cutoffs must be nonnegative")
    if phi.dim < max(n_list) + 1:
        raise ValueError(f"target state lives in dimension {phi.dim}, below cutoff {max(n_list)}")
    n_ref = max(n_list) + reference_padding
    dim = max(phi.dim, n_ref + 1)
    target = embed_state(phi, dim)
    reference = prob_ensemble(rule, geometric_fock_ensemble(r, n_ref, dim), target).value
    out = []
    for n in n_list:
        value = prob_ensemble(rule, geometric_fock_ensemble(r, int(n), dim), target).value
        out.append((int(n), abs(value - reference), r ** (int(n) + 1)))
    return out
