"""Truncated Fock space: coherent states, analytic overlap benchmarks, and
convergence of ensemble probabilities under countable thermal mixtures.

Infinite dimensions enter the laboratory only through convergence: every
truncated quantity must approach its analytic limit as the cutoff grows,
with the error controlled by the declared tail. Coherent-state overlaps
provide the closed-form benchmark; geometric number-state ensembles probe
stability of ensemble probabilities under countable mixing.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import StateVector
from .rules import PhiRule
from .steering import check_weight_sum
from .transition import TAU_RANGE_ATOL, tau_closed


def _squared_modulus(z: complex) -> float:
    """|z|^2, or inf where the float square overflows (|z| past ~1.34e154):
    the Gaussian factors below are then 0, as they are from |z| ~ 38.6 up."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    # iterative ratio c_{n+1} = c_n * alpha / sqrt(n+1): no factorial overflow
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = np.exp(-_squared_modulus(alpha) / 2.0)
    for n in range(n_max):
        amps[n + 1] = amps[n] * alpha / np.sqrt(n + 1.0)
    return amps


def tau_coherent_analytic(alpha: complex, beta: complex) -> float:
    """Transition probability between ideal coherent states: exp(-|a-b|^2)."""
    return float(np.exp(-_squared_modulus(complex(alpha) - complex(beta))))


def _check_cutoffs(n_list: list[int]) -> None:
    if list(n_list) != sorted(set(int(n) for n in n_list)) or not n_list:
        raise ValueError("cutoff list must be nonempty and strictly ascending")
    if any(n < 0 for n in n_list):
        raise ValueError("cutoffs must be nonnegative")


def truncation_convergence(
    alpha: complex, beta: complex, n_list: list[int]
) -> list[tuple[int, float]]:
    """Truncation error of the coherent overlap at each cutoff.

    Returns (N, |tau_truncated - tau_analytic|) pairs. Shallow cutoffs are
    allowed on purpose: the point is to watch the error fall as the cutoff
    deepens (strictly, within a 1e-14 floating point floor).
    """
    _check_cutoffs(n_list)
    exact = tau_coherent_analytic(alpha, beta)
    # by the recurrence, each cutoff's array is bit for bit a prefix of these
    raw_a = _coherent_amplitudes(complex(alpha), max(n_list))
    raw_b = _coherent_amplitudes(complex(beta), max(n_list))
    out = []
    for n in n_list:
        state_a = _truncated_coherent(raw_a[: n + 1], complex(alpha), n, "alpha")
        state_b = _truncated_coherent(raw_b[: n + 1], complex(beta), n, "beta")
        out.append((int(n), abs(tau_closed(state_a, state_b).value - exact)))
    return out


def _truncated_coherent(raw: np.ndarray, amplitude: complex, n: int, name: str) -> StateVector:
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
) -> list[tuple[int, float, float]]:
    """Convergence of the ensemble probability under deepening geometric
    number-state mixtures.

    For each cutoff N the ensemble probability of ``phi`` under the
    truncated thermal mixture {((1-r) r^n, |n>)}, n <= N, is compared to
    its value under the whole countable mixture. With D = ``phi.dim``,
    every level n >= D has tau = 0, so that value is exactly
    sum_{n<D} (1-r) r^n Phi(|phi_n|^2) + Phi(0) r^D. The deviation is
    guaranteed below the discarded tail weight r^(N+1) because member
    probabilities lie in [0, 1]. Returns (N, deviation, tail_bound)
    triples.

    Time and memory are O(D), plus one prefix sum per listed cutoff: a
    number-state member's transition probability is tau(|n>, phi) =
    |phi_n|^2, so no member state is built. The partial sums, and the
    reference's sum over n < D, are those of ``prob_ensemble`` over
    ``geometric_fock_ensemble`` bit for bit, with its checks and messages:
    the weights plus tail sum to 1, and each tau lies in [0, 1] before it
    is clamped. The CLI caps the cutoffs and the Fock index of the target
    (``bornlab.cli.MAX_CUTOFF``).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    _check_cutoffs(n_list)
    if phi.dim < max(n_list) + 1:
        raise ValueError(f"target state lives in dimension {phi.dim}, below cutoff {max(n_list)}")
    dim = phi.dim
    # the member weights as geometric_fock_ensemble writes them and
    # Ensemble stores them
    weights = [float((1.0 - r) * r**n) for n in range(dim)]
    check_weight_sum(math.fsum(weights) + r**dim)
    amps = phi.amplitudes
    # |phi_n| as abs() of a complex scalar gives it, squared by pow() as the
    # scalar ** 2 of tau_closed does: an array's ** 2 multiplies, which
    # differs from pow() in the last bit
    tau = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
    outside = np.flatnonzero(~((-TAU_RANGE_ATOL <= tau) & (tau <= 1.0 + TAU_RANGE_ATOL)))
    if outside.size:
        raise ValueError(f"transition probability {float(tau[outside[0]])} outside [0, 1]")
    # the clamped tau is Phi's argument, in [0, 1] as phi_eval requires
    terms = [w * p for w, p in zip(weights, rule.eval(np.clip(tau, 0.0, 1.0)).tolist())]
    # the levels n >= D, of total weight r^D, each contribute Phi(0)
    reference = math.fsum(terms) + rule.eval(0.0) * r**dim
    # each sum is math.fsum's correctly rounded one, as in prob_ensemble and
    # Ensemble, on every Python version; a running total would round differently
    out = []
    for n in n_list:
        n = int(n)
        check_weight_sum(math.fsum(weights[: n + 1]) + r ** (n + 1))
        out.append((n, abs(math.fsum(terms[: n + 1]) - reference), r ** (n + 1)))
    return out
