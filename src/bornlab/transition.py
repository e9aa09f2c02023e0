"""Transition probability between pure states, by closed form and by a
Lagrange dual bound over the effects that accept the target.

The operational quantity is the acceptance probability of the extremal
effect that accepts the target state with certainty. Any effect E with
E|phi> = |phi> and 0 <= E <= I decomposes as |phi><phi| (+) F on the
orthogonal complement; the minimal one (F = 0) is the rank-1 projector and
gives |<phi|psi>|^2. The second route never forms that effect or the inner
product: it bounds the minimum from below by the Lagrange dual of the
constraint <phi|E|phi> = 1, read from one spectrum (Boyd & Vandenberghe,
Convex Optimization, ch. 5; Watrous, The Theory of Quantum Information,
sec. 1.2.3), so the two routes share no computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, StateVector

# a transition probability may leave [0, 1] by this much before it is clamped
TAU_RANGE_ATOL = 1e-9

# the largest dimension tau_optimized accepts, the one DUAL_ALLOWANCE is
# sized at; the CLI rejects larger tau configs with exit 2
MAX_DIM = 16
# the dual multiplier y: a power of two, so that y * Phi and y * tr(Phi) are
# exact, near the y that minimizes DUAL_GAP_BOUND at MAX_DIM
DUAL_MULTIPLIER = 2.0**22
# bounds the rounding of tau_optimized's value (derived there): 3.4e-8
DUAL_ALLOWANCE = 2 * (MAX_DIM + 2) * np.finfo(float).eps * (1 + DUAL_MULTIPLIER)
# the largest tau_closed - tau_optimized: the dual gap, at most
# 1 / (4 (y - 1)), plus the allowance twice: 1.3e-7
DUAL_GAP_BOUND = 1 / (4 * (DUAL_MULTIPLIER - 1)) + 2 * DUAL_ALLOWANCE


@dataclass(frozen=True)
class TransitionResult:
    """Transition probability; ``iterations`` is 0 for both routes (the
    benchmark's tracer reads it)."""

    value: float
    iterations: int = 0

    def __post_init__(self):
        if not -TAU_RANGE_ATOL <= self.value <= 1.0 + TAU_RANGE_ATOL:
            raise ValueError(f"transition probability {self.value} outside [0, 1]")
        object.__setattr__(self, "value", float(min(1.0, max(0.0, self.value))))


def _check_dims(psi: StateVector, phi: StateVector) -> None:
    if psi.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {phi.dim}")


def tau_closed(psi: StateVector, phi: StateVector) -> TransitionResult:
    """Closed form: squared modulus of the inner product."""
    _check_dims(psi, phi)
    overlap = np.vdot(phi.amplitudes, psi.amplitudes)
    return TransitionResult(value=float(abs(overlap) ** 2))


def tau_mixed(rho: DensityMatrix, phi: StateVector) -> float:
    """Affine extension to mixed inputs: trace(rho |phi><phi|)."""
    if rho.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {phi.dim}")
    return min(1.0, max(0.0, float(np.real(phi.amplitudes.conj() @ rho.matrix @ phi.amplitudes))))


def tau_optimized(psi: StateVector, phi: StateVector) -> TransitionResult:
    """Transition probability from below, by the Lagrange dual of the
    effects that accept phi.

    With Psi = |psi><psi| and Phi = |phi><phi|, the Lagrangian of
    min <psi|E|psi> over 0 <= E <= I with <phi|E|phi> = tr(Phi) is
    y tr(Phi) + tr((Psi - y Phi) E). Its minimum over the box is the dual
    g(y) = y tr(Phi) - ||(Psi - y Phi)_-||_1 <= tau for every y >= 0, and
    Psi - y Phi, of rank at most 2, has one negative eigenvalue once
    y tr(Phi) > tr(Psi): g(y) = y tr(Phi) + lambda_min. For unit vectors
    g(y) = ((1 + y) - sqrt((1 + y)^2 - 4 y tau)) / 2, so
    0 <= tau - g(y) <= tau (1 - tau) / (y - 1) <= 1 / (4 (y - 1)); off unit
    norm, g bounds |<phi|psi>|^2 / tr(Phi), the least feasible value.

    The value is g(DUAL_MULTIPLIER) less DUAL_ALLOWANCE, clamped at 0
    (tau >= 0). With eps = 2^-52 and d <= MAX_DIM, the allowance bounds:
    - forming Psi - y Phi: entry (i, j) is off by at most
      1.5 eps (|psi_i psi_j| + y |phi_i phi_j|), and a matrix bounded
      entrywise by |v| |v|^T has 2-norm at most |v|^2: 1.5 eps (1 + y);
    - eigvalsh, backward stable with p(d) taken as d (LAPACK Users' Guide,
      sec. 4.7): by Weyl's inequality, d eps ||Psi - y Phi||_2 <= d eps (1 + y);
    - tr(Phi), d rounded squares summed: (d + 1) eps y / 2; y tr(Phi) is
      exact, and the last sum and subtraction add eps.
    The total is at most 2 (d + 2) eps (1 + y), which also covers the
    closed form's own rounding, (d + 2) eps.
    """
    _check_dims(psi, phi)
    if psi.dim > MAX_DIM:
        raise ValueError(f"dimension {psi.dim} exceeds the maximum {MAX_DIM}")
    target = phi.projector()
    lowest = np.linalg.eigvalsh(psi.projector() - DUAL_MULTIPLIER * target)[0]
    bound = DUAL_MULTIPLIER * np.trace(target).real + lowest - DUAL_ALLOWANCE
    return TransitionResult(value=max(0.0, float(bound)))


def qubit_orthogonal(phi: StateVector) -> StateVector:
    """The unique (up to phase) qubit state orthogonal to phi."""
    if phi.dim != 2:
        raise ValueError("orthogonal complement state is defined here for qubits only")
    a, b = phi.amplitudes
    return StateVector(np.array([-np.conj(b), np.conj(a)]))


def complementarity_check(psi: StateVector, phi: StateVector) -> float:
    """Deviation |tau(psi, phi) + tau(psi, phi_perp) - 1| for a qubit pair.

    A sharp two-outcome test on {phi, phi_perp} resolves the identity, so
    the two transition probabilities are complementary.
    """
    _check_dims(psi, phi)
    if phi.dim != 2:
        raise ValueError("complementarity check is defined for qubits")
    t1 = tau_closed(psi, phi).value
    t2 = tau_closed(psi, qubit_orthogonal(phi)).value
    return abs(t1 + t2 - 1.0)
