"""Transition probability between pure states, by closed form and by
constrained optimization over the effects that accept the target.

The operational quantity is the acceptance probability of the extremal
effect that accepts the target state with certainty. Any effect E with
E|phi> = |phi> and 0 <= E <= I decomposes as |phi><phi| (+) F on the
orthogonal complement; the minimal one (F = 0) is the rank-1 projector and
gives |<phi|psi>|^2. The optimizer minimizes <psi|E|psi> over the whole
d x d effect, starting from E = I, and reads its value from the effect it
ends on. Its first step still lands on the minimizer, so it is not yet an
independent route (ROADMAP.md, open item 1, plans a dual certificate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, StateVector, hermitize

# a transition probability may leave [0, 1] by this much before it is clamped
TAU_RANGE_ATOL = 1e-9

# the optimizer's guaranteed agreement with the closed form; it stops once
# the projected step moves less than a thousandth of it, a wide margin
TOLERANCE = 1e-6
# the largest dimension the optimizer accepts; the CLI rejects larger tau
# configs with exit 2
MAX_DIM = 16
MAX_ITERS = 5000


@dataclass(frozen=True)
class TransitionResult:
    """Transition probability with the optimizer's iteration count and residual.

    ``residual`` is the largest constraint violation of the effect the value
    was read from (0 for the closed form); ``iterations`` is 0 for the
    closed form.
    """

    value: float
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self):
        if not -TAU_RANGE_ATOL <= self.value <= 1.0 + TAU_RANGE_ATOL:
            raise ValueError(f"transition probability {self.value} outside [0, 1]")
        object.__setattr__(self, "value", float(min(1.0, max(0.0, self.value))))


class ConvergenceError(RuntimeError):
    """Optimizer ran out of iterations; the message names the best value found."""


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


def _clip_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the box 0 <= F <= I by eigenvalue clipping."""
    eigvals, eigvecs = np.linalg.eigh(hermitize(matrix))
    eigvals = np.clip(eigvals, 0.0, 1.0)
    return (eigvecs * eigvals) @ eigvecs.conj().T


def tau_optimized(
    psi: StateVector,
    phi: StateVector,
    max_iters: int = MAX_ITERS,
) -> TransitionResult:
    """Transition probability via constrained numerical minimization.

    Runs projected gradient on <psi|E|psi> over the effects C = {0 <= E <= I,
    E|phi> = |phi>}, starting from E = I, which accepts everything. The
    projection onto C is exact, P_C(X) = Phi + clip01(P X P) with
    Phi = |phi><phi| and P = I - Phi, so each step is
    E <- Phi + clip01(P E P - g g^dagger / |g|^2) with g = P psi. The
    objective is linear, so E = P_C(E - s |psi><psi|) is the optimality
    condition: the loop stops once a step moves E by at most a thousandth of
    TOLERANCE. The value is <psi|E|psi> of the last iterate.

    Raises ConvergenceError, whose message names the best value and residual,
    if the step criterion is not met within ``max_iters``.
    """
    _check_dims(psi, phi)
    if psi.dim > MAX_DIM:
        raise ValueError(f"dimension {psi.dim} exceeds optimizer maximum {MAX_DIM}")

    effect = np.eye(psi.dim, dtype=complex)
    g = psi.amplitudes - phi.amplitudes * np.vdot(phi.amplitudes, psi.amplitudes)
    weight = float(np.real(np.vdot(g, g)))
    if weight < 1e-30:
        # psi is parallel to phi: every feasible effect accepts it, E = I too
        return _assemble_result(phi, effect, psi, 0)

    target = phi.projector()
    perp = effect - target
    step_grad = np.outer(g, g.conj()) / weight
    step_tol = TOLERANCE * 1e-3
    iterations = 0
    for iterations in range(1, max_iters + 1):
        trial = target + _clip_spectrum(perp @ effect @ perp - step_grad)
        move = float(np.linalg.norm(trial - effect))
        effect = trial
        if move <= step_tol:
            return _assemble_result(phi, effect, psi, iterations)

    best = _assemble_result(phi, effect, psi, iterations)
    raise ConvergenceError(
        f"no convergence after {iterations} iterations (best value {best.value}, residual {best.residual})"
    )


def _assemble_result(phi: StateVector, effect: np.ndarray, psi: StateVector, iterations: int) -> TransitionResult:
    value = float(np.real(np.vdot(psi.amplitudes, effect @ psi.amplitudes)))
    eigs = np.linalg.eigvalsh(hermitize(effect))
    fix_violation = float(np.max(np.abs(effect @ phi.amplitudes - phi.amplitudes)))
    residual = max(fix_violation, max(0.0, -float(eigs[0])), max(0.0, float(eigs[-1]) - 1.0))
    return TransitionResult(value=value, iterations=iterations, residual=residual)


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
