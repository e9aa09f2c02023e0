"""Remote ensemble preparation through a shared purification.

Any pure-state decomposition of Bob's marginal can be realized by a
measurement on Alice's half of a purification: measuring outcome i steers
Bob into the i-th member with the member's weight as outcome probability.
The marginal Bob sees never depends on which measurement Alice chose; that
identity is exact linear algebra and is checkable here to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    RECONSTRUCTION_ATOL,
    BipartiteState,
    DensityMatrix,
    Effect,
    Povm,
    StateVector,
    hermitize,
    partial_trace_a,
)

WEIGHT_SUM_ATOL = 1e-10
SUPPORT_ATOL = 1e-8
NULL_OUTCOME_PROB = 1e-12


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure-state decomposition, finite or truncated-countable.

    A truncated-countable ensemble declares the discarded tail weight
    explicitly; weights plus tail must account for all probability.
    """

    members: tuple[tuple[float, StateVector], ...]
    tail_weight: float = 0.0

    def __post_init__(self):
        members = tuple((float(w), s) for w, s in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        # written as `not ... <=` so that a NaN weight fails them
        if not all(-1e-12 <= w for w, _ in members):
            raise ValueError("ensemble weights must be nonnegative")
        if not -1e-12 <= self.tail_weight:
            raise ValueError("tail weight must be nonnegative")
        check_weight_sum(sum(w for w, _ in members) + self.tail_weight)
        dim = members[0][1].dim
        if any(s.dim != dim for _, s in members):
            raise ValueError("ensemble members have mismatched dimensions")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "tail_weight", float(self.tail_weight))

    @property
    def dim(self) -> int:
        return self.members[0][1].dim

    @cached_property
    def barycenter(self) -> DensityMatrix:
        """Weighted sum of member projectors, built on first use and kept:
        the ensemble is immutable, and so is the returned matrix.

        For a truncated-countable ensemble the sum carries only the retained
        weight; its trace defect equals the declared tail weight and is left
        visible rather than renormalized away.
        """
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for weight, member in self.members:
            acc += weight * member.projector()
        return DensityMatrix(hermitize(acc), trace_target=1.0 - self.tail_weight)


def check_weight_sum(total: float) -> None:
    """Raise unless an ensemble's weights plus tail, summed to ``total``,
    account for all probability within ``WEIGHT_SUM_ATOL``."""
    # written as `not ... <=` so that a NaN total fails it
    if not abs(total - 1.0) <= WEIGHT_SUM_ATOL:
        raise ValueError(f"weights plus tail sum to {total}, expected 1")


@dataclass(frozen=True)
class SteeringOutcome:
    """One measurement branch: its probability and Bob's conditional state.

    Outcomes with probability below ``NULL_OUTCOME_PROB`` carry no
    conditional state (None): there is nothing to normalize.
    """

    outcome_index: int
    probability: float
    conditional_state: DensityMatrix | None


def barycenter(ensemble: Ensemble) -> DensityMatrix:
    """The ensemble's barycenter (``Ensemble.barycenter``), built once per
    ensemble however many callers ask for it."""
    return ensemble.barycenter


def hjw_povm(purification: BipartiteState, ensemble: Ensemble) -> Povm:
    """Measurement on A whose branches steer B into the given ensemble.

    With coefficient matrix M of the purification, the rank-1 element for
    member (w, psi) is v v^dagger with v = conj(x), x the A-side vector
    solving M^T x = sqrt(w) psi. It is held by its factor v
    (``Effect.rank_one``), so no d x d matrix is built. Its branch then has
    probability w and conditional state |psi><psi|. Solvability of that
    linear system is exactly the condition that psi lies in the support of
    the marginal. A projector onto the unused A directions is appended as a
    remainder outcome when the marginal is rank-deficient (a one-member
    ensemble's has rank one), so the collection is complete.

    Raises ValueError if the ensemble barycenter does not match the
    purification's B marginal within ``RECONSTRUCTION_ATOL``, or if a
    member leaves the support by more than ``SUPPORT_ATOL``.
    """
    if ensemble.dim != purification.dim_b:
        raise ValueError("ensemble dimension differs from the purified system")
    marginal = partial_trace_a(purification).matrix
    target = barycenter(ensemble).matrix
    mismatch = float(np.max(np.abs(marginal - target)))
    if mismatch > RECONSTRUCTION_ATOL:
        raise ValueError(f"ensemble barycenter deviates from purified marginal by {mismatch}")

    dim_a = purification.dim_a
    m_t = purification.amplitudes.T
    # column i is sqrt(w_i) psi_i; all members are solved for at once
    rhs = np.stack([np.sqrt(w) * member.amplitudes for w, member in ensemble.members], axis=1)
    x = np.linalg.lstsq(m_t, rhs, rcond=1e-9)[0]
    support_defect = float(np.max(np.linalg.norm(m_t @ x - rhs, axis=0)))
    if support_defect > SUPPORT_ATOL:
        raise ValueError(
            f"ensemble member leaves the marginal's support (defect {support_defect})"
        )
    w_vecs = x.conj()
    effects = [Effect.rank_one(w_vec) for w_vec in w_vecs.T]
    remainder = hermitize(np.eye(dim_a, dtype=complex) - w_vecs @ w_vecs.conj().T)
    if float(np.max(np.linalg.eigvalsh(remainder))) > 1e-10:
        effects.append(Effect(remainder))
    return Povm(tuple(effects))


def _branch(state: BipartiteState, effect: Effect) -> np.ndarray:
    """Bob's unnormalized state tr_A[(E x I)|Psi><Psi|] = M^T E^* conj(M)."""
    return state.amplitudes.T @ effect.matrix.conj() @ state.amplitudes.conj()


def steer(state: BipartiteState, povm_a: Povm) -> list[SteeringOutcome]:
    """Measure A and collect Bob's conditional preparations.

    With coefficient matrix M of the state, branch i is Bob's unnormalized
    state tr_A[(E_i x I)|Psi><Psi|] = M^T E_i^* conj(M). It is linear in the
    effect, so no square root of E_i is taken. Its real trace
    <Psi|(E_i x I)|Psi> is the branch probability, and the branch divided
    by that probability is the conditional state.

    A rank-one effect v v^dagger (one with a ``factor``, as every member
    effect of ``hjw_povm``) has the branch b b^dagger with b = M^T conj(v).
    All such b are the columns of one product M^T conj(F), F's columns the
    factors. The probability is |b|^2, and the conditional state is pure,
    held by its unit vector b / |b|, so no d x d branch is formed or
    checked. Other effects take the general route through ``_branch``.
    """
    if povm_a.dim != state.dim_a:
        raise ValueError(f"POVM dimension {povm_a.dim} differs from A side {state.dim_a}")
    factors = [e.factor for e in povm_a.outcomes if e.factor is not None]
    columns = iter((state.amplitudes.T @ np.stack(factors, axis=1).conj()).T if factors else ())
    outcomes = []
    for index, effect in enumerate(povm_a.outcomes):
        if effect.factor is None:
            branch = _branch(state, effect)
            prob = float(np.real(np.trace(branch)))
        else:
            b = next(columns)
            prob = float(np.vdot(b, b).real)
        if prob < NULL_OUTCOME_PROB:
            outcomes.append(SteeringOutcome(index, prob, None))
            continue
        if effect.factor is None:
            conditional = DensityMatrix(hermitize(branch / prob))
        else:
            conditional = DensityMatrix._from_factor(b / np.sqrt(prob))
        outcomes.append(SteeringOutcome(index, prob, conditional))
    return outcomes


def verify_marginal_invariance(state: BipartiteState, povm1: Povm, povm2: Povm) -> float:
    """Max-norm distance between Bob's average states under two of Alice's
    measurement choices; zero (to solver precision) for any complete pair.

    Each average is the sum of the unnormalized branches M^T E_i^* conj(M),
    one per effect, as in ``steer``; no square root of an effect is taken.
    """

    def average_state(povm: Povm) -> np.ndarray:
        acc = np.zeros((state.dim_b, state.dim_b), dtype=complex)
        for effect in povm.outcomes:
            acc += _branch(state, effect)
        return acc

    if povm1.dim != state.dim_a or povm2.dim != state.dim_a:
        raise ValueError("POVM dimension differs from A side")
    return float(np.max(np.abs(average_state(povm1) - average_state(povm2))))


def geometric_fock_ensemble(r: float, truncation_n: int, dim: int | None = None) -> Ensemble:
    """Truncated thermal ensemble {((1-r) r^n, |n>)} for n <= N.

    The discarded tail has the closed-form weight r^(N+1). ``dim`` embeds
    the members into a larger number-basis space (needed when comparing
    truncations of different depth against one reference).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    if truncation_n < 0:
        raise ValueError("truncation must be nonnegative")
    space = truncation_n + 1 if dim is None else dim
    if space < truncation_n + 1:
        raise ValueError(f"dimension {space} cannot hold number states up to {truncation_n}")
    members = tuple(
        ((1.0 - r) * r**n, StateVector.basis(space, n)) for n in range(truncation_n + 1)
    )
    return Ensemble(members=members, tail_weight=r ** (truncation_n + 1))
