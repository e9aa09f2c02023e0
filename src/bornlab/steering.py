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
    VALIDATION_ATOL,
    BipartiteState,
    DensityMatrix,
    Effect,
    Povm,
    hermitize,
)

WEIGHT_SUM_ATOL = 1e-10
SUPPORT_ATOL = 1e-8
NULL_OUTCOME_PROB = 1e-12


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """Weighted pure-state decomposition, finite or truncated-countable.

    Member i has weight ``weights[i]`` and the unit amplitude vector
    ``amplitudes[i]``; both arrays are read-only, and every row's norm is
    checked once, against ``VALIDATION_ATOL``. A truncated-countable
    ensemble declares the discarded tail weight explicitly; weights plus
    tail must account for all probability.

    ``members``, a sequence of (weight, ``StateVector``) pairs, is read into
    the same two arrays; ``perfbench/layers.py`` builds its ensembles so.
    """

    weights: np.ndarray
    amplitudes: np.ndarray
    tail_weight: float

    def __init__(self, weights=None, amplitudes=None, tail_weight: float = 0.0, *, members=None):
        if members is not None:
            weights = [w for w, _ in members]
            amplitudes = [s.amplitudes for _, s in members]
        weights = np.array(weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("ensemble needs at least one member")
        # written as `not ... <=` so that a NaN weight fails them
        if not (-1e-12 <= weights).all():
            raise ValueError("ensemble weights must be nonnegative")
        tail_weight = float(tail_weight)
        if not -1e-12 <= tail_weight:
            raise ValueError("tail weight must be nonnegative")
        # the builtin sum, in member order, as sigma_affinity_convergence adds them
        check_weight_sum(sum(weights.tolist()) + tail_weight)
        try:
            amps = np.array(amplitudes, dtype=complex)
        except ValueError:
            # rows of different lengths make no array
            raise ValueError("ensemble members have mismatched dimensions") from None
        if amps.ndim != 2 or amps.shape[0] != weights.size or amps.shape[1] == 0:
            raise ValueError(f"ensemble amplitudes of shape {amps.shape}: expected one nonempty row per weight")
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(amps, axis=1)
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= VALIDATION_ATOL))
        if off.size:
            raise ValueError(
                f"ensemble member {off[0]} has norm {norms[off[0]]}, deviating from 1 beyond {VALIDATION_ATOL}"
            )
        weights.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "tail_weight", tail_weight)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[1]

    @cached_property
    def barycenter(self) -> DensityMatrix:
        """Weighted sum of member projectors, built on first use and kept:
        the ensemble is immutable, and so is the returned matrix.

        With A the amplitude rows and w the weights it is the one product
        (A^T w) conj(A). For a truncated-countable ensemble the sum carries
        only the retained weight; its trace defect equals the declared tail
        weight and is left visible rather than renormalized away.
        """
        a = self.amplitudes
        return DensityMatrix(hermitize((a.T * self.weights) @ a.conj()), trace_target=1.0 - self.tail_weight)


def check_weight_sum(total: float) -> None:
    """Raise unless an ensemble's weights plus tail, summed to ``total``,
    account for all probability within ``WEIGHT_SUM_ATOL``."""
    # written as `not ... <=` so that a NaN total fails it
    if not abs(total - 1.0) <= WEIGHT_SUM_ATOL:
        raise ValueError(f"weights plus tail sum to {total}, expected 1")


@dataclass(frozen=True, eq=False)
class SteeringResult:
    """Bob's conditional preparations under one measurement of Alice's, in
    the measurement's outcome order: its k rank-one outcomes, then its
    general effects.

    ``probabilities`` holds every outcome's probability. Row i of the
    k x d ``vectors`` is the unit vector of rank-one outcome i's pure
    conditional state, and ``states`` holds the conditional state of each
    general effect. An outcome with probability below ``NULL_OUTCOME_PROB``
    is null: there is nothing to normalize, so its row is zero and its
    state None.
    """

    probabilities: np.ndarray
    vectors: np.ndarray
    states: tuple[DensityMatrix | None, ...]

    def __len__(self) -> int:
        return self.probabilities.size

    @property
    def null(self) -> np.ndarray:
        """Whether each outcome is null."""
        return self.probabilities < NULL_OUTCOME_PROB


def barycenter(ensemble: Ensemble) -> DensityMatrix:
    """The ensemble's barycenter (``Ensemble.barycenter``), built once per
    ensemble however many callers ask for it."""
    return ensemble.barycenter


def hjw_povm(purification: BipartiteState, ensemble: Ensemble) -> Povm:
    """Measurement on A whose branches steer B into the given ensemble.

    With coefficient matrix M of the purification, the rank-1 element for
    member (w, psi) is v v^dagger with v = conj(x), x the A-side vector
    solving M^T x = sqrt(w) psi. The v are the columns of the measurement's
    ``factors``, so no d x d matrix is built for them. Branch i then has
    probability w_i and conditional state |psi_i><psi_i|. Solvability of
    that linear system is exactly the condition that psi lies in the support
    of the marginal. A projector onto the unused A directions is appended as
    a remainder outcome when the marginal is rank-deficient (a one-member
    ensemble's has rank one), so the collection is complete; the spectrum
    that decides this is the one its ``Effect`` checks.

    Raises ValueError if the ensemble barycenter does not match the
    purification's B marginal within ``RECONSTRUCTION_ATOL``, or if a
    member leaves the support by more than ``SUPPORT_ATOL``.
    """
    if ensemble.dim != purification.dim_b:
        raise ValueError("ensemble dimension differs from the purified system")
    m_t = purification.amplitudes.T
    # B's marginal M^T conj(M), unchecked: a Gram matrix is positive, and
    # its trace is the squared norm of M, which BipartiteState checks is 1
    mismatch = float(np.max(np.abs(m_t @ m_t.conj().T - barycenter(ensemble).matrix)))
    if mismatch > RECONSTRUCTION_ATOL:
        raise ValueError(f"ensemble barycenter deviates from purified marginal by {mismatch}")

    # column i is sqrt(w_i) psi_i; all members are solved for at once
    rhs = (np.sqrt(ensemble.weights)[:, None] * ensemble.amplitudes).T
    x = np.linalg.lstsq(m_t, rhs, rcond=1e-9)[0]
    support_defect = float(np.max(np.linalg.norm(m_t @ x - rhs, axis=0)))
    if support_defect > SUPPORT_ATOL:
        raise ValueError(f"ensemble member leaves the marginal's support (defect {support_defect})")
    factors = x.conj()
    remainder = hermitize(np.eye(purification.dim_a, dtype=complex) - factors @ factors.conj().T)
    spectrum = np.linalg.eigvalsh(remainder)
    return Povm((Effect(remainder, spectrum),) if spectrum[-1] > 1e-10 else (), factors)


def _branch(state: BipartiteState, effect: Effect) -> np.ndarray:
    """Bob's unnormalized state tr_A[(E x I)|Psi><Psi|] = M^T E^* conj(M)."""
    return state.amplitudes.T @ effect.matrix.conj() @ state.amplitudes.conj()


def _rank_one_branches(state: BipartiteState, povm: Povm) -> np.ndarray:
    """Row i is b_i^T, where Bob's branch of the rank-one outcome v_i v_i^dagger
    is b_i b_i^dagger with b_i = M^T conj(v_i): all rows are one product."""
    return povm.factors.conj().T @ state.amplitudes


def steer(state: BipartiteState, povm_a: Povm) -> SteeringResult:
    """Measure A and collect Bob's conditional preparations.

    With coefficient matrix M of the state, branch i is Bob's unnormalized
    state tr_A[(E_i x I)|Psi><Psi|] = M^T E_i^* conj(M). It is linear in the
    effect, so no square root of E_i is taken. Its real trace
    <Psi|(E_i x I)|Psi> is the branch probability, and the branch divided
    by that probability is the conditional state.

    A rank-one outcome v v^dagger (a column of the measurement's
    ``factors``, as every member outcome of ``hjw_povm``) has the branch
    b b^dagger with b = M^T conj(v), so all of them come from one product.
    The probability is |b|^2, and the conditional state is pure, held by
    its unit vector b / |b|, so no d x d branch is formed or checked. General
    effects take the route through ``_branch``.
    """
    if povm_a.dim != state.dim_a:
        raise ValueError(f"POVM dimension {povm_a.dim} differs from A side {state.dim_a}")
    rows = _rank_one_branches(state, povm_a)
    probabilities = (rows.real**2 + rows.imag**2).sum(axis=1)
    live = probabilities >= NULL_OUTCOME_PROB
    vectors = np.zeros_like(rows)
    np.divide(rows, np.sqrt(probabilities)[:, None], out=vectors, where=live[:, None])
    general, states = [], []
    for effect in povm_a.effects:
        branch = _branch(state, effect)
        prob = float(np.real(np.trace(branch)))
        general.append(prob)
        states.append(DensityMatrix(hermitize(branch / prob)) if prob >= NULL_OUTCOME_PROB else None)
    return SteeringResult(np.concatenate([probabilities, general]), vectors, tuple(states))


def verify_marginal_invariance(state: BipartiteState, povm1: Povm, povm2: Povm) -> float:
    """Max-norm distance between Bob's average states under two of Alice's
    measurement choices; zero (to solver precision) for any complete pair.

    Each average is the sum of the unnormalized branches M^T E_i^* conj(M),
    one per outcome, as in ``steer``; the rank-one branches b_i b_i^dagger
    are summed as one product, and no square root of an effect is taken.
    """

    def average_state(povm: Povm) -> np.ndarray:
        rows = _rank_one_branches(state, povm)
        acc = rows.T @ rows.conj()
        for effect in povm.effects:
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
    weights = [(1.0 - r) * r**n for n in range(truncation_n + 1)]
    return Ensemble(weights, np.eye(truncation_n + 1, space, dtype=complex), tail_weight=r ** (truncation_n + 1))
