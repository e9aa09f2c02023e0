"""Remote ensemble preparation through a shared purification.

Any pure-state decomposition of Bob's marginal can be realized by a
measurement on Alice's half of a purification: measuring outcome i steers
Bob into the i-th member with the member's weight as outcome probability.
The marginal Bob sees never depends on which measurement Alice chose; that
identity is exact linear algebra and is checkable here to solver precision.

``hjw_povm`` builds that measurement from two SVDs, of the ensemble's
weighted member rows and of the purification, and divides by no singular
value, so a nearly pure or nearly degenerate marginal steers like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    RECONSTRUCTION_ATOL,
    VALIDATION_ATOL,
    BipartiteState,
    DensityMatrix,
    Povm,
    hermitize,
    purify,
)

WEIGHT_SUM_ATOL = 1e-10
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
        # correctly rounded, as sigma_affinity_convergence adds them
        check_weight_sum(math.fsum(weights.tolist()) + tail_weight)
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
    """Bob's conditional preparations under one measurement of Alice's, one
    per outcome, in the measurement's outcome order.

    ``probabilities`` holds every outcome's probability, and row i of the
    k x d ``vectors`` is the unit vector of outcome i's pure conditional
    state. An outcome with probability below ``NULL_OUTCOME_PROB`` is null:
    there is nothing to normalize, so its row is zero.
    """

    probabilities: np.ndarray
    vectors: np.ndarray

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
    """Measurement on A whose branches steer B into the given ensemble
    (Hughston, Jozsa and Wootters 1993).

    Let N be the k x d matrix of weighted member rows (row i is
    sqrt(w_i) psi_i) and M the purification's coefficient matrix; both are
    square-root factors of B's marginal, M^T conj(M) = N^T conj(N). With the
    SVDs N^T = V S U^H and M^T = V_M S_M W^H, member i's outcome is
    v v^dagger with v = conj(x_i), x_i column i of

        x = W_r (V_M,r^H V_r) U_r^H,

    the r leading singular directions kept, r the numerical rank of N (the
    ``numpy.linalg.matrix_rank`` rule). Then M^T x = N^T, so branch i has
    probability w_i and conditional state |psi_i><psi_i|. The middle factor
    is a product of isometries, a contraction, so the outcomes sum to at
    most I by construction, and nothing is divided by a singular value. The
    v are the columns of the measurement's ``factors``, so no d x d matrix
    is built for them. When r < d_A the d_A - r rows of W^H past r, the A
    directions that x leaves unused, are appended as columns (a one-member
    ensemble's marginal has rank one). Their outcomes sum to the projector
    onto those directions, so the collection is complete, and each has
    probability zero up to rounding.

    Near a pure marginal the accuracy is the purification's: ``purify``'s
    ``eigh`` fixes a small Schmidt direction only to about sqrt(eps). At
    |p1 - p2| = 1e-9 in the two-level scenario 3 of 20000 seeded draws fail
    the support check, but members within 1e-8 of one direction, turned by
    a Haar unitary, fail in 96 of 200 seeded CLI draws (d = 2 to 8, k = 2
    to d + 1; none unrotated) with completeness defects up to 0.98. ROADMAP
    item 2 replaces the route; ``tests/test_cli.py`` holds them as xfail.

    Raises ValueError if the ensemble barycenter does not match the
    purification's B marginal within ``RECONSTRUCTION_ATOL``, or if a
    member leaves the marginal's support: some column of M^T x - N^T has
    norm above ``RECONSTRUCTION_ATOL``.
    """
    if ensemble.dim != purification.dim_b:
        raise ValueError("ensemble dimension differs from the purified system")
    m_t = purification.amplitudes.T
    # B's marginal M^T conj(M), unchecked: a Gram matrix is positive, and
    # its trace is the squared norm of M, which BipartiteState checks is 1
    mismatch = float(np.max(np.abs(m_t @ m_t.conj().T - barycenter(ensemble).matrix)))
    if mismatch > RECONSTRUCTION_ATOL:
        raise ValueError(f"ensemble barycenter deviates from purified marginal by {mismatch}")

    # column i is sqrt(w_i) psi_i
    n_t = (np.sqrt(ensemble.weights)[:, None] * ensemble.amplitudes).T
    v, s, uh = np.linalg.svd(n_t, full_matrices=False)
    vm, _, wmh = np.linalg.svd(m_t)
    # N's numerical rank can exceed d_A while the barycenter check passes
    # (a member of weight ~1e-9 outside M's range); the residual names it
    r = min(int(np.count_nonzero(s > s[0] * max(n_t.shape) * np.finfo(float).eps)), purification.dim_a)
    x = wmh[:r].conj().T @ (vm[:, :r].conj().T @ v[:, :r]) @ uh[:r]
    support_defect = float(np.max(np.linalg.norm(m_t @ x - n_t, axis=0)))
    if support_defect > RECONSTRUCTION_ATOL:
        raise ValueError(f"ensemble member leaves the marginal's support (defect {support_defect})")
    return Povm(np.hstack([x.conj(), wmh[r:].T]))


def steering_setup(ensemble: Ensemble) -> tuple[BipartiteState, Povm]:
    """The one route by which callers steer: the canonical purification of
    the ensemble's barycenter and the ``hjw_povm`` measurement on it, so
    that ``steer(*steering_setup(ensemble))`` prepares the members."""
    purification = purify(barycenter(ensemble))
    return purification, hjw_povm(purification, ensemble)


def _steered_rows(state: BipartiteState, povm: Povm) -> np.ndarray:
    """Row i is b_i^T, where Bob's branch of the outcome v_i v_i^dagger is
    b_i b_i^dagger with b_i = M^T conj(v_i): all rows are one product."""
    return povm.factors.conj().T @ state.amplitudes


def steer(state: BipartiteState, povm_a: Povm) -> SteeringResult:
    """Measure A and collect Bob's conditional preparations.

    With coefficient matrix M of the state, the outcome v v^dagger (a
    column v of the measurement's ``factors``) leaves Bob in the
    unnormalized state tr_A[(v v^dagger x I)|Psi><Psi|] = b b^dagger with
    b = M^T conj(v), so every branch comes from one product and no square
    root of an effect is taken. The probability is |b|^2, and the
    conditional state is pure, held by its unit vector b / |b|, so no d x d
    branch is formed or checked.
    """
    if povm_a.dim != state.dim_a:
        raise ValueError(f"POVM dimension {povm_a.dim} differs from A side {state.dim_a}")
    rows = _steered_rows(state, povm_a)
    probabilities = (rows.real**2 + rows.imag**2).sum(axis=1)
    live = probabilities >= NULL_OUTCOME_PROB
    vectors = np.zeros_like(rows)
    np.divide(rows, np.sqrt(probabilities)[:, None], out=vectors, where=live[:, None])
    return SteeringResult(probabilities, vectors)


def verify_marginal_invariance(state: BipartiteState, povm1: Povm, povm2: Povm) -> float:
    """Max-norm distance between Bob's average states under two of Alice's
    measurement choices; zero (to solver precision) for any complete pair.

    Each average is the sum of ``steer``'s branches b_i b_i^dagger, the one
    product B^T conj(B) of their rows; no square root of an effect is taken.
    """

    def average_state(povm: Povm) -> np.ndarray:
        rows = _steered_rows(state, povm)
        return rows.T @ rows.conj()

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
