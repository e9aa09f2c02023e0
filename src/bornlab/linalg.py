"""Dense complex linear algebra substrate: states, effects, composite
systems, purification, and seeded random sampling.

All container types are immutable after construction and validate their
defining invariants at construction time. They compare and hash by
identity: the generated ``==`` and ``hash`` would compare and hash their
arrays, which raises. Tolerances are global: ``VALIDATION_ATOL`` for
constructor checks, ``RECONSTRUCTION_ATOL`` for round-trip identities
and the steering residual of ``bornlab.steering.hjw_povm`` (eigensolver
noise accumulates a few ulp per op, these leave headroom).

``DensityMatrix`` and ``Effect`` check their spectrum once, by
``eigvalsh`` against ``VALIDATION_ATOL``, and a rejection names the
offending eigenvalue.

Every outcome of a ``Povm`` is rank-one, v v^dagger, held by its vector v,
a column of one d x k ``factors`` matrix F. Its spectrum is
{|v|^2, 0, ..., 0}, so a column is checked from |v|^2 alone, with no
eigendecomposition, and a measurement of k outcomes holds O(d k) numbers.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

VALIDATION_ATOL = 1e-9
RECONSTRUCTION_ATOL = 1e-8
POVM_SUM_ATOL = 1e-8

#: Identifier of the seeded generator scheme. Outputs are bit-reproducible
#: for a fixed (seed, stream) across runs as long as this scheme is unchanged.
#: v2: ``detectability`` takes each arm's count from one ``binomial`` call.
GENERATOR_SCHEME = "numpy-pcg64:v2"


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator; distinct ``stream`` values give independent,
    deterministically derived streams for the same seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def _as_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-D amplitude list")
    return arr


# an infinite entry makes inf - inf: the defect is then NaN, which fails the
# caller's check without a warning
@np.errstate(invalid="ignore")
def _hermiticity_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger) / 2."""
    return (matrix + matrix.conj().T) / 2


def _checked_spectrum(values, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The square matrix of ``values`` and the ascending spectrum of its
    Hermitian part, after rejecting a hermiticity defect beyond
    ``VALIDATION_ATOL``; ``name`` starts the message."""
    arr = np.array(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    defect = _hermiticity_defect(arr)
    if not defect <= VALIDATION_ATOL:
        raise ValueError(f"{name} hermiticity defect {defect}")
    # hermitizing an exactly Hermitian matrix gives the same bits
    return arr, np.linalg.eigvalsh(arr if defect == 0.0 else hermitize(arr))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state: unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.amplitudes)
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= VALIDATION_ATOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {VALIDATION_ATOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @staticmethod
    def basis(dim: int, index: int) -> "StateVector":
        """Computational basis state |index> in the given dimension."""
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} outside dimension {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return StateVector(amps)

    def projector(self) -> np.ndarray:
        """Rank-1 projector |psi><psi| as a plain matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state: Hermitian, positive semidefinite, unit trace.

    ``trace_target`` supports deliberately sub-normalized operators (the
    barycenter of a truncated countable ensemble carries only the retained
    weight); the defect is declared by the caller, never silently
    renormalized away.
    """

    matrix: np.ndarray
    trace_target: InitVar[float] = 1.0

    def __post_init__(self, trace_target: float):
        arr, eigs = _checked_spectrum(self.matrix, "density matrix")
        if not eigs[0] >= -VALIDATION_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs[0]}")
        tr = float(np.trace(arr).real)
        if not abs(tr - trace_target) <= VALIDATION_ATOL:
            raise ValueError(f"density matrix trace {tr} deviates from {trace_target}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Effect:
    """Measurement element: Hermitian with spectrum in [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        arr, eigs = _checked_spectrum(self.matrix, "effect")
        if not (eigs[0] >= -VALIDATION_ATOL and eigs[-1] <= 1.0 + VALIDATION_ATOL):
            raise ValueError(f"effect spectrum [{eigs[0]}, {eigs[-1]}] outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_factor_columns(factors: np.ndarray) -> None:
    """Raise unless each column v of ``factors`` is an effect v v^dagger.

    Its spectrum is {|v|^2, 0, ..., 0}, so it is accepted when |v|^2 is at
    most ``1 + VALIDATION_ATOL``. No lower check is needed: the eigenvalues
    of the rounded matrix are >= about -2 eps |v|^2, far above
    ``-VALIDATION_ATOL``. The first other column is named with its |v|^2.
    """
    # a non-finite or overflowing column gives a NaN or inf |v|^2, which
    # fails the check without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        squared = (factors.real**2 + factors.imag**2).sum(axis=0)
    bad = np.flatnonzero(~(squared <= 1.0 + VALIDATION_ATOL))
    if bad.size:
        j = bad[0]
        raise ValueError(f"POVM factor column {j} has squared norm {squared[j]}, not finite or above 1 + {VALIDATION_ATOL}")


@dataclass(frozen=True, eq=False)
class Povm:
    """Complete measurement: rank-one outcomes summing to the identity.

    Outcome j is v v^dagger, v column j of the d x k matrix ``factors``, and
    completeness sums the outcomes as one product F F^dagger.
    """

    factors: np.ndarray

    def __post_init__(self):
        f = np.array(self.factors, dtype=complex)
        if f.ndim != 2:
            raise ValueError("POVM factors must be a d x k matrix")
        if f.size == 0:
            raise ValueError("POVM needs at least one outcome")
        _check_factor_columns(f)
        defect = float(np.max(np.abs(f @ f.conj().T - np.eye(f.shape[0]))))
        if defect > POVM_SUM_ATOL:
            raise ValueError(f"POVM completeness defect {defect} exceeds {POVM_SUM_ATOL}")
        f.setflags(write=False)
        object.__setattr__(self, "factors", f)

    @property
    def dim(self) -> int:
        return self.factors.shape[0]

    def __len__(self) -> int:
        return self.factors.shape[1]


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Pure state of a composite AB system, stored as the dimA x dimB
    coefficient matrix of the tensor-product expansion."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("expected a nonempty 2-D amplitude matrix")
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= VALIDATION_ATOL:
            raise ValueError(f"bipartite norm {norm} deviates from 1 beyond {VALIDATION_ATOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]


def tensor(a: StateVector, b: StateVector) -> BipartiteState:
    """Product state a (x) b; amplitudes[i, j] = a[i] * b[j]."""
    return BipartiteState(np.outer(a.amplitudes, b.amplitudes))


def partial_trace_a(state: BipartiteState) -> DensityMatrix:
    """Reduced state on B after discarding A."""
    m = state.amplitudes
    rho = m.T @ m.conj()
    return DensityMatrix(hermitize(rho))


def purify(omega: DensityMatrix) -> BipartiteState:
    """Canonical purification with dimA = dimB.

    Eigendecomposes omega = sum_k s_k |e_k><e_k| and returns
    sum_k sqrt(s_k) |k>_A |e_k>_B. Zero eigenvalues are kept as zero Schmidt
    coefficients so the ancilla dimension never shrinks. The B marginal of
    the result reproduces omega within ``RECONSTRUCTION_ATOL``.
    """
    eigvals, eigvecs = np.linalg.eigh(hermitize(omega.matrix))
    eigvals = np.clip(eigvals, 0.0, None)
    # row k of the coefficient matrix is sqrt(s_k) * e_k
    m = np.sqrt(eigvals)[:, None] * eigvecs.T
    return BipartiteState(m)


def haar_random_state(dim: int, seed: int, stream: int = 0) -> StateVector:
    """Haar-random pure state: normalized complex Gaussian vector.

    Deterministic for fixed (seed, stream) under ``GENERATOR_SCHEME``.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = make_rng(seed, stream)
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        norm = np.linalg.norm(z)
        if norm > 1e-12:
            return StateVector(z / norm)


def random_povm(dim: int, n_outcomes: int, seed: int, stream: int = 0) -> Povm:
    """Random POVM of ``n_outcomes`` Ginibre Gram blocks X_i X_i^dagger
    whitened by their sum, each refined into its ``dim`` rank-one outcomes:
    the columns of S^(-1/2) X, with X = [X_1 ... X_n] and S = X X^dagger."""
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    rng = make_rng(seed, stream)
    x = np.hstack([rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n_outcomes)])
    eigvals, eigvecs = np.linalg.eigh(hermitize(x @ x.conj().T))
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
    return Povm(inv_sqrt @ x)


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, tiny negative eigenvalues clipped.

    No bornlab routine calls it; ``perfbench/tracing.py`` still looks it up
    by name, so it stays until that span is dropped.
    """
    eigvals, eigvecs = np.linalg.eigh(hermitize(matrix))
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T
