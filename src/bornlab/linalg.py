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

A rank-one effect v v^dagger has spectrum {|v|^2, 0, ..., 0}. A ``Povm``
holds its rank-one outcomes by their vectors, the columns of one d x k
``factors`` matrix F, and accepts a column from |v|^2 alone, with no
eigendecomposition; a column past the bound goes to the general ``Effect``
constructor, which decides and names the rejection. |v|^2 can disagree with
the top eigenvalue of the rounded v v^dagger only within about (d + 2) eps
of the bound at dimension d. No d x d matrix is built for such an outcome,
so a measurement of k rank-one outcomes holds O(d k) numbers.
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
    ``-VALIDATION_ATOL``. Any other column goes to ``Effect``, so a
    non-finite column or a top eigenvalue past the bound raises the general
    constructor's message. At dimension d, |v|^2 lies within about
    (d + 2) eps |v|^2 of the matrix's top eigenvalue, so the two routes can
    disagree only that close to the bound (measured against ``eigvalsh``,
    which adds its own rounding: at most 1.1e-15 apart over 15000 unit
    vectors at d = 2 to 64).
    """
    # a non-finite or overflowing column reaches Effect(matrix), which
    # rejects it without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        squared = (factors.real**2 + factors.imag**2).sum(axis=0)
        for j in np.flatnonzero(~(squared <= 1.0 + VALIDATION_ATOL)):
            v = factors[:, j]
            Effect(hermitize(np.outer(v, v.conj())))


@dataclass(frozen=True, eq=False)
class Povm:
    """Complete measurement: effects of equal dimension summing to the identity.

    Its outcomes are, in order, the rank-one effects v v^dagger held by
    their vectors v, the columns of the d x k matrix ``factors`` (none if it
    is not given), and then the general ``effects``. Completeness sums the
    rank-one outcomes as one product F F^dagger.
    """

    effects: tuple[Effect, ...] = ()
    factors: np.ndarray | None = None

    def __post_init__(self):
        effects = tuple(self.effects)
        if self.factors is None:
            f = np.zeros((effects[0].dim if effects else 0, 0), dtype=complex)
        else:
            f = np.array(self.factors, dtype=complex)
        if f.ndim != 2:
            raise ValueError("POVM factors must be a d x k matrix")
        if f.size == 0 and not effects:
            raise ValueError("POVM needs at least one outcome")
        if any(e.dim != f.shape[0] for e in effects):
            raise ValueError("POVM outcomes have mismatched dimensions")
        _check_factor_columns(f)
        dim = f.shape[0]
        total = sum((e.matrix for e in effects), np.zeros((dim, dim), dtype=complex))
        total += f @ f.conj().T
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if defect > POVM_SUM_ATOL:
            raise ValueError(f"POVM completeness defect {defect} exceeds {POVM_SUM_ATOL}")
        f.setflags(write=False)
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "factors", f)

    @property
    def dim(self) -> int:
        return self.factors.shape[0]

    def __len__(self) -> int:
        return self.factors.shape[1] + len(self.effects)


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


def random_density_matrix(dim: int, seed: int, rank: int | None = None, stream: int = 0) -> DensityMatrix:
    """Random full- or fixed-rank mixed state from a Ginibre factor."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} outside [1, {dim}]")
    rng = make_rng(seed, stream)
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(hermitize(rho))


def random_povm(dim: int, n_outcomes: int, seed: int, stream: int = 0) -> Povm:
    """Random n-outcome POVM: Ginibre Gram blocks whitened by their sum."""
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    rng = make_rng(seed, stream)
    blocks = []
    for _ in range(n_outcomes):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(x @ x.conj().T)
    total = hermitize(sum(blocks))
    eigvals, eigvecs = np.linalg.eigh(total)
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
    return Povm(tuple(Effect(hermitize(inv_sqrt @ g @ inv_sqrt)) for g in blocks))


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, tiny negative eigenvalues clipped.

    No bornlab routine calls it; ``perfbench/tracing.py`` still looks it up
    by name, so it stays until that span is dropped.
    """
    eigvals, eigvecs = np.linalg.eigh(hermitize(matrix))
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T


def fidelity_to_pure(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi| rho |psi>: fidelity between a mixed state and a pure target."""
    if rho.dim != psi.dim:
        raise ValueError("dimension mismatch")
    return float(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes))
