"""Dense complex linear algebra substrate: states, effects, composite
systems, purification, and seeded random sampling.

All container types are immutable after construction and validate their
defining invariants at construction time. They compare and hash by
identity: the generated ``==`` and ``hash`` would compare and hash their
arrays, which raises. Tolerances are global: ``VALIDATION_ATOL`` for
constructor checks, ``RECONSTRUCTION_ATOL`` for round-trip identities
(eigensolver noise accumulates a few ulp per op, these leave headroom).

``DensityMatrix`` and ``Effect`` check their spectrum against
``VALIDATION_ATOL`` once. From dimension ``_CHOLESKY_MIN_DIM`` up, a
Cholesky factorization of ``h + VALIDATION_ATOL*I`` (and, for an effect,
of ``(1 + VALIDATION_ATOL)*I - h``) that succeeds proves the bound up to
rounding and accepts. Below that dimension, and whenever a factorization
fails, ``eigvalsh`` decides and names the offending eigenvalue. The two
routes can disagree only for an eigenvalue within rounding of the bound
(measured: at most 1.7e-15 away, at unit norm and dimension <= 64).

A rank-one effect v v^dagger has spectrum {|v|^2, 0, ..., 0}, so
``Effect.rank_one`` accepts it from |v|^2 alone, with no factorization,
and hands every rejection to the general constructor. |v|^2 can disagree
with the stored matrix's top eigenvalue only within about (d + 2) eps of
the bound at dimension d. Such an effect, and the pure conditional state
that ``steer`` makes from its branch, hold the vector as ``factor`` and
build their d x d ``matrix`` only when it is first read, so a measurement
of k rank-one members holds O(d k) numbers until a caller reads a matrix.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

VALIDATION_ATOL = 1e-9
RECONSTRUCTION_ATOL = 1e-8
POVM_SUM_ATOL = 1e-8

# From this dimension up, one shifted Cholesky costs well under an eigvalsh
# and two cost no more (timings in CHANGES.md); below it eigvalsh is cheaper.
_CHOLESKY_MIN_DIM = 16

#: Identifier of the seeded generator scheme. Outputs are bit-reproducible
#: for a fixed (seed, stream) across runs as long as this scheme is unchanged.
GENERATOR_SCHEME = "numpy-pcg64:v1"


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


def _as_complex_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    return arr


# an infinite entry makes inf - inf: the defect is then NaN, which fails the
# caller's check without a warning
@np.errstate(invalid="ignore")
def _hermiticity_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger) / 2."""
    return (matrix + matrix.conj().T) / 2


def _cholesky_accepts(h: np.ndarray, *, upper: bool) -> bool:
    """True when shifted Cholesky factorizations prove that the Hermitian
    ``h`` has spectrum >= -VALIDATION_ATOL and, with ``upper``, also
    <= 1 + VALIDATION_ATOL. False below ``_CHOLESKY_MIN_DIM`` or when a
    factorization fails; the caller's ``eigvalsh`` then decides."""
    if h.shape[0] < _CHOLESKY_MIN_DIM:
        return False
    eye = np.eye(h.shape[0])
    try:
        np.linalg.cholesky(h + VALIDATION_ATOL * eye)
        if upper:
            np.linalg.cholesky((1.0 + VALIDATION_ATOL) * eye - h)
    except np.linalg.LinAlgError:
        return False
    return True


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


class _Factored:
    """A value whose matrix may be held as v v^dagger by its vector ``factor``.

    One made by ``_from_factor`` has no ``matrix`` until that is first read;
    ``__getattr__`` then builds ``hermitize(np.outer(v, v.conj()))``,
    read-only, and keeps it. One made by its constructor has its matrix
    from the start and ``factor`` None.
    """

    factor: np.ndarray | None = None

    @classmethod
    def _from_factor(cls, vector: np.ndarray):
        value = object.__new__(cls)
        vector.setflags(write=False)
        object.__setattr__(value, "factor", vector)
        return value

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set
        factor = self.factor
        if name != "matrix" or factor is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        matrix = hermitize(np.outer(factor, factor.conj()))
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        return matrix

    @property
    def dim(self) -> int:
        return (self.matrix if self.factor is None else self.factor).shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Factored):
    """Mixed state: Hermitian, positive semidefinite, unit trace.

    A pure state that ``steer`` makes from a rank-one branch b b^dagger is
    held by its unit vector b / |b| as ``factor``: it is a state by
    construction, so it takes no spectrum check.

    ``trace_target`` supports deliberately sub-normalized operators (the
    barycenter of a truncated countable ensemble carries only the retained
    weight); the defect is declared by the caller, never silently
    renormalized away.
    """

    matrix: np.ndarray
    trace_target: InitVar[float] = 1.0

    def __post_init__(self, trace_target: float):
        arr = _as_complex_matrix(self.matrix)
        defect = _hermiticity_defect(arr)
        if not defect <= VALIDATION_ATOL:
            raise ValueError(f"density matrix hermiticity defect {defect}")
        # hermitizing an exactly Hermitian matrix gives the same bits
        h = arr if defect == 0.0 else hermitize(arr)
        if not _cholesky_accepts(h, upper=False):
            eigs = np.linalg.eigvalsh(h)
            if not eigs[0] >= -VALIDATION_ATOL:
                raise ValueError(f"density matrix has negative eigenvalue {eigs[0]}")
        tr = float(np.trace(arr).real)
        if not abs(tr - trace_target) <= VALIDATION_ATOL:
            raise ValueError(f"density matrix trace {tr} deviates from {trace_target}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True, eq=False)
class Effect(_Factored):
    """Measurement element: Hermitian with spectrum in [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_complex_matrix(self.matrix)
        defect = _hermiticity_defect(arr)
        if not defect <= VALIDATION_ATOL:
            raise ValueError(f"effect hermiticity defect {defect}")
        h = arr if defect == 0.0 else hermitize(arr)
        if not _cholesky_accepts(h, upper=True):
            eigs = np.linalg.eigvalsh(h)
            if not (eigs[0] >= -VALIDATION_ATOL and eigs[-1] <= 1.0 + VALIDATION_ATOL):
                raise ValueError(f"effect spectrum [{eigs[0]}, {eigs[-1]}] outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @staticmethod
    def rank_one(vector) -> "Effect":
        """The effect v v^dagger, held by its ``factor`` v; its ``matrix``,
        ``hermitize(np.outer(v, v.conj()))``, is built when first read.

        Its spectrum is {|v|^2, 0, ..., 0}, so it is accepted when |v|^2 is
        at most ``1 + VALIDATION_ATOL``. No lower check is needed: the
        eigenvalues of the rounded matrix are >= about -2 eps |v|^2, far
        above ``-VALIDATION_ATOL``. Otherwise ``Effect(matrix)`` decides, so
        a non-finite vector or a top eigenvalue past the bound raises the
        general constructor's message. At dimension d, |v|^2 lies within
        about (d + 2) eps |v|^2 of the matrix's top eigenvalue, so the two
        routes can disagree only that close to the bound (measured against
        ``eigvalsh``, which adds its own rounding: at most 1.1e-15 apart
        over 15000 unit vectors at d = 2 to 64).
        """
        v = _as_complex_vector(vector)
        if np.vdot(v, v).real <= 1.0 + VALIDATION_ATOL:
            return Effect._from_factor(v)
        # a non-finite or overflowing vector reaches Effect(matrix), which
        # rejects it without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            matrix = hermitize(np.outer(v, v.conj()))
        return Effect(matrix)


@dataclass(frozen=True, eq=False)
class Povm:
    """Complete measurement: effects of equal dimension summing to the identity."""

    outcomes: tuple[Effect, ...]

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        if not outcomes:
            raise ValueError("POVM needs at least one outcome")
        dim = outcomes[0].dim
        if any(e.dim != dim for e in outcomes):
            raise ValueError("POVM outcomes have mismatched dimensions")
        # the rank-one effects v v^dagger sum to F F^dagger, F's columns their factors
        total = sum((e.matrix for e in outcomes if e.factor is None), np.zeros((dim, dim), dtype=complex))
        factors = [e.factor for e in outcomes if e.factor is not None]
        if factors:
            f = np.stack(factors, axis=1)
            total += f @ f.conj().T
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if defect > POVM_SUM_ATOL:
            raise ValueError(f"POVM completeness defect {defect} exceeds {POVM_SUM_ATOL}")
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def dim(self) -> int:
        return self.outcomes[0].dim

    def __len__(self) -> int:
        return len(self.outcomes)


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
    effects = [Effect(hermitize(inv_sqrt @ g @ inv_sqrt)) for g in blocks]
    return Povm(tuple(effects))


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, tiny negative eigenvalues clipped.

    No bornlab routine calls it; ``perfbench/tracing.py`` still looks it up
    by name, so it stays until that span is dropped.
    """
    eigvals, eigvecs = np.linalg.eigh(hermitize(matrix))
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T


def fidelity_to_pure(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi| rho |psi>: fidelity between a mixed state and a pure target;
    |<psi|u>|^2 for a state held by its unit vector u."""
    if rho.dim != psi.dim:
        raise ValueError("dimension mismatch")
    if rho.factor is not None:
        return float(abs(np.vdot(psi.amplitudes, rho.factor)) ** 2)
    return float(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes))
