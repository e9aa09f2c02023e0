import json

import numpy as np
import pytest

from bornlab import linalg
from bornlab.cli import EXIT_OK, main
from bornlab.linalg import (
    VALIDATION_ATOL,
    BipartiteState,
    DensityMatrix,
    Effect,
    Povm,
    StateVector,
    fidelity_to_pure,
    haar_random_state,
    make_rng,
    partial_trace_a,
    purify,
    random_density_matrix,
    random_povm,
    tensor,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestConstruction:
    def test_state_vector_requires_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]))

    def test_state_vector_accepts_tolerable_norm(self):
        StateVector(np.array([1.0 + 1e-10, 0.0]))

    def test_density_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="hermiticity"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_effect_rejects_spectrum_above_one(self):
        with pytest.raises(ValueError, match="spectrum"):
            Effect(np.diag([1.5, 0.0]))

    def test_povm_rejects_incomplete_collection(self):
        half = Effect(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError, match="completeness"):
            Povm((half,))
        # rank-one outcomes are summed from their factors, alone or with effects
        zero = [[1], [0]]
        with pytest.raises(ValueError, match="completeness defect 1.0 "):
            Povm(factors=zero)
        with pytest.raises(ValueError, match="completeness defect 0.5 "):
            Povm((half,), zero)
        assert len(Povm(factors=np.eye(2))) == len(Povm((Effect(np.diag([0.0, 1.0])),), zero)) == 2

    def test_bipartite_requires_unit_frobenius_norm(self):
        with pytest.raises(ValueError, match="norm"):
            BipartiteState(np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_are_rejected(self, bad):
        # NaN compares false with every bound, so each check must fail on it
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="norm"):
                StateVector(np.array([bad, 0.0]))
            with pytest.raises(ValueError, match="hermiticity"):
                DensityMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))
            with pytest.raises(ValueError, match="hermiticity"):
                DensityMatrix(np.array([[0.0, bad], [bad, 1.0]]))
            with pytest.raises(ValueError, match="hermiticity"):
                Effect(np.array([[bad, 0.0], [0.0, 1.0]]))
            with pytest.raises(ValueError, match="norm"):
                BipartiteState(np.array([[bad, 0.0], [0.0, 0.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(np.inf, 1.0)])
    def test_infinite_entries_raise_without_a_warning(self, bad):
        # inf - inf in the hermiticity defect must not warn on its way to NaN
        for build in (DensityMatrix, Effect):
            with pytest.raises(ValueError, match="hermiticity"):
                build(np.array([[bad, 0.0], [0.0, 1.0]]))
            with pytest.raises(ValueError, match="hermiticity"):
                build(np.array([[0.0, bad], [bad, 1.0]]))

    def test_values_are_immutable(self):
        psi = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_constructors_hold_on_random_inputs(self):
        for seed in range(25):
            psi = haar_random_state(4, seed)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-9
            rho = random_density_matrix(4, seed)
            assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-9
            povm = random_povm(3, 4, seed)
            total = sum(e.matrix for e in povm.effects)
            assert np.max(np.abs(total - np.eye(3))) <= 1e-8


def placed_spectrum(dim: int, seed: int, end: str, offset: float) -> np.ndarray:
    """Hermitian matrix with a seeded random spectrum in [0.1, 0.9] except
    one eigenvalue placed ``offset`` from the bound at ``end``: -tol
    ("low") or 1 + tol ("high")."""
    rng = make_rng(seed, stream=5)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    spectrum = rng.uniform(0.1, 0.9, dim)
    spectrum[0] = (-VALIDATION_ATOL if end == "low" else 1.0 + VALIDATION_ATOL) + offset
    return linalg.hermitize((q * spectrum) @ q.conj().T)


def constructs(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return False
    return True


def cli_steer_counts(tmp_path, monkeypatch, members) -> dict:
    """Run a CLI steer of the given [weight, state] members and count the
    factorizations and eigendecompositions it makes."""
    doc = {
        "command": "steer",
        "seed": 0,
        "parameters": {"ensemble": {"members": [[w, [[z.real, z.imag] for z in s]] for w, s in members]}},
    }
    config = tmp_path / "steer.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    counts = dict.fromkeys(("cholesky", "eigh", "eigvalsh"), 0)
    for name in counts:
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    out = tmp_path / "steer.csv"
    assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    monkeypatch.undo()
    assert len(out.read_text(encoding="utf-8").splitlines()) > len(members)
    return counts


class TestSpectrumCheck:
    # Each matrix placed here has one eigenvalue just inside or just outside
    # a bound, and more than a band of dim * eps from it, so rounding cannot
    # decide: the constructors must accept exactly the spectra within bounds.
    @pytest.mark.parametrize("dim", [16, 32, 64])
    def test_accepts_exactly_the_placed_spectra_within_bounds(self, dim):
        band = dim * np.finfo(float).eps
        for seed in range(5):
            for exponent in range(6, 14):
                for offset in (10.0**-exponent, -(10.0**-exponent)):
                    for end in ("low", "high"):
                        h = placed_spectrum(dim, seed, end, offset)
                        eigs = np.linalg.eigvalsh(h)
                        low_ok = eigs[0] >= -VALIDATION_ATOL
                        high_ok = eigs[-1] <= 1.0 + VALIDATION_ATOL
                        margin = eigs[0] + VALIDATION_ATOL if end == "low" else eigs[-1] - 1.0 - VALIDATION_ATOL
                        assert abs(margin) > band
                        assert constructs(Effect, h) == (low_ok and high_ok)
                        if end == "low":
                            trace = float(np.trace(h).real)
                            assert constructs(DensityMatrix, h, trace) == low_ok

    def test_rejection_messages_are_unchanged(self):
        # the messages name eigvalsh's extreme eigenvalues, as below the threshold
        def raised(build, h, *args):
            with pytest.raises(ValueError) as excinfo:
                build(h, *args)
            return str(excinfo.value)

        low = placed_spectrum(32, 0, "low", -1e-9)
        eigs = np.linalg.eigvalsh(low)
        assert eigs[0] == pytest.approx(-2e-9, abs=1e-14)
        trace = float(np.trace(low).real)
        assert raised(DensityMatrix, low, trace) == f"density matrix has negative eigenvalue {eigs[0]}"
        assert raised(Effect, low) == f"effect spectrum [{eigs[0]}, {eigs[-1]}] outside [0, 1]"
        high = placed_spectrum(32, 0, "high", 1e-9)
        eigs = np.linalg.eigvalsh(high)
        assert eigs[-1] == pytest.approx(1 + 2e-9, abs=1e-14)
        assert raised(Effect, high) == f"effect spectrum [{eigs[0]}, {eigs[-1]}] outside [0, 1]"

    def test_an_effect_checks_a_given_spectrum_in_place_of_eigvalsh(self, monkeypatch):
        # the same verdicts and messages as its own eigvalsh, and no second one
        cases = [
            placed_spectrum(32, seed, end, offset)
            for seed in range(3)
            for end in ("low", "high")
            for offset in (1e-9, -1e-9)
        ]
        spectra = [np.linalg.eigvalsh(h) for h in cases]

        def verdict(build):
            try:
                build()
            except ValueError as exc:
                return str(exc)
            return "accepted"

        expected = [verdict(lambda: Effect(h)) for h in cases]
        assert "accepted" in expected and len(set(expected)) > 2
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: pytest.fail("eigvalsh called"))
        assert [verdict(lambda: Effect(h, eigs)) for h, eigs in zip(cases, spectra)] == expected
        # the hermiticity check still runs
        with pytest.raises(ValueError, match="hermiticity"):
            Effect(np.array([[0.5, 0.1], [0.3, 0.5]]), np.array([0.2, 0.8]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
    def test_non_finite_entries_raise_without_a_warning(self, bad):
        for i, j in ((0, 0), (3, 17)):
            m = np.eye(32, dtype=complex) / 32
            m[i, j] = m[j, i] = bad
            for build in (DensityMatrix, Effect):
                with pytest.raises(ValueError, match="hermiticity"):
                    build(m)

    def test_cli_steer_at_dim_32_takes_three_eigendecompositions(self, tmp_path, monkeypatch):
        # purify's eigh, the barycenter's check and hjw_povm's remainder
        # decision; the purified marginal is compared unchecked, and neither
        # the rank-one member outcomes nor their 64 pure conditional states
        # take an eigendecomposition
        members = [(1 / 64, haar_random_state(32, seed).amplitudes) for seed in range(64)]
        counts = cli_steer_counts(tmp_path, monkeypatch, members)
        assert counts == {"cholesky": 0, "eigh": 1, "eigvalsh": 2}


def columns_accepted(factors) -> bool:
    """Whether ``Povm``'s factor-column check takes every column of
    ``factors``: a measurement of them then fails at most its completeness."""
    try:
        Povm(factors=factors)
    except ValueError as exc:
        return str(exc).startswith("POVM completeness defect")
    return True


class TestRankOneEffect:
    """A rank-one outcome v v^dagger, held as a column v of ``Povm.factors``."""

    # The trace of hermitize(v v^dagger) is |v|^2 up to rounding, and so is
    # its top eigenvalue; the two differ by about (d + 2) eps at unit norm,
    # and eigvalsh adds its own rounding (measured: at most 5 eps). Every
    # vector placed here lies outside that band, so the column check, the
    # general constructor and eigvalsh must agree.
    @pytest.mark.parametrize("dim", [2, 8, 16, 32, 64])
    def test_agrees_with_eigvalsh_outside_the_rounding_band(self, dim):
        band = (dim + 2 + 5) * np.finfo(float).eps
        bound = 1.0 + VALIDATION_ATOL
        for seed in range(5):
            unit = haar_random_state(dim, seed, stream=9).amplitudes
            columns, verdicts = [], []
            for exponent in range(6, 14):
                for offset in (10.0**-exponent, -(10.0**-exponent)):
                    v = unit * np.sqrt(bound + offset)
                    m = linalg.hermitize(np.outer(v, v.conj()))
                    eigs = np.linalg.eigvalsh(m)
                    assert abs(eigs[-1] - bound) > band
                    assert abs(float(np.trace(m).real) - bound) > band
                    accepted = eigs[0] >= -VALIDATION_ATOL and eigs[-1] <= bound
                    assert accepted == (offset < 0)
                    assert columns_accepted(v[:, None]) == accepted
                    assert constructs(Effect, m) == accepted
                    columns.append(v)
                    verdicts.append(accepted)
            # all columns are checked at once: one rejected column rejects them all
            assert columns_accepted(np.stack(columns, axis=1)) == all(verdicts)
            kept = [v for v, ok in zip(columns, verdicts) if ok]
            assert columns_accepted(np.stack(kept, axis=1))

    @pytest.mark.parametrize("dim", [1, 3, 32])
    def test_stores_the_factors_read_only(self, dim):
        f = np.stack([haar_random_state(dim, seed).amplitudes for seed in range(dim)], axis=1)
        # a unitary's columns: v v^dagger summed over them is the identity
        q, _ = np.linalg.qr(f)
        povm = Povm(factors=q)
        assert povm.dim == dim and len(povm) == dim and povm.effects == ()
        assert povm.factors.dtype == complex and povm.factors.tobytes() == q.tobytes()
        assert not povm.factors.flags.writeable
        assert Povm(factors=q.tolist()).factors.tobytes() == q.tobytes()
        # a zero column is the zero effect, and a remainder effect may follow the columns
        assert len(Povm((Effect(np.eye(dim)),), np.zeros((dim, 2)))) == 3

    def test_rejection_messages_are_the_general_constructors(self):
        for dim in (2, 32):
            v = haar_random_state(dim, 1).amplitudes * np.sqrt(1.0 + 2e-9)
            m = linalg.hermitize(np.outer(v, v.conj()))
            with pytest.raises(ValueError) as general:
                Effect(m)
            with pytest.raises(ValueError) as column:
                Povm(factors=np.stack([v / 2, v], axis=1))
            assert str(column.value) == str(general.value)
            assert str(general.value).startswith("effect spectrum [")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0), 1e200])
    def test_non_finite_vectors_raise_without_a_warning(self, bad):
        for dim in (2, 32):
            v = np.full(dim, 0.1, dtype=complex)
            v[dim - 1] = bad
            with pytest.raises(ValueError, match="hermiticity"):
                Povm(factors=v[:, None])

    def test_rejects_factors_that_are_not_a_matrix(self):
        for bad in ([], [0.5, 0.0], 0.5, np.zeros((2, 1, 1))):
            with pytest.raises(ValueError, match="d x k matrix"):
                Povm(factors=bad)
        for empty in (np.zeros((2, 0)), np.zeros((0, 3))):
            with pytest.raises(ValueError, match="at least one outcome"):
                Povm(factors=empty)
        with pytest.raises(ValueError, match="mismatched dimensions"):
            Povm((Effect(np.eye(3)),), np.zeros((2, 1)))

    def test_cli_steer_of_a_rank_deficient_ensemble_at_dim_32(self, tmp_path, monkeypatch):
        # purify's eigh, the barycenter's check, and hjw_povm's remainder
        # decision, whose spectrum the remainder effect's check reuses (its
        # branch has probability 0 and no state); no member outcome or pure
        # conditional state takes an eigendecomposition
        basis, _ = np.linalg.qr(make_rng(3).standard_normal((32, 16)) + 0j)
        members = [(1 / 48, basis @ haar_random_state(16, seed).amplitudes) for seed in range(48)]
        counts = cli_steer_counts(tmp_path, monkeypatch, members)
        assert counts == {"cholesky": 0, "eigh": 1, "eigvalsh": 2}


class TestTensor:
    def test_basis_case(self):
        result = tensor(StateVector.basis(2, 0), StateVector.basis(2, 0))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert np.allclose(result.amplitudes, expected)

    def test_plus_tensor_zero(self):
        plus = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        result = tensor(plus, StateVector.basis(2, 0))
        expected = np.array([[INV_SQRT2, 0.0], [INV_SQRT2, 0.0]])
        assert np.allclose(result.amplitudes, expected, atol=1e-12)

    def test_norm_multiplicativity(self):
        for seed in range(10):
            a = haar_random_state(3, seed)
            b = haar_random_state(4, seed + 100)
            assert abs(np.linalg.norm(tensor(a, b).amplitudes) - 1.0) <= 1e-12


class TestPartialTrace:
    def test_product_state_marginal_is_pure(self):
        a = haar_random_state(2, 3)
        b = haar_random_state(3, 4)
        rho_b = partial_trace_a(tensor(a, b))
        assert np.max(np.abs(rho_b.matrix - b.projector())) <= 1e-12

    def test_maximally_entangled_gives_maximally_mixed(self):
        bell = BipartiteState(np.eye(2) * INV_SQRT2)
        rho_b = partial_trace_a(bell)
        assert np.max(np.abs(rho_b.matrix - np.eye(2) / 2)) <= 1e-12

    def test_output_is_valid_density_matrix(self, random_bipartite):
        for seed in range(20):
            state = random_bipartite(3, 4, seed)
            rho = partial_trace_a(state)  # constructor re-validates
            assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-9


class TestPurify:
    def test_pure_state_gives_product_purification(self):
        psi = haar_random_state(3, 11)
        purification = purify(DensityMatrix(psi.projector()))
        schmidt = np.linalg.svd(purification.amplitudes, compute_uv=False)
        assert abs(schmidt[0] - 1.0) <= 1e-9
        # spurious directions carry weight (coefficient squared) at solver noise
        assert np.all(schmidt[1:] ** 2 <= 1e-12)

    def test_maximally_mixed_qubit(self):
        purification = purify(DensityMatrix(np.eye(2) / 2))
        schmidt = np.linalg.svd(purification.amplitudes, compute_uv=False)
        assert np.allclose(schmidt, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_round_trip(self):
        for seed in range(20):
            rho = random_density_matrix(4, seed)
            back = partial_trace_a(purify(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-8

    def test_rank_deficient_round_trip_keeps_dimension(self):
        rho = random_density_matrix(4, 9, rank=2)
        purification = purify(rho)
        assert purification.dim_a == purification.dim_b == 4
        back = partial_trace_a(purification)
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-8


class TestHaarSampling:
    def test_deterministic_per_seed(self):
        a = haar_random_state(5, 123)
        b = haar_random_state(5, 123)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = haar_random_state(5, 124)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    def test_unit_norm(self):
        for seed in range(50):
            assert abs(np.linalg.norm(haar_random_state(7, seed).amplitudes) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_first_component_moment(self, dim):
        # Monte Carlo oracle: mean of |<0|psi>|^2 must sit within 3 standard
        # errors of the Haar value 1/dim
        n = 10_000
        samples = np.array(
            [abs(haar_random_state(dim, seed).amplitudes[0]) ** 2 for seed in range(n)]
        )
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(samples.mean() - 1.0 / dim) <= 3.0 * se


VALUE_TYPES = {
    "StateVector": lambda: StateVector([1, 0]),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2),
    "Effect": lambda: Effect(np.eye(2)),
    "Povm.factors": lambda: Povm(factors=np.eye(2)),
    "Povm": lambda: Povm((Effect(np.eye(2, dtype=complex)),)),
    "BipartiteState": lambda: BipartiteState(np.eye(2) * INV_SQRT2),
}


class TestIdentityEquality:
    """The value types compare and hash by identity, never by their arrays."""

    @pytest.mark.parametrize("build", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
    def test_eq_gives_a_bool_and_hash_works(self, build):
        a, twin = build(), build()
        assert (a == a) is True
        assert (a == twin) is False
        assert (a != twin) is True
        assert hash(a) == hash(a)
        assert len({a, twin, a}) == 2


class TestHelpers:
    def test_make_rng_streams_are_independent(self):
        a = make_rng(5, stream=0).random(4)
        b = make_rng(5, stream=1).random(4)
        assert not np.allclose(a, b)

    def test_fidelity_to_pure(self):
        psi = StateVector.basis(2, 0)
        assert fidelity_to_pure(DensityMatrix(psi.projector()), psi) == pytest.approx(1.0)
        assert fidelity_to_pure(DensityMatrix(np.eye(2) / 2), psi) == pytest.approx(0.5)

