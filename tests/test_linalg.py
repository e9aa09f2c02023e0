import numpy as np
import pytest

from bornlab.linalg import (
    BipartiteState,
    DensityMatrix,
    Effect,
    Povm,
    StateVector,
    embed_state,
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
            total = sum(e.matrix for e in povm.outcomes)
            assert np.max(np.abs(total - np.eye(3))) <= 1e-8


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
        purification = purify(DensityMatrix.from_pure(psi))
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


class TestHelpers:
    def test_make_rng_streams_are_independent(self):
        a = make_rng(5, stream=0).random(4)
        b = make_rng(5, stream=1).random(4)
        assert not np.allclose(a, b)

    def test_fidelity_to_pure(self):
        psi = StateVector.basis(2, 0)
        assert fidelity_to_pure(DensityMatrix.from_pure(psi), psi) == pytest.approx(1.0)
        assert fidelity_to_pure(DensityMatrix(np.eye(2) / 2), psi) == pytest.approx(0.5)

    def test_embed_state_pads_with_zeros(self):
        psi = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        wide = embed_state(psi, 5)
        assert wide.dim == 5
        assert np.allclose(wide.amplitudes[:2], psi.amplitudes)
        assert np.all(wide.amplitudes[2:] == 0)
        with pytest.raises(ValueError):
            embed_state(psi, 1)
