import numpy as np
import pytest

from bornlab.linalg import DensityMatrix, StateVector, haar_random_state
from bornlab.transition import (
    MAX_DIM,
    ConvergenceError,
    TransitionResult,
    complementarity_check,
    qubit_orthogonal,
    tau_closed,
    tau_mixed,
    tau_optimized,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
PLUS = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
ZERO = StateVector.basis(2, 0)
ONE = StateVector.basis(2, 1)


class TestClosedForm:
    def test_same_state_gives_one(self):
        psi = haar_random_state(4, 1)
        assert tau_closed(psi, psi).value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gives_zero(self):
        assert tau_closed(ZERO, ONE).value == 0.0

    def test_hand_value_half(self):
        assert tau_closed(PLUS, ZERO).value == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            tau_closed(ZERO, StateVector.basis(3, 0))

    def test_zero_iff_orthogonal(self):
        for seed in range(20):
            psi = haar_random_state(3, seed)
            phi = haar_random_state(3, seed + 500)
            overlap = abs(np.vdot(phi.amplitudes, psi.amplitudes))
            tau = tau_closed(psi, phi).value
            assert (tau <= 1e-12) == (overlap <= 1e-6)

    def test_result_clamps_to_unit_interval(self):
        assert TransitionResult(value=1.0 + 5e-10, method="closed_form").value == 1.0
        with pytest.raises(ValueError):
            TransitionResult(value=1.1, method="closed_form")


class TestExtremalEffect:
    """The effect that attains tau(., phi) is the projector |phi><phi|."""

    def test_basis_projector(self):
        assert np.allclose(ZERO.projector(), np.diag([1.0, 0.0]))

    def test_plus_projector(self):
        assert np.allclose(PLUS.projector(), np.full((2, 2), 0.5), atol=1e-12)

    def test_rank_one(self):
        for seed in range(10):
            phi = haar_random_state(4, seed)
            effect = phi.projector()
            assert np.trace(effect).real == pytest.approx(1.0, abs=1e-12)
            fixed = effect @ phi.amplitudes - phi.amplitudes
            assert np.max(np.abs(fixed)) <= 1e-12
            psi = haar_random_state(4, seed + 100)
            expectation = np.vdot(psi.amplitudes, effect @ psi.amplitudes).real
            assert expectation == pytest.approx(tau_closed(psi, phi).value, abs=1e-12)


class TestOptimized:
    def test_same_state(self):
        psi = haar_random_state(3, 2)
        assert tau_optimized(psi, psi).value == pytest.approx(1.0, abs=1e-6)

    def test_hand_value_half(self):
        result = tau_optimized(PLUS, ZERO)
        assert result.value == pytest.approx(0.5, abs=1e-6)
        assert result.residual <= 1e-10
        assert result.method == "optimized"

    @pytest.mark.parametrize("dim", [*range(2, 9), MAX_DIM])
    def test_matches_closed_form_on_random_pairs(self, dim):
        for seed in range(25):
            psi = haar_random_state(dim, seed)
            phi = haar_random_state(dim, seed + 10_000)
            closed = tau_closed(psi, phi).value
            optimized = tau_optimized(psi, phi)
            assert abs(optimized.value - closed) <= 1e-6
            assert optimized.residual <= 1e-8

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, MAX_DIM])
    def test_two_eigendecompositions_per_call(self, dim, monkeypatch):
        # one step to the minimizer and one that confirms it, with no line
        # search in between
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for seed in range(25):
            calls.clear()
            result = tau_optimized(haar_random_state(dim, seed), haar_random_state(dim, seed + 10_000))
            assert (len(calls), result.iterations) == (2, 2)

    def test_dimension_cap(self):
        psi = haar_random_state(17, 0)
        phi = haar_random_state(17, 1)
        with pytest.raises(ValueError, match="maximum"):
            tau_optimized(psi, phi)

    def test_nonconvergence_carries_best_value(self):
        with pytest.raises(ConvergenceError) as excinfo:
            tau_optimized(PLUS, ZERO, max_iters=1)
        assert 0.0 <= excinfo.value.best_value <= 1.0
        assert excinfo.value.iterations == 1


class TestComplementarity:
    def test_against_basis_target(self):
        for seed in range(20):
            psi = haar_random_state(2, seed)
            assert complementarity_check(psi, ZERO) <= 1e-10

    def test_same_state_pair_is_one_zero(self):
        phi = haar_random_state(2, 7)
        assert tau_closed(phi, phi).value == pytest.approx(1.0, abs=1e-12)
        assert tau_closed(phi, qubit_orthogonal(phi)).value <= 1e-12

    def test_random_pairs(self):
        for seed in range(100):
            psi = haar_random_state(2, seed)
            phi = haar_random_state(2, seed + 3000)
            assert complementarity_check(psi, phi) <= 1e-10

    def test_requires_qubits(self):
        psi = haar_random_state(3, 0)
        phi = haar_random_state(3, 1)
        with pytest.raises(ValueError):
            complementarity_check(psi, phi)


class TestMixedExtension:
    def test_affinity_on_two_level_faces(self):
        # the extremal effect makes the transition probability affine in the
        # mixing weight
        for seed in range(20):
            psi1 = haar_random_state(2, seed)
            psi2 = haar_random_state(2, seed + 800)
            phi = haar_random_state(2, seed + 1600)
            lam = 0.3
            mix = DensityMatrix(lam * psi1.projector() + (1 - lam) * psi2.projector())
            direct = tau_mixed(mix, phi)
            affine = lam * tau_closed(psi1, phi).value + (1 - lam) * tau_closed(psi2, phi).value
            assert abs(direct - affine) <= 1e-10

    def test_pure_case_agrees_with_closed_form(self):
        psi = haar_random_state(3, 4)
        phi = haar_random_state(3, 5)
        assert tau_mixed(DensityMatrix(psi.projector()), phi) == pytest.approx(
            tau_closed(psi, phi).value, abs=1e-12
        )
