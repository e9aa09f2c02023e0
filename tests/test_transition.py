import numpy as np
import pytest

from bornlab import transition
from bornlab.linalg import DensityMatrix, StateVector, haar_random_state
from bornlab.transition import (
    DUAL_GAP_BOUND,
    MAX_DIM,
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
        assert TransitionResult(value=1.0 + 5e-10).value == 1.0
        with pytest.raises(ValueError):
            TransitionResult(value=1.1)


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


def assert_within_bound(psi: StateVector, phi: StateVector) -> float:
    width = tau_closed(psi, phi).value - tau_optimized(psi, phi).value
    assert 0.0 <= width <= DUAL_GAP_BOUND, width
    return width


def at_angle(dim: int, angle: float) -> StateVector:
    amps = np.zeros(dim, dtype=complex)
    amps[:2] = np.cos(angle), np.sin(angle)
    return StateVector(amps)


class TestOptimized:
    def test_bound_is_inside_the_benchmark_tolerance(self):
        # room 4x inside the 1e-6 the benchmark checks the optimized row to
        assert 4 * DUAL_GAP_BOUND <= 1e-6

    def test_same_state(self):
        psi = haar_random_state(3, 2)
        assert tau_optimized(psi, psi).value == pytest.approx(1.0, abs=1e-6)

    def test_hand_value_half(self):
        assert 0.0 < assert_within_bound(PLUS, ZERO)
        assert tau_optimized(PLUS, ZERO).iterations == 0

    @pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
    def test_matches_closed_form_on_random_pairs(self, dim):
        for seed in range(50):
            assert_within_bound(haar_random_state(dim, seed), haar_random_state(dim, seed + 10_000))

    @pytest.mark.parametrize("dim", [2, 3, 8, MAX_DIM])
    def test_matches_closed_form_on_edge_pairs(self, dim):
        psi = haar_random_state(dim, 7)
        assert_within_bound(psi, psi)
        # orthogonal: the clamp at 0 keeps the bound from going negative
        assert assert_within_bound(StateVector.basis(dim, 0), StateVector.basis(dim, dim - 1)) == 0.0
        for index in range(dim):
            assert_within_bound(psi, StateVector.basis(dim, index))
            assert_within_bound(StateVector.basis(dim, index), psi)
        for angle in (1e-8, np.pi / 2 - 1e-8):
            assert_within_bound(at_angle(dim, angle), StateVector.basis(dim, 0))

    def test_target_off_unit_norm_still_gives_a_lower_bound(self):
        # a StateVector may miss unit norm by VALIDATION_ATOL, far more than
        # the allowance divided by y; the bound is on |<phi|psi>|^2 / |phi|^2
        phi = StateVector(np.array([1 - 9e-10, 0], dtype=complex))
        psi = StateVector(np.array([0.6, 0.8], dtype=complex))
        # |<phi|psi>|^2 / |phi|^2 = 0.36, while y (1 - |phi|^2) is 7.5e-3
        assert 0.0 <= 0.36 - tau_optimized(psi, phi).value <= DUAL_GAP_BOUND

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, MAX_DIM])
    def test_one_eigvalsh_and_no_eigh_per_call(self, dim, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for seed in range(25):
            calls.clear()
            result = tau_optimized(haar_random_state(dim, seed), haar_random_state(dim, seed + 10_000))
            assert (calls, result.iterations) == (["eigvalsh"], 0)

    def test_independent_of_the_closed_form(self, monkeypatch):
        pairs = [(haar_random_state(dim, seed), haar_random_state(dim, seed + 10_000)) for dim in (2, 5, MAX_DIM) for seed in range(5)]
        before = [tau_optimized(psi, phi).value for psi, phi in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("the dual bound read the inner product")

        monkeypatch.setattr(transition, "tau_closed", refuse)
        monkeypatch.setattr(np, "vdot", refuse)
        assert [tau_optimized(psi, phi).value for psi, phi in pairs] == before

    def test_dimension_cap(self):
        psi = haar_random_state(17, 0)
        phi = haar_random_state(17, 1)
        with pytest.raises(ValueError, match="maximum"):
            tau_optimized(psi, phi)


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

    def test_orthogonal_state_requires_a_qubit(self):
        with pytest.raises(ValueError, match="^orthogonal complement state is defined here for qubits only$"):
            qubit_orthogonal(StateVector.basis(3, 0))


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            tau_mixed(DensityMatrix(ZERO.projector()), StateVector.basis(3, 0))
