import numpy as np
import pytest

from bornlab import linalg
from bornlab.linalg import (
    BipartiteState,
    DensityMatrix,
    Effect,
    Povm,
    StateVector,
    fidelity_to_pure,
    haar_random_state,
    make_rng,
    purify,
    random_povm,
)
from bornlab.steering import (
    Ensemble,
    barycenter,
    geometric_fock_ensemble,
    hjw_povm,
    steer,
    verify_marginal_invariance,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
ZERO = StateVector.basis(2, 0)
ONE = StateVector.basis(2, 1)
PLUS = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
MINUS = StateVector(np.array([INV_SQRT2, -INV_SQRT2]))
BELL = BipartiteState(np.eye(2) * INV_SQRT2)


def member_fidelities(result, ensemble) -> np.ndarray:
    """|<psi_i|u_i>|^2 of each member with its steered unit vector."""
    return np.abs(np.sum(ensemble.amplitudes.conj() * result.vectors, axis=1)) ** 2


def outcome_matrices(povm) -> list[np.ndarray]:
    """Every outcome's d x d effect, in outcome order."""
    return [linalg.hermitize(np.outer(v, v.conj())) for v in povm.factors.T] + [e.matrix for e in povm.effects]


def conditional_matrices(result) -> list[np.ndarray | None]:
    """Every outcome's conditional state as a d x d matrix, None if null."""
    pure = [np.outer(u, u.conj()) for u in result.vectors]
    mixed = [None if state is None else state.matrix for state in result.states]
    return [None if null else m for null, m in zip(result.null, pure + mixed)]


class TestEnsemble:
    def test_weights_must_account_for_everything(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble([0.5], [ZERO.amplitudes])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Ensemble([-0.2, 1.2], np.eye(2))

    @pytest.mark.parametrize(
        "weights,tail",
        [([np.nan], 0.0), ([np.nan, 1.0], 0.0), ([1.0], np.nan)],
    )
    def test_rejects_nan_weight_or_tail(self, weights, tail):
        with pytest.raises(ValueError, match="nonnegative"):
            Ensemble(weights, np.eye(len(weights)), tail_weight=tail)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mismatched dimensions"):
            Ensemble([0.5, 0.5], [ZERO.amplitudes, StateVector.basis(3, 0).amplitudes])

    def test_rejects_a_row_per_weight_mismatch(self):
        for amplitudes in (np.eye(3), [1.0, 0.0], np.zeros((2, 0))):
            with pytest.raises(ValueError, match="one nonempty row per weight"):
                Ensemble([0.5, 0.5], amplitudes)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [1.0 + 2e-9, np.nan, np.inf, 1e200])
    def test_checks_every_row_norm_once_and_names_the_row(self, bad):
        amplitudes = np.eye(3, dtype=complex)
        amplitudes[2, 2] = bad
        with pytest.raises(ValueError, match=r"^ensemble member 2 has norm .* deviating from 1 beyond 1e-09$"):
            Ensemble([0.25, 0.25, 0.5], amplitudes)
        # within the tolerance a row is kept as given, not renormalized
        amplitudes[2, 2] = 1.0 + 5e-10
        assert Ensemble([0.25, 0.25, 0.5], amplitudes).amplitudes[2, 2] == 1.0 + 5e-10

    def test_holds_read_only_arrays(self):
        weights, amplitudes = [0.5, 0.5], [[1, 0], [0, 1]]
        ensemble = Ensemble(weights, amplitudes)
        assert ensemble.weights.dtype == float and ensemble.amplitudes.dtype == complex
        assert ensemble.dim == 2 and ensemble.amplitudes.shape == (2, 2)
        for array in (ensemble.weights, ensemble.amplitudes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_members_pairs_give_the_same_arrays(self):
        # (weight, StateVector) pairs are read into the same two arrays
        ensemble = Ensemble(members=((0.5, PLUS), (0.5, MINUS)))
        twin = Ensemble([0.5, 0.5], [PLUS.amplitudes, MINUS.amplitudes])
        assert ensemble.weights.tobytes() == twin.weights.tobytes()
        assert ensemble.amplitudes.tobytes() == twin.amplitudes.tobytes()

    def test_tail_weight_defaults_to_zero(self):
        assert Ensemble([1.0], [ZERO.amplitudes]).tail_weight == 0.0
        assert Ensemble([0.75], [ZERO.amplitudes], tail_weight=0.25).tail_weight == 0.25


class TestBarycenter:
    def test_single_member(self):
        psi = haar_random_state(3, 1)
        assert np.allclose(barycenter(Ensemble([1.0], [psi.amplitudes])).matrix, psi.projector())

    def test_computational_mixture_is_maximally_mixed(self):
        ensemble = Ensemble([0.5, 0.5], np.eye(2))
        assert np.allclose(barycenter(ensemble).matrix, np.eye(2) / 2, atol=1e-12)

    def test_plus_minus_mixture_is_maximally_mixed(self):
        # same barycenter from a different decomposition
        ensemble = Ensemble([0.5, 0.5], [PLUS.amplitudes, MINUS.amplitudes])
        assert np.allclose(barycenter(ensemble).matrix, np.eye(2) / 2, atol=1e-12)

    def test_truncated_ensemble_keeps_declared_trace_defect(self):
        ensemble = geometric_fock_ensemble(0.5, 3)
        bary = barycenter(ensemble)
        assert np.trace(bary.matrix).real == pytest.approx(1.0 - 0.5**4, abs=1e-12)

    @pytest.mark.parametrize("dim,n_members", [(4, 5), (32, 64)])
    def test_built_once_per_ensemble_and_read_only(self, random_ensemble, dim, n_members):
        ensemble = random_ensemble(dim, n_members, 3)
        bary = barycenter(ensemble)
        assert barycenter(ensemble) is bary and ensemble.barycenter is bary
        # the one product equals the sum of the weighted member projectors
        expected = sum(w * np.outer(a, a.conj()) for w, a in zip(ensemble.weights, ensemble.amplitudes))
        assert np.allclose(bary.matrix, expected, rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            bary.matrix[0, 0] = 0.0


class TestHjwPovm:
    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_single_member_is_steered_with_a_remainder_outcome(self, dim):
        # a one-member marginal has rank one, so the general solve appends
        # the remainder outcome, which must carry no probability
        for seed in range(5):
            psi = haar_random_state(dim, seed)
            ensemble = Ensemble([1.0], [psi.amplitudes])
            purification = purify(barycenter(ensemble))
            povm = hjw_povm(purification, ensemble)
            assert len(povm) == 2 and len(povm.effects) == 1
            result = steer(purification, povm)
            assert len(result) == 2
            assert abs(result.probabilities[0] - 1.0) <= 1e-12
            assert member_fidelities(result, ensemble)[0] >= 1.0 - 1e-12
            assert result.probabilities[1] <= 1e-12

    @pytest.mark.parametrize("members", [(ZERO, ONE), (PLUS, MINUS)], ids=["computational", "plus_minus"])
    def test_steers_a_qubit_decomposition(self, members):
        ensemble = Ensemble([0.5, 0.5], [m.amplitudes for m in members])
        purification = purify(DensityMatrix(np.eye(2) / 2))
        result = steer(purification, hjw_povm(purification, ensemble))
        assert len(result) == 2
        assert np.allclose(result.probabilities, ensemble.weights, rtol=0.0, atol=1e-10)
        assert np.all(member_fidelities(result, ensemble) >= 1.0 - 1e-10)

    def test_round_trip_on_random_ensembles(self, random_ensemble):
        for seed in range(15):
            dim = 2 + seed % 2
            ensemble = random_ensemble(dim, 1 + seed % 4, seed)
            purification = purify(barycenter(ensemble))
            result = steer(purification, hjw_povm(purification, ensemble))
            k = len(ensemble.weights)
            assert np.max(np.abs(result.probabilities[:k] - ensemble.weights)) <= 1e-8
            live = ~result.null[:k]
            assert np.all(member_fidelities(result, ensemble)[live] >= 1.0 - 1e-8)

    def test_rank_deficient_marginal_gets_remainder_outcome(self):
        # two qubit-like members inside a qutrit: marginal has a kernel
        ensemble = Ensemble([0.5, 0.5], np.eye(3)[:2])
        purification = purify(barycenter(ensemble))
        povm = hjw_povm(purification, ensemble)
        assert len(povm) == 3
        result = steer(purification, povm)
        assert result.probabilities[2] <= 1e-12
        assert result.null.tolist() == [False, False, True]
        assert result.states == (None,)

    def test_rejects_barycenter_mismatch(self):
        purification = purify(DensityMatrix(np.diag([0.8, 0.2]).astype(complex)))
        ensemble = Ensemble([0.5, 0.5], np.eye(2))
        with pytest.raises(ValueError, match="barycenter"):
            hjw_povm(purification, ensemble)

    def test_rejects_member_outside_support(self):
        inside = Ensemble([0.5, 0.5], np.eye(3)[:2])
        purification = purify(barycenter(inside))
        # a stray member must carry negligible weight, otherwise the
        # barycenter gate trips before the support check does
        eps = 1e-9
        target = Ensemble([0.5 - eps / 2, 0.5 - eps / 2, eps], np.eye(3))
        with pytest.raises(ValueError, match="support"):
            hjw_povm(purification, target)


class TestSteer:
    def test_trivial_measurement_prepares_the_marginal(self):
        omega = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        purification = purify(omega)
        result = steer(purification, Povm((Effect(np.eye(2, dtype=complex)),)))
        assert len(result) == 1 and result.vectors.shape == (0, 2)
        assert result.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(result.states[0].matrix - omega.matrix)) <= 1e-10

    def test_bell_state_computational_measurement(self):
        povm = Povm((Effect(np.diag([1.0, 0.0])), Effect(np.diag([0.0, 1.0]))))
        result = steer(BELL, povm)
        for probability, state, member in zip(result.probabilities, result.states, (ZERO, ONE)):
            assert probability == pytest.approx(0.5, abs=1e-12)
            assert fidelity_to_pure(state, member) >= 1.0 - 1e-12

    def test_probabilities_sum_to_one(self, random_bipartite):
        for seed in range(10):
            state = random_bipartite(3, 2, seed)
            povm = random_povm(3, 4, seed)
            total = float(np.sum(steer(state, povm).probabilities))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_effect_yields_null_outcome(self):
        povm = Povm((Effect(np.eye(2)), Effect(np.zeros((2, 2)))))
        result = steer(BELL, povm)
        assert result.probabilities[1] <= 1e-12
        assert result.states[1] is None

    def test_zero_column_yields_a_null_outcome_with_a_zero_row(self):
        povm = Povm(factors=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        result = steer(BELL, povm)
        assert result.null.tolist() == [False, False, True]
        assert result.probabilities[2] == 0.0 and not result.vectors[2].any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            steer(BELL, Povm((Effect(np.eye(3, dtype=complex)),)))


def sqrt_route(state, povm):
    """Steering through sqrt(E) from eigh: branch = sqrt(E) M, probability
    its squared norm, conditional state branch^T conj(branch) / probability."""
    m = state.amplitudes
    result = []
    for effect in outcome_matrices(povm):
        vals, vecs = np.linalg.eigh(effect)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        branch = root @ m
        prob = float(np.real(np.vdot(branch, branch)))
        result.append((prob, branch.T @ branch.conj() / prob))
    return result


class TestSteerMatchesSquareRootRoute:
    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_full_rank_random_povm(self, dim, random_bipartite):
        state = random_bipartite(dim, dim, dim)
        povm = random_povm(dim, 3, dim)
        self._compare(state, povm)

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_rank_one_hjw_effects(self, dim, random_ensemble):
        ensemble = random_ensemble(dim, 2 * dim, dim)
        purification = purify(barycenter(ensemble))
        self._compare(purification, hjw_povm(purification, ensemble))

    @staticmethod
    def _compare(state, povm):
        result = steer(state, povm)
        assert len(result) == len(povm)
        pairs = zip(result.probabilities, conditional_matrices(result), sqrt_route(state, povm))
        for probability, conditional, (prob, want) in pairs:
            assert probability == pytest.approx(prob, abs=1e-12)
            assert np.max(np.abs(conditional - want)) <= 1e-12


def deficient_ensemble(dim: int, n_members: int, seed: int) -> Ensemble:
    """Haar members of a random subspace of dimension max(1, dim // 2)."""
    rank = max(1, dim // 2)
    rng = make_rng(seed, stream=3)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    weights = rng.dirichlet(np.ones(n_members))
    return Ensemble(weights, [basis @ haar_random_state(rank, seed * 31 + i).amplitudes for i in range(n_members)])


class TestFactoredRouteMatchesGeneralRoute:
    """steer's one-product route for rank-one outcomes against the d x d
    ``_branch`` route, taken by the same outcomes rebuilt as general
    effects."""

    @pytest.mark.parametrize("dim", [2, 8, 32])
    @pytest.mark.parametrize("shape", ["full_rank", "rank_deficient", "one_member"])
    def test_hjw_effects(self, dim, shape, random_ensemble):
        ensemble = {
            "full_rank": lambda: random_ensemble(dim, 2 * dim, dim),
            "rank_deficient": lambda: deficient_ensemble(dim, dim + 1, dim),
            "one_member": lambda: Ensemble([1.0], [haar_random_state(dim, dim).amplitudes]),
        }[shape]()
        purification = purify(barycenter(ensemble))
        # one target per member, and one more for a remainder outcome
        targets = [*ensemble.amplitudes, ensemble.amplitudes[0]]
        self._compare(purification, hjw_povm(purification, ensemble), targets)

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_rank_one_and_general_effects_in_one_measurement(self, dim, random_bipartite):
        # the first effect of a random POVM split into its rank-one spectral pieces
        general = random_povm(dim, 3, dim)
        eigvals, eigvecs = np.linalg.eigh(general.effects[0].matrix)
        povm = Povm(general.effects[1:], eigvecs * np.sqrt(np.clip(eigvals, 0.0, None)))
        targets = [haar_random_state(dim, 500 + i).amplitudes for i in range(len(povm))]
        self._compare(random_bipartite(dim, dim, dim), povm, targets)

    @staticmethod
    def _compare(state, povm, targets):
        factored = steer(state, povm)
        general = steer(state, Povm(tuple(Effect(m) for m in outcome_matrices(povm))))
        k = povm.factors.shape[1]
        assert len(factored) == len(general) == len(povm) <= len(targets)
        assert len(factored.vectors) == k and len(general.vectors) == 0
        assert np.allclose(factored.probabilities, general.probabilities, rtol=0.0, atol=1e-12)
        assert factored.null.tolist() == general.null.tolist()
        pairs = zip(conditional_matrices(factored), conditional_matrices(general), targets)
        for a, b, psi in pairs:
            if b is None:
                continue
            assert np.max(np.abs(a - b)) <= 1e-12
            assert np.vdot(psi, a @ psi).real == pytest.approx(np.vdot(psi, b @ psi).real, abs=1e-12)


class TestMarginalInvariance:
    def test_identical_measurements_give_zero(self, random_bipartite):
        state = random_bipartite(2, 2, 0)
        povm = random_povm(2, 3, 0)
        assert verify_marginal_invariance(state, povm, povm) == 0.0

    def test_z_versus_x_on_bell_state(self):
        z_basis = Povm((Effect(ZERO.projector()), Effect(ONE.projector())))
        x_basis = Povm((Effect(PLUS.projector()), Effect(MINUS.projector())))
        assert verify_marginal_invariance(BELL, z_basis, x_basis) <= 1e-10

    def test_random_states_and_measurements(self, random_bipartite):
        for seed in range(20):
            state = random_bipartite(2 + seed % 2, 2 + (seed + 1) % 2, seed)
            povm1 = random_povm(state.dim_a, 2 + seed % 3, seed + 100)
            povm2 = random_povm(state.dim_a, 2 + (seed + 1) % 3, seed + 200)
            assert verify_marginal_invariance(state, povm1, povm2) <= 1e-10

    def test_equal_barycenters_same_marginal_distinct_conditionals(self):
        purification = purify(DensityMatrix(np.eye(2) / 2))
        computational = Ensemble([0.5, 0.5], np.eye(2))
        diagonal = Ensemble([0.5, 0.5], [PLUS.amplitudes, MINUS.amplitudes])
        povm_c = hjw_povm(purification, computational)
        povm_d = hjw_povm(purification, diagonal)
        assert verify_marginal_invariance(purification, povm_c, povm_d) <= 1e-10
        cond_c = conditional_matrices(steer(purification, povm_c))[0]
        cond_d = conditional_matrices(steer(purification, povm_d))[0]
        assert np.max(np.abs(cond_c - cond_d)) > 0.4


class TestGeometricFockEnsemble:
    def test_depth_zero(self):
        ensemble = geometric_fock_ensemble(0.5, 0)
        assert ensemble.weights.tolist() == pytest.approx([0.5])
        assert ensemble.amplitudes.tolist() == [[1.0]]
        assert ensemble.tail_weight == pytest.approx(0.5)

    @pytest.mark.parametrize("r,n", [(0.3, 5), (0.5, 20), (0.8, 13)])
    def test_tail_formula(self, r, n):
        ensemble = geometric_fock_ensemble(r, n)
        assert ensemble.tail_weight == pytest.approx(r ** (n + 1), rel=1e-12)
        total = sum(ensemble.weights) + ensemble.tail_weight
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_depth_twenty_tail_value(self):
        assert geometric_fock_ensemble(0.5, 20).tail_weight == pytest.approx(4.76837158203125e-7)

    def test_embedding_dimension(self):
        ensemble = geometric_fock_ensemble(0.5, 2, dim=10)
        assert ensemble.dim == 10
        with pytest.raises(ValueError, match="dimension"):
            geometric_fock_ensemble(0.5, 5, dim=3)

    def test_ratio_range(self):
        with pytest.raises(ValueError):
            geometric_fock_ensemble(1.0, 5)
        with pytest.raises(ValueError):
            geometric_fock_ensemble(0.0, 5)
