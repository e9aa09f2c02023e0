import numpy as np
import pytest

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


class TestEnsemble:
    def test_weights_must_account_for_everything(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(members=((0.5, ZERO),))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Ensemble(members=((-0.2, ZERO), (1.2, ONE)))

    @pytest.mark.parametrize(
        "members,tail",
        [(((np.nan, ZERO),), 0.0), (((np.nan, ZERO), (1.0, ONE)), 0.0), (((1.0, ZERO),), np.nan)],
    )
    def test_rejects_nan_weight_or_tail(self, members, tail):
        with pytest.raises(ValueError, match="nonnegative"):
            Ensemble(members=members, tail_weight=tail)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            Ensemble(members=((0.5, ZERO), (0.5, StateVector.basis(3, 0))))

    def test_tail_weight_defaults_to_zero(self):
        assert Ensemble(members=((1.0, ZERO),)).tail_weight == 0.0
        assert Ensemble(members=((0.75, ZERO),), tail_weight=0.25).tail_weight == 0.25


class TestBarycenter:
    def test_single_member(self):
        psi = haar_random_state(3, 1)
        assert np.allclose(barycenter(Ensemble(members=((1.0, psi),))).matrix, psi.projector())

    def test_computational_mixture_is_maximally_mixed(self):
        ensemble = Ensemble(members=((0.5, ZERO), (0.5, ONE)))
        assert np.allclose(barycenter(ensemble).matrix, np.eye(2) / 2, atol=1e-12)

    def test_plus_minus_mixture_is_maximally_mixed(self):
        # same barycenter from a different decomposition
        ensemble = Ensemble(members=((0.5, PLUS), (0.5, MINUS)))
        assert np.allclose(barycenter(ensemble).matrix, np.eye(2) / 2, atol=1e-12)

    def test_truncated_ensemble_keeps_declared_trace_defect(self):
        ensemble = geometric_fock_ensemble(0.5, 3)
        bary = barycenter(ensemble)
        assert np.trace(bary.matrix).real == pytest.approx(1.0 - 0.5**4, abs=1e-12)

    def test_built_once_per_ensemble_and_read_only(self, random_ensemble):
        ensemble = random_ensemble(4, 5, 3)
        bary = barycenter(ensemble)
        assert barycenter(ensemble) is bary and ensemble.barycenter is bary
        expected = sum(w * s.projector() for w, s in ensemble.members)
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
            ensemble = Ensemble(members=((1.0, psi),))
            purification = purify(barycenter(ensemble))
            povm = hjw_povm(purification, ensemble)
            assert len(povm) == 2
            member, remainder = steer(purification, povm)
            assert abs(member.probability - 1.0) <= 1e-12
            assert fidelity_to_pure(member.conditional_state, psi) >= 1.0 - 1e-12
            assert remainder.probability <= 1e-12

    def test_steers_computational_decomposition(self):
        ensemble = Ensemble(members=((0.5, ZERO), (0.5, ONE)))
        purification = purify(DensityMatrix(np.eye(2) / 2))
        povm = hjw_povm(purification, ensemble)
        outcomes = steer(purification, povm)
        for outcome, (weight, member) in zip(outcomes, ensemble.members):
            assert outcome.probability == pytest.approx(weight, abs=1e-10)
            assert fidelity_to_pure(outcome.conditional_state, member) >= 1.0 - 1e-10

    def test_steers_plus_minus_decomposition(self):
        ensemble = Ensemble(members=((0.5, PLUS), (0.5, MINUS)))
        purification = purify(DensityMatrix(np.eye(2) / 2))
        povm = hjw_povm(purification, ensemble)
        outcomes = steer(purification, povm)
        for outcome, (weight, member) in zip(outcomes, ensemble.members):
            assert outcome.probability == pytest.approx(weight, abs=1e-10)
            assert fidelity_to_pure(outcome.conditional_state, member) >= 1.0 - 1e-10

    def test_round_trip_on_random_ensembles(self, random_ensemble):
        for seed in range(15):
            dim = 2 + seed % 2
            ensemble = random_ensemble(dim, 1 + seed % 4, seed)
            purification = purify(barycenter(ensemble))
            outcomes = steer(purification, hjw_povm(purification, ensemble))
            for outcome, (weight, member) in zip(outcomes, ensemble.members):
                assert abs(outcome.probability - weight) <= 1e-8
                if outcome.conditional_state is not None:
                    assert fidelity_to_pure(outcome.conditional_state, member) >= 1.0 - 1e-8

    def test_rank_deficient_marginal_gets_remainder_outcome(self):
        # two qubit-like members inside a qutrit: marginal has a kernel
        ensemble = Ensemble(members=((0.5, StateVector.basis(3, 0)), (0.5, StateVector.basis(3, 1))))
        purification = purify(barycenter(ensemble))
        povm = hjw_povm(purification, ensemble)
        assert len(povm) == 3
        outcomes = steer(purification, povm)
        assert outcomes[2].probability <= 1e-12
        assert outcomes[2].conditional_state is None

    def test_rejects_barycenter_mismatch(self):
        purification = purify(DensityMatrix(np.diag([0.8, 0.2]).astype(complex)))
        ensemble = Ensemble(members=((0.5, ZERO), (0.5, ONE)))
        with pytest.raises(ValueError, match="barycenter"):
            hjw_povm(purification, ensemble)

    def test_rejects_member_outside_support(self):
        inside = Ensemble(members=((0.5, StateVector.basis(3, 0)), (0.5, StateVector.basis(3, 1))))
        purification = purify(barycenter(inside))
        # a stray member must carry negligible weight, otherwise the
        # barycenter gate trips before the support check does
        eps = 1e-9
        target = Ensemble(
            members=(
                (0.5 - eps / 2, StateVector.basis(3, 0)),
                (0.5 - eps / 2, StateVector.basis(3, 1)),
                (eps, StateVector.basis(3, 2)),
            )
        )
        with pytest.raises(ValueError, match="support"):
            hjw_povm(purification, target)


class TestSteer:
    def test_trivial_measurement_prepares_the_marginal(self):
        omega = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        purification = purify(omega)
        outcomes = steer(purification, Povm((Effect(np.eye(2, dtype=complex)),)))
        assert len(outcomes) == 1
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(outcomes[0].conditional_state.matrix - omega.matrix)) <= 1e-10

    def test_bell_state_computational_measurement(self):
        povm = Povm((Effect(np.diag([1.0, 0.0])), Effect(np.diag([0.0, 1.0]))))
        outcomes = steer(BELL, povm)
        for outcome, member in zip(outcomes, (ZERO, ONE)):
            assert outcome.probability == pytest.approx(0.5, abs=1e-12)
            assert fidelity_to_pure(outcome.conditional_state, member) >= 1.0 - 1e-12

    def test_probabilities_sum_to_one(self, random_bipartite):
        for seed in range(10):
            state = random_bipartite(3, 2, seed)
            povm = random_povm(3, 4, seed)
            total = sum(o.probability for o in steer(state, povm))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_effect_yields_null_outcome(self):
        povm = Povm((Effect(np.eye(2)), Effect(np.zeros((2, 2)))))
        outcomes = steer(BELL, povm)
        assert outcomes[1].probability <= 1e-12
        assert outcomes[1].conditional_state is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            steer(BELL, Povm((Effect(np.eye(3, dtype=complex)),)))


def sqrt_route(state, povm):
    """Steering through sqrt(E) from eigh: branch = sqrt(E) M, probability
    its squared norm, conditional state branch^T conj(branch) / probability."""
    m = state.amplitudes
    result = []
    for effect in povm.outcomes:
        vals, vecs = np.linalg.eigh(effect.matrix)
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
        outcomes = steer(state, povm)
        assert len(outcomes) == len(povm)
        for outcome, (prob, conditional) in zip(outcomes, sqrt_route(state, povm)):
            assert outcome.probability == pytest.approx(prob, abs=1e-12)
            assert np.max(np.abs(outcome.conditional_state.matrix - conditional)) <= 1e-12


def deficient_ensemble(dim: int, n_members: int, seed: int) -> Ensemble:
    """Haar members of a random subspace of dimension max(1, dim // 2)."""
    rank = max(1, dim // 2)
    rng = make_rng(seed, stream=3)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    weights = rng.dirichlet(np.ones(n_members))
    return Ensemble(
        members=tuple(
            (float(w), StateVector(basis @ haar_random_state(rank, seed * 31 + i).amplitudes))
            for i, w in enumerate(weights)
        )
    )


class TestFactoredRouteMatchesGeneralRoute:
    """steer's one-product route for rank-one effects against the d x d
    ``_branch`` route it replaced, taken by the same effects rebuilt by the
    general constructor."""

    @pytest.mark.parametrize("dim", [2, 8, 32])
    @pytest.mark.parametrize("shape", ["full_rank", "rank_deficient", "one_member"])
    def test_hjw_effects(self, dim, shape, random_ensemble):
        ensemble = {
            "full_rank": lambda: random_ensemble(dim, 2 * dim, dim),
            "rank_deficient": lambda: deficient_ensemble(dim, dim + 1, dim),
            "one_member": lambda: Ensemble(members=((1.0, haar_random_state(dim, dim)),)),
        }[shape]()
        purification = purify(barycenter(ensemble))
        # one target per member, and one more for a remainder outcome
        targets = [member for _, member in ensemble.members] + [ensemble.members[0][1]]
        self._compare(purification, hjw_povm(purification, ensemble), targets)

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_rank_one_and_general_effects_in_one_measurement(self, dim, random_bipartite):
        # the first effect of a random POVM split into its rank-one spectral pieces
        general = random_povm(dim, 3, dim)
        eigvals, eigvecs = np.linalg.eigh(general.outcomes[0].matrix)
        pieces = [Effect.rank_one(np.sqrt(max(val, 0.0)) * eigvecs[:, i]) for i, val in enumerate(eigvals)]
        povm = Povm((*pieces, *general.outcomes[1:]))
        targets = [haar_random_state(dim, 500 + i) for i in range(len(povm))]
        self._compare(random_bipartite(dim, dim, dim), povm, targets)

    @staticmethod
    def _compare(state, povm, targets):
        factored = steer(state, povm)
        general = steer(state, Povm(tuple(Effect(e.matrix) for e in povm.outcomes)))
        assert len(factored) == len(general) == len(povm) <= len(targets)
        for effect, a, b, psi in zip(povm.outcomes, factored, general, targets):
            assert a.probability == pytest.approx(b.probability, abs=1e-12)
            if b.conditional_state is None:
                assert a.conditional_state is None
                continue
            assert (a.conditional_state.factor is None) == (effect.factor is None)
            assert b.conditional_state.factor is None
            assert np.max(np.abs(a.conditional_state.matrix - b.conditional_state.matrix)) <= 1e-12
            assert fidelity_to_pure(a.conditional_state, psi) == pytest.approx(
                fidelity_to_pure(b.conditional_state, psi), abs=1e-12
            )


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
        computational = Ensemble(members=((0.5, ZERO), (0.5, ONE)))
        diagonal = Ensemble(members=((0.5, PLUS), (0.5, MINUS)))
        povm_c = hjw_povm(purification, computational)
        povm_d = hjw_povm(purification, diagonal)
        assert verify_marginal_invariance(purification, povm_c, povm_d) <= 1e-10
        cond_c = steer(purification, povm_c)[0].conditional_state.matrix
        cond_d = steer(purification, povm_d)[0].conditional_state.matrix
        assert np.max(np.abs(cond_c - cond_d)) > 0.4


class TestGeometricFockEnsemble:
    def test_depth_zero(self):
        ensemble = geometric_fock_ensemble(0.5, 0)
        assert len(ensemble.members) == 1
        weight, member = ensemble.members[0]
        assert weight == pytest.approx(0.5)
        assert np.allclose(member.amplitudes, [1.0])
        assert ensemble.tail_weight == pytest.approx(0.5)

    @pytest.mark.parametrize("r,n", [(0.3, 5), (0.5, 20), (0.8, 13)])
    def test_tail_formula(self, r, n):
        ensemble = geometric_fock_ensemble(r, n)
        assert ensemble.tail_weight == pytest.approx(r ** (n + 1), rel=1e-12)
        total = sum(w for w, _ in ensemble.members) + ensemble.tail_weight
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
