import numpy as np
import pytest

from bornlab import linalg
from bornlab.linalg import (
    BipartiteState,
    DensityMatrix,
    Povm,
    StateVector,
    haar_random_state,
    make_rng,
    purify,
    random_povm,
)
from bornlab.steering import (
    NULL_OUTCOME_PROB,
    Ensemble,
    barycenter,
    geometric_fock_ensemble,
    hjw_povm,
    steer,
    steering_setup,
    verify_marginal_invariance,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
ZERO = StateVector.basis(2, 0)
ONE = StateVector.basis(2, 1)
PLUS = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
MINUS = StateVector(np.array([INV_SQRT2, -INV_SQRT2]))
BELL = BipartiteState(np.eye(2) * INV_SQRT2)
# the columns |+> and |->
PLUS_MINUS = np.stack([PLUS.amplitudes, MINUS.amplitudes], axis=1)


def member_fidelities(result, ensemble) -> np.ndarray:
    """|<psi_i|u_i>|^2 of each member with its steered unit vector."""
    vectors = result.vectors[: len(ensemble.weights)]
    return np.abs(np.sum(ensemble.amplitudes.conj() * vectors, axis=1)) ** 2


def outcome_matrices(povm) -> list[np.ndarray]:
    """Every outcome's d x d effect, in outcome order."""
    return [linalg.hermitize(np.outer(v, v.conj())) for v in povm.factors.T]


def conditional_matrices(result) -> list[np.ndarray | None]:
    """Every outcome's conditional state as a d x d matrix, None if null."""
    return [None if null else np.outer(u, u.conj()) for null, u in zip(result.null, result.vectors)]


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

    def test_rejects_no_members(self):
        with pytest.raises(ValueError, match="^ensemble needs at least one member$"):
            Ensemble([], np.zeros((0, 2)))

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
        # a one-member marginal has rank one, so hjw_povm appends the
        # remainder as the dim - 1 unused directions, which must carry no
        # probability
        for seed in range(5):
            psi = haar_random_state(dim, seed)
            ensemble = Ensemble([1.0], [psi.amplitudes])
            purification, povm = steering_setup(ensemble)
            assert len(povm) == dim
            result = steer(purification, povm)
            assert len(result) == dim
            assert abs(result.probabilities[0] - 1.0) <= 1e-12
            assert member_fidelities(result, ensemble)[0] >= 1.0 - 1e-12
            assert np.all(result.probabilities[1:] <= 1e-12)

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
            result = steer(*steering_setup(ensemble))
            k = len(ensemble.weights)
            assert np.max(np.abs(result.probabilities[:k] - ensemble.weights)) <= 1e-8
            live = ~result.null[:k]
            assert np.all(member_fidelities(result, ensemble)[live] >= 1.0 - 1e-8)

    def test_rank_deficient_marginal_gets_remainder_outcome(self):
        # two qubit-like members inside a qutrit: marginal has a kernel
        ensemble = Ensemble([0.5, 0.5], np.eye(3)[:2])
        purification, povm = steering_setup(ensemble)
        assert len(povm) == 3
        result = steer(purification, povm)
        assert result.probabilities[2] <= 1e-12
        assert result.null.tolist() == [False, False, True]
        assert not result.vectors[2].any()

    def test_remainder_columns_are_the_unused_directions(self):
        # rank 4 in dimension 8: the last 8 - 4 columns are orthonormal, and
        # the 4 outcomes they add steer nothing
        for seed in range(5):
            ensemble = deficient_ensemble(8, 6, seed)
            purification, povm = steering_setup(ensemble)
            assert povm.factors.shape == (8, 6 + 8 - 4)
            tail = povm.factors[:, 6:]
            assert np.max(np.abs(tail.conj().T @ tail - np.eye(4))) <= 1e-12
            assert np.all(steer(purification, povm).probabilities[6:] <= 1e-12)

    @pytest.mark.parametrize("dim,n_members,dim_a", [(2, 1, 2), (3, 2, 3), (4, 6, 4), (3, 2, 5), (4, 3, 7), (8, 12, 11)])
    def test_steers_from_any_purification_of_the_marginal(self, random_ensemble, dim, n_members, dim_a):
        # W M for a Haar-random isometry W from purify's d-dimensional A side
        # into dim_a dimensions: a unitary on A when dim_a == d, an ancilla
        # with room to spare otherwise. Every member is steered with its
        # weight, and the remainder is the projector onto the dim_a - r
        # unused directions
        for seed in range(5):
            ensemble = random_ensemble(dim, n_members, seed)
            rng = make_rng(seed, stream=5)
            w, _ = np.linalg.qr(rng.standard_normal((dim_a, dim)) + 1j * rng.standard_normal((dim_a, dim)))
            purification = BipartiteState(w @ purify(barycenter(ensemble)).amplitudes)
            povm = hjw_povm(purification, ensemble)
            result = steer(purification, povm)
            assert np.max(np.abs(result.probabilities[:n_members] - ensemble.weights)) <= 1e-12
            assert np.all(member_fidelities(result, ensemble) >= 1.0 - 1e-12)
            r = min(dim, n_members)
            assert len(povm) == n_members + dim_a - r
            tail = povm.factors[:, n_members:]
            expected = np.repeat([0.0, 1.0], [r, dim_a - r])
            assert np.allclose(np.linalg.eigvalsh(tail @ tail.conj().T), expected, rtol=0.0, atol=1e-12)
            assert np.all(result.probabilities[n_members:] <= 1e-12)

    def test_rejects_barycenter_mismatch(self):
        purification = purify(DensityMatrix(np.diag([0.8, 0.2]).astype(complex)))
        ensemble = Ensemble([0.5, 0.5], np.eye(2))
        with pytest.raises(ValueError, match="barycenter"):
            hjw_povm(purification, ensemble)

    def test_rejects_ensemble_of_another_dimension(self):
        purification = purify(DensityMatrix(np.eye(3) / 3))
        with pytest.raises(ValueError, match="^ensemble dimension differs from the purified system$"):
            hjw_povm(purification, Ensemble([1.0], [[1, 0]]))

    def test_rejects_member_outside_support(self):
        inside = Ensemble([0.5, 0.5], np.eye(3)[:2])
        purification = purify(barycenter(inside))
        # a stray member must carry negligible weight, otherwise the
        # barycenter gate trips before the support check does
        eps = 1e-9
        target = Ensemble([0.5 - eps / 2, 0.5 - eps / 2, eps], np.eye(3))
        with pytest.raises(ValueError, match="support"):
            hjw_povm(purification, target)
        # purify's first row is the zero Schmidt row: without it A has two
        # dimensions, fewer than the target's numerical rank of three
        narrow = BipartiteState(purification.amplitudes[1:])
        with pytest.raises(ValueError, match="support"):
            hjw_povm(narrow, target)


def near_pure_ensemble(dim: int, n_members: int, seed: int) -> Ensemble:
    """Members within 1e-8 of |0>, turned by a Haar unitary: the frame in
    which eigh fixes the barycenter's small Schmidt directions only to about
    sqrt(eps)."""
    rng = make_rng(seed, stream=4)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rows = 1e-8 * (rng.standard_normal((n_members, dim)) + 1j * rng.standard_normal((n_members, dim)))
    rows[:, 0] = 1.0
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return Ensemble(rng.dirichlet(np.ones(n_members)), rows @ u.T)


class TestSteeringSetupMatchesHjw:
    # steering_setup's measurement against hjw_povm's on the same
    # purification, which takes its own SVD of M and checks M's marginal
    # against the barycenter; and, where purify's eigh is accurate, against
    # the whole purify -> hjw_povm chain
    @pytest.mark.parametrize(
        "kind,dim,n_members",
        [(kind, dim, None) for kind in ("full", "deficient", "near_pure") for dim in range(2, 9)]
        + [("full", 32, 64), ("deficient", 32, 48)],
    )
    def test_agrees_with_the_reference_construction(self, random_ensemble, kind, dim, n_members):
        build = {"full": random_ensemble, "deficient": deficient_ensemble, "near_pure": near_pure_ensemble}[kind]
        for seed in range(10 if n_members is None else 3):
            k = n_members or int(make_rng(seed, stream=6).integers(1, 2 * dim + 2))
            ensemble = build(dim, k, seed)
            purification, povm = steering_setup(ensemble)
            reference = hjw_povm(purification, ensemble)
            result, expected = steer(purification, povm), steer(purification, reference)
            probabilities = result.probabilities[:k]
            assert np.max(np.abs(probabilities - expected.probabilities[:k])) <= 1e-12
            # the same conditional states, up to a phase
            overlaps = np.abs(np.sum(result.vectors[:k].conj() * expected.vectors[:k], axis=1)) ** 2
            assert np.all(overlaps[~expected.null[:k]] >= 1.0 - 1e-12)
            assert verify_marginal_invariance(purification, povm, reference) <= 1e-12
            if kind != "near_pure":
                chain = purify(barycenter(ensemble))
                chained = steer(chain, hjw_povm(chain, ensemble)).probabilities[:k]
                assert np.max(np.abs(probabilities - chained)) <= 1e-12


class TestSteer:
    def test_outcomes_averaged_over_prepare_the_marginal(self):
        omega = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        purification = purify(omega)
        result = steer(purification, Povm(PLUS_MINUS))
        assert len(result) == 2 and result.vectors.shape == (2, 2)
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        average = sum(p * np.outer(u, u.conj()) for p, u in zip(result.probabilities, result.vectors))
        assert np.max(np.abs(average - omega.matrix)) <= 1e-10

    def test_bell_state_computational_measurement(self):
        result = steer(BELL, Povm(np.eye(2)))
        for probability, u, member in zip(result.probabilities, result.vectors, (ZERO, ONE)):
            assert probability == pytest.approx(0.5, abs=1e-12)
            assert abs(np.vdot(member.amplitudes, u)) ** 2 >= 1.0 - 1e-12

    def test_probabilities_sum_to_one(self, random_bipartite):
        for seed in range(10):
            state = random_bipartite(3, 2, seed)
            povm = random_povm(3, 4, seed)
            total = float(np.sum(steer(state, povm).probabilities))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_effect_yields_null_outcome(self):
        povm = Povm(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        result = steer(BELL, povm)
        assert result.null.tolist() == [True, False, False]
        assert result.probabilities[0] == 0.0 and not result.vectors[0].any()

    def test_zero_column_yields_a_null_outcome_with_a_zero_row(self):
        povm = Povm(factors=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        result = steer(BELL, povm)
        assert result.null.tolist() == [False, False, True]
        assert result.probabilities[2] == 0.0 and not result.vectors[2].any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            steer(BELL, Povm(np.eye(3, dtype=complex)))


def sqrt_route(state, effects):
    """Steering through sqrt(E) from eigh for each d x d effect E: branch =
    sqrt(E) M, probability its squared norm, conditional state
    branch^T conj(branch) / probability (None for a null outcome)."""
    m = state.amplitudes
    result = []
    for effect in effects:
        vals, vecs = np.linalg.eigh(effect)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        branch = root @ m
        prob = float(np.real(np.vdot(branch, branch)))
        result.append((prob, branch.T @ branch.conj() / prob if prob >= NULL_OUTCOME_PROB else None))
    return result


def deficient_ensemble(dim: int, n_members: int, seed: int) -> Ensemble:
    """Haar members of a random subspace of dimension max(1, dim // 2)."""
    rank = max(1, dim // 2)
    rng = make_rng(seed, stream=3)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    weights = rng.dirichlet(np.ones(n_members))
    return Ensemble(weights, [basis @ haar_random_state(rank, seed * 31 + i).amplitudes for i in range(n_members)])


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

    @pytest.mark.parametrize("dim", [2, 8, 32])
    @pytest.mark.parametrize("shape", ["rank_deficient", "one_member"])
    def test_hjw_outcomes(self, dim, shape):
        # the measurement ends in remainder columns
        ensemble = {
            "rank_deficient": lambda: deficient_ensemble(dim, dim + 1, dim),
            "one_member": lambda: Ensemble([1.0], [haar_random_state(dim, dim).amplitudes]),
        }[shape]()
        purification = purify(barycenter(ensemble))
        self._compare(purification, hjw_povm(purification, ensemble))

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_refinements_of_an_effect_add_up_to_its_branch(self, dim, random_bipartite):
        # the first dim columns of a random POVM refine one Gram effect E,
        # and E's spectral pieces refine it again: in both, the outcomes'
        # branches p_i u_i u_i^dagger add up to the sqrt(E) branch
        state = random_bipartite(dim, dim, dim)
        factors = random_povm(dim, 3, dim).factors
        effect = factors[:, :dim] @ factors[:, :dim].conj().T
        ((prob, want),) = sqrt_route(state, [effect])
        vals, vecs = np.linalg.eigh(effect)
        pieces = vecs * np.sqrt(np.clip(vals, 0.0, None))
        for refined in (factors, np.hstack([pieces, factors[:, dim:]])):
            result = steer(state, Povm(refined))
            p, u = result.probabilities[:dim], result.vectors[:dim]
            assert p.sum() == pytest.approx(prob, abs=1e-12)
            assert np.max(np.abs((u.T * p) @ u.conj() - prob * want)) <= 1e-12

    @staticmethod
    def _compare(state, povm):
        result = steer(state, povm)
        assert len(result) == len(povm)
        pairs = zip(result.probabilities, conditional_matrices(result), sqrt_route(state, outcome_matrices(povm)))
        for probability, conditional, (prob, want) in pairs:
            assert probability == pytest.approx(prob, abs=1e-12)
            assert (conditional is None) == (want is None)
            if want is not None:
                assert np.max(np.abs(conditional - want)) <= 1e-12


class TestMarginalInvariance:
    def test_identical_measurements_give_zero(self, random_bipartite):
        state = random_bipartite(2, 2, 0)
        povm = random_povm(2, 3, 0)
        assert verify_marginal_invariance(state, povm, povm) == 0.0

    def test_z_versus_x_on_bell_state(self):
        z_basis = Povm(np.eye(2))
        x_basis = Povm(PLUS_MINUS)
        assert verify_marginal_invariance(BELL, z_basis, x_basis) <= 1e-10

    def test_random_states_and_measurements(self, random_bipartite):
        for seed in range(20):
            state = random_bipartite(2 + seed % 2, 2 + (seed + 1) % 2, seed)
            povm1 = random_povm(state.dim_a, 2 + seed % 3, seed + 100)
            povm2 = random_povm(state.dim_a, 2 + (seed + 1) % 3, seed + 200)
            assert verify_marginal_invariance(state, povm1, povm2) <= 1e-10

    def test_rejects_povm_of_another_dimension(self):
        with pytest.raises(ValueError, match="^POVM dimension differs from A side$"):
            verify_marginal_invariance(BELL, Povm(np.eye(2)), Povm(np.eye(3)))

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

    def test_truncation_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
            geometric_fock_ensemble(0.5, -1)
