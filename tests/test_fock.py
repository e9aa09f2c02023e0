import math
import tracemalloc

import numpy as np
import pytest

from bornlab import fock, linalg, steering
from bornlab.fock import (
    sigma_affinity_convergence,
    tau_coherent_analytic,
    truncation_convergence,
)
from bornlab.linalg import StateVector
from bornlab.rules import PhiRule, builtin_rules, phi_eval, prob_ensemble
from bornlab.steering import geometric_fock_ensemble
from bornlab.transition import tau_closed


class TestTruncatedCoherent:
    """The truncated coherent state that truncation_convergence builds."""

    @staticmethod
    def state(alpha, n):
        return fock._truncated_coherent(fock._coherent_amplitudes(alpha, n), alpha, n, "alpha")

    def test_vacuum(self):
        expected = np.zeros(6, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(self.state(0.0, 5).amplitudes, expected)

    def test_poissonian_weights(self):
        alpha = 1.3
        state = self.state(alpha, 30)
        # independent oracle: |c_n|^2 proportional to the Poisson pmf
        n = np.arange(4)
        pmf = np.exp(-alpha**2) * alpha ** (2 * n) / np.array([math.factorial(k) for k in n])
        assert np.allclose(np.abs(state.amplitudes[:4]) ** 2, pmf, atol=1e-10)


class TestAnalyticOverlap:
    def test_same_amplitude(self):
        assert tau_coherent_analytic(0.7 + 0.2j, 0.7 + 0.2j) == 1.0

    def test_unit_separation(self):
        assert tau_coherent_analytic(0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_double_separation(self):
        assert tau_coherent_analytic(0.0, 2.0) == pytest.approx(math.exp(-4.0), abs=1e-15)

    def test_phase_matters_only_through_distance(self):
        assert tau_coherent_analytic(1.0, 1j) == pytest.approx(math.exp(-2.0), abs=1e-15)


class TestTruncationConvergence:
    def test_deep_cutoff_error_is_tiny(self):
        pairs = dict(truncation_convergence(0.0, 1.0, [40]))
        assert pairs[40] <= 1e-8

    def test_identical_amplitudes_have_no_error(self):
        for _, err in truncation_convergence(0.8, 0.8, [5, 10, 20]):
            assert err <= 1e-14

    def test_monotone_decrease_with_floor(self):
        errors = [err for _, err in truncation_convergence(0.0, 2.0, [5, 10, 20, 40])]
        assert errors[0] > 1e-4  # shallow truncation really is wrong
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-14

    def test_oscillating_overlap_still_converges(self):
        errors = [err for _, err in truncation_convergence(2.0, -2.0, [5, 10, 20, 40])]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-14
        assert errors[-1] <= 1e-8

    def test_requires_ascending_cutoffs(self):
        with pytest.raises(ValueError):
            truncation_convergence(0.0, 1.0, [10, 5])

    @pytest.mark.parametrize(
        "alpha,beta,cutoffs",
        [(0.0, 2.0, [0, 1, 5, 10, 20, 40]), (2.0, -2.0, list(range(60))), (1.5 + 0.5j, -0.3j, [3, 200])],
    )
    def test_matches_per_cutoff_reference_with_two_amplitude_builds(self, monkeypatch, alpha, beta, cutoffs):
        # the reference builds each truncated pair from n = 0 at every cutoff
        exact = tau_coherent_analytic(alpha, beta)
        reference = []
        for n in cutoffs:
            a, b = (fock._coherent_amplitudes(complex(z), n) for z in (alpha, beta))
            tau = tau_closed(StateVector(a / np.linalg.norm(a)), StateVector(b / np.linalg.norm(b))).value
            reference.append((n, abs(tau - exact)))
        builds = []
        original = fock._coherent_amplitudes

        def counting(amplitude, n_max):
            builds.append(n_max)
            return original(amplitude, n_max)

        monkeypatch.setattr(fock, "_coherent_amplitudes", counting)
        assert truncation_convergence(alpha, beta, cutoffs) == reference
        assert builds == [cutoffs[-1], cutoffs[-1]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,beta,name", [(40.0, 0.0, "alpha"), (0.0, 40j, "beta"), (30.0, 0.0, "alpha")])
    def test_underflowing_amplitude_is_named_before_dividing(self, alpha, beta, name):
        # exp(-|40|^2/2) is 0; at |30| and cutoff 5 the squares of the
        # entries underflow. Either way the norm is 0 and nothing is divided.
        with pytest.raises(ValueError, match=f"coherent amplitude {name} = .*underflows to norm 0"):
            truncation_convergence(alpha, beta, [5, 10])


class TestSigmaAffinityConvergence:
    def test_identity_rule_vacuum_target(self):
        phi = StateVector.basis(31, 0)
        triples = sigma_affinity_convergence(PhiRule.identity(), 0.5, phi, list(range(0, 31, 5)))
        for n, deviation, tail in triples:
            assert tail == pytest.approx(0.5 ** (n + 1))
            assert deviation <= tail
        by_n = {n: dev for n, dev, _ in triples}
        assert by_n[20] <= 4.8e-7

    def test_vacuum_target_limit_value(self):
        # only the n=0 member overlaps |0>, so the limit is the n=0 weight
        from bornlab.rules import prob_ensemble
        from bornlab.steering import geometric_fock_ensemble

        for r in (0.3, 0.5, 0.8):
            ensemble = geometric_fock_ensemble(r, 40)
            value = prob_ensemble(PhiRule.identity(), ensemble, StateVector.basis(41, 0)).value
            assert value == pytest.approx(1.0 - r, abs=1e-12)

    def test_reference_is_the_whole_countable_mixture(self):
        # tau_n = 1/200 for n < 200: the cutoff-5 sum is (1 - r^6)/200 and
        # the whole mixture gives (1 - r^200)/200
        r = 0.95
        phi = StateVector(np.ones(200, dtype=complex) / math.sqrt(200.0))
        [(n, deviation, tail)] = sigma_affinity_convergence(PhiRule.identity(), r, phi, [5])
        assert (n, tail) == (5, r**6)
        assert deviation == pytest.approx((r**6 - r**200) / 200, rel=0, abs=1e-15)

    def test_reference_counts_phi_of_zero_on_every_deeper_level(self):
        # Phi(0) = 0.2: the vacuum target gives (1 - r) + 0.2 r in the limit,
        # and cutoff N misses 0.2 r^(N+1) of it
        r = 0.95
        rule = PhiRule.custom([0.2, 1.0])
        for n, deviation, tail in sigma_affinity_convergence(rule, r, StateVector.basis(9, 0), [0, 3, 8]):
            assert deviation == pytest.approx(0.2 * tail, rel=0, abs=1e-15)

    def test_all_builtin_rules_respect_tail_bound(self):
        phi = StateVector(np.ones(13, dtype=complex) / math.sqrt(13.0))
        for rule in builtin_rules().values():
            for n, deviation, tail in sigma_affinity_convergence(rule, 0.8, phi, [0, 4, 8, 12]):
                assert deviation <= tail

    def test_target_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            sigma_affinity_convergence(PhiRule.identity(), 0.5, StateVector.basis(3, 0), [10])

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            sigma_affinity_convergence(PhiRule.identity(), 1.2, StateVector.basis(11, 0), [5])


def member_route(rule, r, phi, n_list):
    """sigma_affinity_convergence by the definition: one basis-state ensemble
    per cutoff, every member scored by prob_ensemble. The reference is the
    whole countable mixture: the ensemble of the D = phi.dim levels that
    phi reaches, plus Phi(0) for the weight r^D of the levels from D on."""
    dim = phi.dim
    reference = prob_ensemble(rule, geometric_fock_ensemble(r, dim - 1), phi).value + phi_eval(rule, 0.0) * r**dim
    return [
        (n, abs(prob_ensemble(rule, geometric_fock_ensemble(r, n, dim), phi).value - reference), r ** (n + 1))
        for n in n_list
    ]


def random_target(rng, dim, complex_entries=True):
    # moduli spread over eight decades, so that many members weigh in
    amps = rng.standard_normal(dim) * 10.0 ** rng.uniform(-8, 0, dim)
    if complex_entries:
        amps = amps + 1j * rng.standard_normal(dim) * 10.0 ** rng.uniform(-8, 0, dim)
    return StateVector(amps / np.linalg.norm(amps))


RULES = {
    "identity": PhiRule.identity(),
    "power(2)": PhiRule.power(2.0),
    "power(0.5)": PhiRule.power(0.5),
    "power(1.2)": PhiRule.power(1.2),
    "piecewise_affine": PhiRule.piecewise_affine([[0.0, 0.0], [0.3, 0.55], [1.0, 1.0]]),
    "custom": PhiRule.custom((np.linspace(0.0, 1.0, 33) ** 1.3).tolist()),
}


class TestSigmaAffinityRoute:
    """The amplitude-moduli route gives the member route's triples bit for
    bit (== on every float), and raises where it raises, with its message."""

    @pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
    @pytest.mark.parametrize(
        "n_list,dim",
        [
            ([0], 1),  # cutoff 0 on a one-level target
            ([7], 8),  # the deepest cutoff holds every level of the target
            ([0, 3, 9, 20], 21),
            ([2, 5], 90),  # target far longer than the deepest cutoff
            ([1, 4, 30], 40),
        ],
    )
    def test_triples_equal_the_member_route(self, rule, n_list, dim):
        rng = np.random.default_rng([dim, *n_list])
        for phi in (random_target(rng, dim), random_target(rng, dim, complex_entries=False)):
            got = sigma_affinity_convergence(rule, 0.73, phi, n_list)
            assert got == member_route(rule, 0.73, phi, n_list)
            assert [tuple(map(type, t)) for t in got] == [(int, float, float)] * len(n_list)

    @pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
    @pytest.mark.parametrize("index,n_list", [(0, [0, 5]), (4, [2, 4, 6]), (30, [3, 10])])
    def test_fock_targets(self, rule, index, n_list):
        # the CLI's {"fock": n} target: a basis state of dimension max(N, n) + 1
        phi = StateVector.basis(max(max(n_list), index) + 1, index)
        for r in (0.05, 0.5, 0.95):
            assert sigma_affinity_convergence(rule, r, phi, n_list) == member_route(rule, r, phi, n_list)

    def test_seeded_random_cases(self):
        rng = np.random.default_rng(2026)
        rules = list(RULES.values())
        for case in range(120):
            rule = rules[case % len(rules)]
            r = float(rng.uniform(0.05, 0.95))
            n_list = sorted({int(n) for n in rng.integers(0, 60, int(rng.integers(1, 7)))})
            phi = random_target(rng, int(rng.integers(max(n_list) + 1, max(n_list) + 130)), case % 4 != 0)
            assert sigma_affinity_convergence(rule, r, phi, n_list) == member_route(rule, r, phi, n_list)

    def test_moduli_that_pow_and_multiplication_square_differently(self):
        # tau_closed squares |<phi|n>| with pow(); multiplying the modulus by
        # itself rounds differently for about one in a thousand values, so
        # each such modulus is placed where it changes the reference sum
        moduli = np.random.default_rng(17).uniform(0.05, 0.9, 20000)
        split = moduli[np.float_power(moduli, 2.0) != moduli * moduli][:6]
        for h in split:
            phi = StateVector(np.array([math.sqrt(1.0 - h * h), h], dtype=complex))
            for rule in (PhiRule.identity(), PhiRule.power(2.0)):
                assert sigma_affinity_convergence(rule, 0.5, phi, [0]) == member_route(rule, 0.5, phi, [0])

    def test_tau_past_one_raises_the_member_route_message(self):
        # within the state's norm tolerance, yet |phi_0|^2 = 1 + 1.8e-9
        phi = StateVector(np.array([1.0 + 9e-10, 0.0], dtype=complex))
        with pytest.raises(ValueError) as member:
            member_route(PhiRule.identity(), 0.5, phi, [0, 1])
        with pytest.raises(ValueError) as moduli:
            sigma_affinity_convergence(PhiRule.identity(), 0.5, phi, [0, 1])
        assert str(moduli.value) == str(member.value)
        assert str(member.value).startswith("transition probability 1.0000000018")

    @pytest.mark.parametrize("failing", ["reference", "cutoff"])
    def test_weight_sum_is_checked_for_the_reference_and_each_cutoff(self, monkeypatch, failing):
        # find a ratio whose checked total (the reference's, over the 54
        # levels of the target, or cutoff 3's) misses 1 by more than the
        # other does, and set the tolerance between the two, so that only
        # the checked one fails
        def miss(r, n):
            return abs(sum(float((1.0 - r) * r**k) for k in range(n + 1)) + r ** (n + 1) - 1.0)

        checked, other = (53, 3) if failing == "reference" else (3, 53)
        rng = np.random.default_rng(5)
        r = next(r for r in rng.uniform(0.05, 0.95, 500) if miss(r, checked) > miss(r, other))
        monkeypatch.setattr(steering, "WEIGHT_SUM_ATOL", (miss(r, checked) + miss(r, other)) / 2)
        phi = StateVector.basis(54, 1)
        with pytest.raises(ValueError, match="weights plus tail sum to") as member:
            member_route(PhiRule.identity(), r, phi, [3])
        with pytest.raises(ValueError) as moduli:
            sigma_affinity_convergence(PhiRule.identity(), r, phi, [3])
        assert str(moduli.value) == str(member.value)

    def test_memory_is_linear_in_the_cutoff(self):
        # the member route holds ~(N + 1)^2 complex numbers, ~1.6 GB here
        n = 10**4
        phi = StateVector.basis(n + 1, 3)
        tracemalloc.start()
        try:
            triples = sigma_affinity_convergence(PhiRule.power(2.0), 0.5, phi, [n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert triples[0][0] == n

    def test_no_member_state_or_ensemble_is_built(self, monkeypatch):
        phi = StateVector(np.ones(60, dtype=complex) / math.sqrt(60.0))
        built = []
        for cls in (linalg.StateVector, steering.Ensemble):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        sigma_affinity_convergence(PhiRule.power(2.0), 0.7, phi, [0, 10, 59])
        assert built == []
