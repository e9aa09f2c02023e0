import math

import numpy as np
import pytest

from bornlab.fock import (
    CoherentSpec,
    coherent_vector,
    sigma_affinity_convergence,
    tau_coherent_analytic,
    truncation_convergence,
)
from bornlab.linalg import StateVector
from bornlab.rules import PhiRule, builtin_rules


class TestCoherentSpec:
    def test_guardrail_accepts_deep_truncation(self):
        CoherentSpec(alpha=2.0, truncation_n=16)

    def test_guardrail_rejects_shallow_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            CoherentSpec(alpha=2.0, truncation_n=10)

    def test_truncation_must_be_positive(self):
        with pytest.raises(ValueError):
            CoherentSpec(alpha=0.1, truncation_n=0)


class TestCoherentVector:
    def test_vacuum(self):
        state, deficit = coherent_vector(CoherentSpec(alpha=0.0, truncation_n=5))
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(state.amplitudes, expected.astype(complex))
        assert deficit == 0.0

    def test_unit_amplitude_deep_cutoff_has_negligible_deficit(self):
        state, deficit = coherent_vector(CoherentSpec(alpha=1.0, truncation_n=40))
        assert deficit <= 1e-12
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12

    def test_poissonian_weights(self):
        alpha = 1.3
        state, _ = coherent_vector(CoherentSpec(alpha=alpha, truncation_n=30))
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

    def test_self_comparison_with_zero_padding_vanishes(self):
        phi = StateVector.basis(16, 0)
        triples = sigma_affinity_convergence(
            PhiRule.power(2.0), 0.5, phi, [15], reference_padding=0
        )
        assert triples[0][1] <= 1e-14

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
