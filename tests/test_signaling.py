import dataclasses
import math

import numpy as np
import pytest

from bornlab.linalg import Effect, Povm, hermitize
from bornlab.rules import PhiRule, builtin_rules
from bornlab.signaling import (
    build_two_level_scenario,
    detectability,
    jensen_gap,
    required_sample_size,
    run_steering_experiment,
)
from bornlab.steering import verify_marginal_invariance
from bornlab.transition import tau_closed


class TestScenarioConstruction:
    def test_extreme_probabilities(self):
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        assert np.allclose(scenario.psi1.amplitudes, [0.0, 1.0])
        assert np.allclose(scenario.psi2.amplitudes, [1.0, 0.0])
        assert np.allclose(scenario.omega.matrix, np.eye(2) / 2, atol=1e-12)
        assert not scenario.degenerate

    @pytest.mark.parametrize("p1,p2,lam", [(0.1, 0.9, 0.25), (0.35, 0.6, 0.75), (0.0, 0.55, 0.5)])
    def test_construction_hits_requested_transition_probabilities(self, p1, p2, lam):
        scenario = build_two_level_scenario(p1, p2, lam)
        assert abs(tau_closed(scenario.psi1, scenario.phi).value - p1) <= 1e-10
        assert abs(tau_closed(scenario.psi2, scenario.phi).value - p2) <= 1e-10

    def test_range_validation(self):
        with pytest.raises(ValueError, match="p1"):
            build_two_level_scenario(-0.1, 0.5, 0.5)
        with pytest.raises(ValueError, match="lambda"):
            build_two_level_scenario(0.1, 0.5, 1.0)


class TestJensenGap:
    def test_identity_has_no_gap(self):
        rule = PhiRule.identity()
        for p1, p2, lam in [(0.0, 1.0, 0.5), (0.2, 0.7, 0.25), (0.4, 0.9, 0.75)]:
            assert abs(jensen_gap(rule, p1, p2, lam)) <= 1e-15

    def test_power_two_extreme_value(self):
        assert jensen_gap(PhiRule.power(2.0), 0.0, 1.0, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_power_half_extreme_value(self):
        expected = 0.5 - math.sqrt(0.5)
        assert jensen_gap(PhiRule.power(0.5), 0.0, 1.0, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="lambda"):
            jensen_gap(PhiRule.identity(), 0.1, 0.9, 1.5)


class TestSteeringExperiment:
    def test_identity_rule_closes_the_gap(self):
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        record = run_steering_experiment(PhiRule.identity(), scenario)
        assert abs(record.gap) <= 1e-10
        assert record.pipeline_discrepancy <= 1e-8

    def test_power_two_opens_quarter_gap(self):
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        record = run_steering_experiment(PhiRule.power(2.0), scenario)
        assert record.gap == pytest.approx(0.25, abs=1e-8)
        assert record.analytic_gap == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_scenario_has_no_gap(self):
        scenario = build_two_level_scenario(0.4, 0.4, 0.5)
        record = run_steering_experiment(PhiRule.power(2.0), scenario)
        assert abs(record.gap) <= 1e-10

    def test_equal_probabilities_steer_to_no_gap(self):
        # the two members coincide, so omega is their pure projector; the
        # general steering route must find no gap for any rule, steep ones
        # at p = 0 included
        for p in (0.0, 0.25, 0.5, 1.0):
            for lam in (0.25, 0.5, 0.75):
                scenario = build_two_level_scenario(p, p, lam)
                assert scenario.degenerate
                assert np.allclose(scenario.omega.matrix, scenario.psi1.projector(), atol=1e-12)
                for rule in builtin_rules().values():
                    assert abs(run_steering_experiment(rule, scenario).gap) <= 1e-12

    def test_nearly_equal_probabilities_keep_their_analytic_gap(self):
        # steep rules have a sizable gap even at |p1 - p2| = 1e-12 near the
        # origin; only exact equality flags a degenerate, gapless scenario
        scenario = build_two_level_scenario(0.0, 1e-12, 0.5)
        assert not scenario.degenerate
        record = run_steering_experiment(PhiRule.power(0.5), scenario)
        assert record.analytic_gap == pytest.approx(0.5e-6 - (0.5e-12) ** 0.5, rel=1e-9)
        assert record.pipeline_discrepancy <= 1e-8

    def test_pipeline_matches_analytic_formula_on_grid(self):
        probabilities = (0.0, 0.25, 0.6, 1.0)
        for rule in builtin_rules().values():
            for i, p1 in enumerate(probabilities):
                for p2 in probabilities[i + 1:]:
                    for lam in (0.25, 0.5, 0.75):
                        scenario = build_two_level_scenario(p1, p2, lam)
                        record = run_steering_experiment(rule, scenario)
                        assert record.pipeline_discrepancy <= 1e-8

    def test_gap_sign_tracks_curvature(self):
        convex = PhiRule.power(2.0)
        concave = PhiRule.power(0.5)
        for p1, p2, lam in [(0.0, 1.0, 0.5), (0.1, 0.8, 0.25), (0.3, 0.9, 0.75)]:
            scenario = build_two_level_scenario(p1, p2, lam)
            assert run_steering_experiment(convex, scenario).gap > 1e-6
            assert run_steering_experiment(concave, scenario).gap < -1e-6
            assert abs(run_steering_experiment(PhiRule.identity(), scenario).gap) <= 1e-10

    def test_state_level_no_signaling_holds_regardless_of_rule(self):
        # the steering choice never moves Bob's marginal; only the
        # probability rule can create the difference
        for p1, p2, lam in [(0.0, 1.0, 0.5), (0.2, 0.7, 0.25)]:
            scenario = build_two_level_scenario(p1, p2, lam)
            distance = verify_marginal_invariance(
                scenario.purification, scenario.povm_split, Povm((Effect(np.eye(2, dtype=complex)),))
            )
            assert distance <= 1e-10

    def test_a_branch_with_no_pure_state_is_a_named_error(self):
        # the split read through general effects: each branch is a d x d
        # matrix with no unit vector to read the member from
        scenario = build_two_level_scenario(0.2, 0.7, 0.25)
        general = Povm(tuple(Effect(hermitize(np.outer(v, v.conj()))) for v in scenario.povm_split.factors.T))
        with pytest.raises(ValueError, match="conditional state of outcome 0 is not pure"):
            run_steering_experiment(PhiRule.power(2.0), dataclasses.replace(scenario, povm_split=general))


class TestDetectability:
    def test_distorted_rule_is_detected_at_ten_thousand_samples(self):
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        report = detectability(PhiRule.power(2.0), scenario, n_samples=10_000, seed=1)
        assert report.rejected
        assert report.p_value < 1e-6
        assert not report.insufficient_sample

    def test_identity_rule_mostly_passes(self):
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        rejections = sum(
            detectability(PhiRule.identity(), scenario, n_samples=2000, seed=seed).rejected
            for seed in range(40)
        )
        # a 5%-level test should reject a true null rarely
        assert rejections <= 8

    def test_single_sample_is_flagged_insufficient(self):
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        report = detectability(PhiRule.power(2.0), scenario, n_samples=1, seed=0)
        assert report.insufficient_sample
        assert not report.rejected

    def test_deterministic_per_seed(self):
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        first = detectability(PhiRule.power(2.0), scenario, n_samples=500, seed=9)
        second = detectability(PhiRule.power(2.0), scenario, n_samples=500, seed=9)
        assert first == second
        third = detectability(PhiRule.power(2.0), scenario, n_samples=500, seed=10)
        assert third.freq_split != first.freq_split or third.freq_direct != first.freq_direct

    def test_sample_count_validation(self):
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            detectability(PhiRule.identity(), scenario, n_samples=0, seed=0)

    def test_sample_size_estimate(self):
        # formula check against an independent inline computation: the test
        # is two-sided, so the level quantile is z_{1-alpha/2}
        z_level = 1.959963984540054  # 97.5th percentile of the standard normal
        z_power = 1.6448536269514722  # 95th percentile of the standard normal
        expected = (z_level + z_power) ** 2 * 0.375 * (1 - 0.375) * 2 / 0.25**2
        assert required_sample_size(0.5, 0.25) == pytest.approx(expected, rel=1e-6)
        assert math.isinf(required_sample_size(0.5, 0.5))
        scenario = build_two_level_scenario(0.0, 1.0, 0.5)
        report = detectability(PhiRule.power(2.0), scenario, n_samples=100, seed=3)
        assert report.sample_size_estimate == pytest.approx(expected, rel=1e-6)

    def test_sample_size_is_two_sided(self):
        # p = 0.55 against 0.5 at alpha = 0.05: the two-sided estimate is
        # ~2592.5 per arm; the one-sided z_{1-alpha} would give ~2159
        assert required_sample_size(0.55, 0.5, 0.05) == pytest.approx(2592.44, rel=1e-5)

    def test_alpha_is_both_error_rates(self):
        z_level = 2.5758293035489004  # 99.5th percentile of the standard normal
        z_power = 2.3263478740408408  # 99th percentile of the standard normal
        expected = (z_level + z_power) ** 2 * 0.525 * (1 - 0.525) * 2 / 0.05**2
        assert required_sample_size(0.55, 0.5, 0.01) == pytest.approx(expected, rel=1e-9)
