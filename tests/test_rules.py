import json
import math
from dataclasses import fields

import numpy as np
import pytest

from bornlab.linalg import StateVector, haar_random_state
from bornlab.rules import (
    EnsembleProbability,
    PhiRule,
    builtin_rules,
    check_admissibility,
    phi_eval,
    prob_ensemble,
    prob_pure,
)
from bornlab.steering import Ensemble, barycenter, geometric_fock_ensemble
from bornlab.transition import tau_extremal_effect

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestEval:
    def test_identity(self):
        assert phi_eval(PhiRule.identity(), 0.3) == 0.3

    def test_power_two(self):
        assert phi_eval(PhiRule.power(2.0), 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_power_half(self):
        assert phi_eval(PhiRule.power(0.5), 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            phi_eval(PhiRule.identity(), 1.2)
        with pytest.raises(ValueError):
            phi_eval(PhiRule.identity(), -0.1)

    def test_vectorized_evaluation(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert np.allclose(PhiRule.power(2.0).eval(grid), grid**2)

    def test_piecewise_interpolation(self):
        rule = PhiRule.piecewise_affine([(0.0, 0.0), (0.5, 0.7), (1.0, 1.0)])
        assert rule.eval(0.25) == pytest.approx(0.35)
        assert rule.eval(0.75) == pytest.approx(0.85)

    def test_custom_table_matches_sampled_function(self):
        rule = PhiRule.custom(np.linspace(0.0, 1.0, 1025) ** 3)
        grid = np.linspace(0.0, 1.0, 57)
        assert np.max(np.abs(rule.eval(grid) - grid**3)) <= 1e-5


KNOTS = [(0.0, 0.0), (0.3, 0.5), (0.7, 0.6), (1.0, 1.0)]
CUSTOM_VALUES = np.linspace(0.0, 1.0, 1025) ** 1.2


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def same_bits(got, want) -> bool:
    return np.array_equal(bits(got), bits(want))


class TestEvaluationForms:
    """Every kind is np.power or np.interp, bit for bit, on arrays and scalars."""

    POINTS = np.concatenate([np.random.default_rng(3).random(20_000), np.linspace(0.0, 1.0, 1001)])

    @pytest.mark.parametrize(
        "rule,formula",
        [
            (PhiRule.identity(), lambda p: p),
            (PhiRule.power(2.0), lambda p: np.power(p, 2.0)),
            (PhiRule.power(0.37), lambda p: np.power(p, 0.37)),
            (
                PhiRule.piecewise_affine(KNOTS),
                lambda p: np.interp(p, [x for x, _ in KNOTS], [y for _, y in KNOTS]),
            ),
            (
                PhiRule.custom(CUSTOM_VALUES),
                lambda p: np.interp(p, np.linspace(0.0, 1.0, CUSTOM_VALUES.size), CUSTOM_VALUES),
            ),
            (PhiRule.custom([0.0, 0.2, 1.0]), lambda p: np.interp(p, [0.0, 0.5, 1.0], [0.0, 0.2, 1.0])),
        ],
    )
    def test_eval_matches_its_formula(self, rule, formula):
        assert same_bits(rule.eval(self.POINTS), formula(self.POINTS))
        for p in self.POINTS[:200].tolist():
            got = rule.eval(p)
            assert type(got) is float
            assert same_bits(got, formula(np.float64(p)))

    def test_identity_is_power_one(self):
        assert same_bits(PhiRule.identity().eval(self.POINTS), PhiRule.power(1.0).eval(self.POINTS))

    @pytest.mark.parametrize("values", [CUSTOM_VALUES, [0.0, 0.2, 1.0]])
    def test_custom_is_piecewise_through_its_grid(self, values):
        grid = np.linspace(0.0, 1.0, len(values)).tolist()
        custom = PhiRule.custom(values)
        piecewise = PhiRule.piecewise_affine(zip(grid, np.asarray(values).tolist()))
        assert same_bits(custom.eval(self.POINTS), piecewise.eval(self.POINTS))
        assert same_bits([custom(p) for p in self.POINTS[:200]], [piecewise(p) for p in self.POINTS[:200]])


class TestSlopeBounds:
    STARTS = np.linspace(0.0, 1.0, 41)

    @pytest.mark.parametrize(
        "rule",
        [
            PhiRule.identity(),
            PhiRule.power(2.0),
            PhiRule.power(0.3),
            PhiRule.power(1.5),
            PhiRule.piecewise_affine(KNOTS),
            # knots that stop short of 0 and 1 leave flat ends
            PhiRule.piecewise_affine([(1e-12, 0.0), (0.5, 0.8), (1.0 - 1e-12, 1.0)]),
            PhiRule.custom(CUSTOM_VALUES),
            PhiRule.custom(np.random.default_rng(4).uniform(-1e3, 1e3, 37)),
        ],
        ids=lambda rule: rule.describe(),
    )
    def test_bounds_bracket_difference_quotients(self, rule):
        lo, hi = rule.slope_bounds(self.STARTS)
        assert lo.shape == hi.shape == self.STARTS.shape
        assert np.all(lo <= hi)
        form = rule._form
        nodes = form[0] if isinstance(form, tuple) else []
        for a, low, high in zip(self.STARTS, lo, hi):
            points = np.unique(np.concatenate([np.linspace(a, 1.0, 2001), [x for x in nodes if x >= a], [1.0]]))
            values = np.asarray(rule.eval(points), dtype=float)
            steps = np.diff(points)
            slopes = np.diff(values) / steps
            # rounding of the two values, over the step between them
            slack = 1e-12 * (1.0 + np.abs(slopes)) + 8 * np.finfo(float).eps * np.max(np.abs(values)) / steps
            assert np.all(slopes >= low - slack) and np.all(slopes <= high + slack), (a, low, high)

    def test_power_bounds_are_its_derivative_at_the_ends(self):
        starts = np.array([0.0, 0.25, 1.0])
        lo, hi = PhiRule.power(2.0).slope_bounds(starts)
        assert lo.tolist() == [0.0, 0.5, 2.0] and hi.tolist() == [2.0, 2.0, 2.0]
        lo, hi = PhiRule.power(0.5).slope_bounds(starts)
        assert lo.tolist() == [0.5, 0.5, 0.5] and hi.tolist() == [math.inf, 1.0, 0.5]
        lo, hi = PhiRule.identity().slope_bounds(starts)
        assert lo.tolist() == hi.tolist() == [1.0, 1.0, 1.0]


class TestAdmissibility:
    def test_identity_passes(self):
        report = check_admissibility(PhiRule.identity())
        assert report.passed and report.boundary_ok and report.monotone_ok

    def test_power_two_passes(self):
        assert check_admissibility(PhiRule.power(2.0)).passed

    def test_decreasing_segment_fails_at_first_drop(self):
        rule = PhiRule.piecewise_affine([(0.0, 0.0), (0.4, 0.8), (0.7, 0.5), (1.0, 1.0)])
        report = check_admissibility(rule)
        assert not report.passed and not report.monotone_ok
        assert report.first_violation == pytest.approx(0.4, abs=1e-9)

    def test_bad_endpoint_fails(self):
        rule = PhiRule.custom(np.linspace(0.1, 1.0, 11))
        report = check_admissibility(rule)
        assert not report.passed and not report.boundary_ok
        assert report.first_violation == 0.0

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            PhiRule.power(-1.0)
        with pytest.raises(ValueError):
            PhiRule.piecewise_affine([(0.0, 0.0)])
        with pytest.raises(ValueError):
            PhiRule.piecewise_affine([(0.2, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            PhiRule.custom([0.5])
        with pytest.raises(ValueError):
            PhiRule(kind="mystery")

    def test_a_rule_holds_one_parameter(self):
        assert [f.name for f in fields(PhiRule) if f.init] == ["kind", "param"]
        # a second, unchecked parameter can no longer ride along
        with pytest.raises(TypeError):
            PhiRule(kind="power", alpha=2.0, table=[math.nan, "x"])
        assert PhiRule(kind="power", param=2.0) == PhiRule.power(2.0)

    def test_identity_rejects_a_parameter(self):
        with pytest.raises(ValueError, match="identity rule takes no parameter"):
            PhiRule(kind="identity", param=-5)
        # a rule spec's unknown keys are still ignored
        assert PhiRule.from_dict({"kind": "identity", "alpha": -5}) == PhiRule.identity()

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_power_rejects_non_finite_exponent(self, alpha):
        with pytest.raises(ValueError, match="finite exponent"):
            PhiRule.power(alpha)

    @pytest.mark.parametrize("knot", [(math.nan, 0.5), (0.5, math.inf), (0.5, -math.inf)])
    def test_piecewise_rejects_non_finite_knot(self, knot):
        with pytest.raises(ValueError, match="finite"):
            PhiRule.piecewise_affine([(0.0, 0.0), knot, (1.0, 1.0)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_custom_rejects_non_finite_value(self, value):
        with pytest.raises(ValueError, match="finite"):
            PhiRule.custom([0.0, value, 1.0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda big: PhiRule.power(big),
            lambda big: PhiRule.piecewise_affine([(0, 0), (0.5, big), (1, 1)]),
            lambda big: PhiRule.piecewise_affine([(0, 0), (big, 0.5), (1, 1)]),
            lambda big: PhiRule.custom([0, big, 1]),
            lambda big: PhiRule.from_dict({"kind": "custom", "values": [0, 1, big]}),
        ],
    )
    def test_integer_past_the_float_range_is_a_value_error(self, build):
        # the comparisons pass an exact integer; float() is what overflows
        with pytest.raises(ValueError, match="too large for a float"):
            build(10**400)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: PhiRule.power("2"), "alpha: expected numbers, got a string"),
            (lambda: PhiRule.piecewise_affine([(0, 0), ("0.5", 0.7), (1, 1)]), "knots: expected numbers, got a string"),
            (lambda: PhiRule.custom(["0", "0.5", "1"]), "values: expected numbers, got a string"),
            (lambda: PhiRule.custom(np.array(["0", "0.5", "1"])), "values: expected numbers, got a string"),
            (lambda: PhiRule.custom("0.5"), "values: expected numbers, got a string"),
            (lambda: PhiRule.power([2]), "alpha: expected numbers, got an array"),
            (lambda: PhiRule.custom([0, None, 1]), "values: expected numbers, got null"),
            (lambda: PhiRule.custom(np.array([0, None, 1])), "values: expected numbers, got null"),
            (lambda: PhiRule.piecewise_affine([(0, 0), (1, 1, 5)]), "knots: expected a list of [x, y] pairs"),
            (lambda: PhiRule.piecewise_affine([(0, 0), 1]), "knots: expected a list of [x, y] pairs"),
        ],
    )
    def test_a_parameter_that_is_not_numbers_names_its_key(self, build, message):
        # float() would read "0.5" as a number
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_numpy_parameters_are_numbers(self):
        knots = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]])
        assert PhiRule.piecewise_affine(knots) == PhiRule.piecewise_affine(knots.tolist())
        assert PhiRule.custom(knots[:, 1]) == PhiRule.custom([0.0, 0.25, 1.0])
        assert PhiRule.power(np.float64(2.0)) == PhiRule.power(2.0)
        assert PhiRule.custom(np.array([0, 1, 4], dtype=np.int32)) == PhiRule.custom([0.0, 1.0, 4.0])
        assert PhiRule.custom(np.array([0, 1], dtype=np.float32)) == PhiRule.custom([0.0, 1.0])
        assert PhiRule.custom(list(knots[:, 1])) == PhiRule.custom([0.0, 0.25, 1.0])

    def test_overflowing_interpolation_slope_is_rejected(self):
        # finite values whose interpolation would give NaN between the points
        with pytest.raises(ValueError, match="slope"):
            PhiRule.custom([0.0, 1e308, 1.0])
        with pytest.raises(ValueError, match="slope"):
            PhiRule.piecewise_affine([(0.0, 0.0), (1e-300, 1e10), (1.0, 1.0)])
        assert not check_admissibility(PhiRule.custom([0.0, 1e300, 1.0])).passed


class TestProbPure:
    def test_identity_same_state(self):
        psi = haar_random_state(3, 0)
        assert prob_pure(PhiRule.identity(), psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_power_two_composition(self):
        plus = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        zero = StateVector.basis(2, 0)
        assert prob_pure(PhiRule.power(2.0), plus, zero) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_gives_zero_for_any_admissible_rule(self):
        zero = StateVector.basis(2, 0)
        one = StateVector.basis(2, 1)
        for rule in builtin_rules().values():
            assert prob_pure(rule, one, zero) == 0.0


class TestProbEnsemble:
    def test_single_member_degenerates_to_pure(self):
        psi = haar_random_state(2, 4)
        phi = haar_random_state(2, 5)
        ensemble = Ensemble(members=((1.0, psi),))
        result = prob_ensemble(PhiRule.power(2.0), ensemble, phi)
        assert result.value == pytest.approx(prob_pure(PhiRule.power(2.0), psi, phi), abs=1e-15)
        assert result.truncation_tail_bound == 0.0

    def test_identity_on_computational_mixture(self):
        ensemble = Ensemble(members=((0.5, StateVector.basis(2, 0)), (0.5, StateVector.basis(2, 1))))
        plus = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        assert prob_ensemble(PhiRule.identity(), ensemble, plus).value == pytest.approx(0.5, abs=1e-12)

    def test_power_two_on_extreme_mixture(self):
        zero = StateVector.basis(2, 0)
        one = StateVector.basis(2, 1)
        ensemble = Ensemble(members=((0.5, one), (0.5, zero)))
        # member transition probabilities are 0 and 1: Phi leaves both fixed
        assert prob_ensemble(PhiRule.power(2.0), ensemble, zero).value == pytest.approx(0.5, abs=1e-15)

    def test_identity_value_matches_trace_rule(self, random_ensemble):
        for seed in range(15):
            ensemble = random_ensemble(3, 3, seed)
            phi = haar_random_state(3, seed + 4000)
            via_members = prob_ensemble(PhiRule.identity(), ensemble, phi).value
            effect = tau_extremal_effect(phi).matrix
            via_trace = float(np.real(np.trace(barycenter(ensemble).matrix @ effect)))
            assert abs(via_members - via_trace) <= 1e-10

    def test_identity_trace_rule_with_declared_tail(self):
        ensemble = geometric_fock_ensemble(0.5, 6)
        phi = haar_random_state(7, 11)
        result = prob_ensemble(PhiRule.identity(), ensemble, phi)
        effect = tau_extremal_effect(phi).matrix
        via_trace = float(np.real(np.trace(barycenter(ensemble).matrix @ effect)))
        assert abs(result.value - via_trace) <= 1e-10 + result.truncation_tail_bound
        assert result.truncation_tail_bound == pytest.approx(0.5**7)

    def test_outputs_stay_in_unit_interval(self, random_ensemble):
        for seed in range(10):
            ensemble = random_ensemble(2, 4, seed)
            phi = haar_random_state(2, seed + 6000)
            for rule in builtin_rules().values():
                value = prob_ensemble(rule, ensemble, phi).value
                assert -1e-12 <= value <= 1.0 + 1e-12

    def test_affine_in_ensemble_weights(self, random_ensemble):
        phi = haar_random_state(2, 999)
        first = random_ensemble(2, 2, 1)
        second = random_ensemble(2, 3, 2)
        rule = PhiRule.power(2.0)
        for t in (0.25, 0.5, 0.9):
            mixed = Ensemble(
                members=tuple((t * w, s) for w, s in first.members)
                + tuple(((1.0 - t) * w, s) for w, s in second.members)
            )
            expected = (
                t * prob_ensemble(rule, first, phi).value
                + (1.0 - t) * prob_ensemble(rule, second, phi).value
            )
            assert prob_ensemble(rule, mixed, phi).value == pytest.approx(expected, abs=1e-12)

    def test_per_member_breakdown_sums_to_value(self, random_ensemble):
        ensemble = random_ensemble(3, 4, 12)
        phi = haar_random_state(3, 8000)
        result = prob_ensemble(PhiRule.power(0.5), ensemble, phi)
        assert isinstance(result, EnsembleProbability)
        assert result.value == pytest.approx(sum(w * p for w, p in result.per_member), abs=1e-15)

    def test_dimension_mismatch(self):
        ensemble = Ensemble(members=((1.0, StateVector.basis(2, 0)),))
        with pytest.raises(ValueError, match="dimension"):
            prob_ensemble(PhiRule.identity(), ensemble, StateVector.basis(3, 0))


class TestSerialization:
    @pytest.mark.parametrize(
        "rule",
        [
            PhiRule.identity(),
            PhiRule.power(1.7),
            PhiRule.piecewise_affine([(0.0, 0.0), (0.5, 0.7), (1.0, 1.0)]),
            PhiRule.custom(np.linspace(0.0, 1.0, 17) ** 2),
            PhiRule.power(3),
            PhiRule.piecewise_affine(KNOTS),
            PhiRule.custom(CUSTOM_VALUES),
        ],
    )
    def test_round_trip(self, rule):
        spec = rule.to_dict()
        clone = PhiRule.from_dict(spec)
        grid = np.linspace(0.0, 1.0, 101)
        assert same_bits(clone.eval(grid), rule.eval(grid))
        assert clone.describe() == rule.describe()
        assert clone.to_dict() == spec
        assert PhiRule.from_dict(json.loads(json.dumps(spec))).to_dict() == spec
        assert clone == rule and hash(clone) == hash(rule)

    def test_describe_names(self):
        assert PhiRule.identity().describe() == "identity"
        assert PhiRule.power(2.0).describe() == "power(2)"
        assert "sqrt" not in PhiRule.power(0.5).describe()
        assert PhiRule.piecewise_affine(KNOTS).describe() == "piecewise_affine(4 knots)"
        assert PhiRule.custom([0.0, 0.2, 1.0]).describe() == "custom(3 points)"
        assert PhiRule.custom(np.linspace(0.0, 1.0, 1025) ** 2).describe() == "custom(1025 points)"

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PhiRule.from_dict({"kind": "cubic"})


class TestEquality:
    # one rule of every kind, and the same rule built from other inputs
    SAME = [
        (PhiRule.identity(), PhiRule(kind="identity")),
        (PhiRule.power(2), PhiRule.power(2.0)),
        (PhiRule.piecewise_affine(KNOTS), PhiRule.piecewise_affine([list(k) for k in KNOTS])),
        (PhiRule.custom([0, 0.5, 1]), PhiRule.custom(np.array([0.0, 0.5, 1.0]))),
    ]

    @pytest.mark.parametrize("rule,twin", SAME)
    def test_same_kind_and_parameters_are_equal_and_hash_alike(self, rule, twin):
        assert rule is not twin
        assert rule == twin and not rule != twin
        assert hash(rule) == hash(twin)
        assert len({rule, twin}) == 1

    def test_every_kind_is_hashable(self):
        rules = [rule for rule, _ in self.SAME] + [twin for _, twin in self.SAME]
        assert len(set(rules)) == len(self.SAME)
        assert {rule.kind for rule in set(rules)} == {"identity", "power", "piecewise_affine", "custom"}

    @pytest.mark.parametrize(
        "rule,other",
        [
            (PhiRule.power(2.0), PhiRule.power(2.0000000000000004)),
            (PhiRule.custom([0, 0.5, 1]), PhiRule.custom([0, 0.5000000000000001, 1])),
            (PhiRule.custom([0, 0.5, 1]), PhiRule.custom([0, 0.25, 0.5, 0.75, 1])),
            (PhiRule.piecewise_affine([(0, 0), (1, 1)]), PhiRule.piecewise_affine([(0, -0.0), (1, 1)])),
            # the same function, but a different kind
            (PhiRule.identity(), PhiRule.power(1.0)),
            (PhiRule.custom([0, 0.5, 1]), PhiRule.piecewise_affine([(0, 0), (0.5, 0.5), (1, 1)])),
        ],
    )
    def test_different_bits_or_kind_are_unequal(self, rule, other):
        assert rule != other and not rule == other

    def test_other_types_are_unequal(self):
        assert PhiRule.identity() != "identity"
        assert PhiRule.custom([0, 1]) != np.array([0.0, 1.0]).tobytes()


def test_builtin_rules_cover_acceptance_families():
    rules = builtin_rules()
    assert set(rules) == {"identity", "power(2)", "power(0.5)", "power(1.2)"}
    assert all(check_admissibility(rule).passed for rule in rules.values())
    assert math.isclose(rules["power(2)"].eval(0.5), 0.25)
