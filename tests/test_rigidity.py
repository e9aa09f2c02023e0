import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from bornlab.cli import MIN_GRID_STEP, main
from bornlab.rigidity import (
    CURVATURE_ATOL,
    SCAN_LAMBDAS,
    CertificationResult,
    RigidityReport,
    _convexity_intervals,
    _row_blocks,
    certify_identity,
    scan_gaps,
)
from bornlab.rules import PhiRule
from bornlab.signaling import jensen_gap


def brute_force_max_gap(rule, grid_step):
    """Independent slow oracle: plain loops over every grid triple."""
    n = int(round(1.0 / grid_step))
    grid = [i * grid_step for i in range(n + 1)]
    best, witness = -1.0, None
    for i, p1 in enumerate(grid):
        for p2 in grid[i + 1 :]:
            for lam in SCAN_LAMBDAS:
                gap = abs(jensen_gap(rule, p1, p2, lam))
                if gap > best:
                    best, witness = gap, (p1, p2, lam)
    return best, witness


def all_pairs_scan(rule, grid_step, lambdas=SCAN_LAMBDAS):
    """The scan as one all-pairs pass: every grid pair p1 < p2 gathered at
    once, then per mixing weight the first largest gap, kept only when it
    strictly beats the weights before it."""
    n = int(round(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, n + 1)
    values = np.asarray(rule.eval(grid), dtype=float)
    upper = np.triu_indices(n + 1, k=1)
    p1, p2 = grid[upper[0]], grid[upper[1]]
    v1, v2 = values[upper[0]], values[upper[1]]
    max_gap, witness = -1.0, (0.0, 0.0, 0.0)
    for lam in lambdas:
        mix = lam * p1 + (1.0 - lam) * p2
        gaps = np.abs(lam * v1 + (1.0 - lam) * v2 - np.asarray(rule.eval(mix), dtype=float))
        k = int(np.argmax(gaps))
        if gaps[k] > max_gap:
            max_gap = float(gaps[k])
            witness = (float(p1[k]), float(p2[k]), float(lam))
    return max_gap, witness


def convexity_intervals_loop(grid, values):
    """The convexity runs by a plain loop over the second differences."""
    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    signs = np.where(second > CURVATURE_ATOL, 1, np.where(second < -CURVATURE_ATOL, -1, 0))
    intervals = []
    start = None
    current = 0
    for i, s in enumerate(signs):
        if s != 0 and s == current:
            continue
        if start is not None and current != 0:
            intervals.append((float(grid[start]), float(grid[i + 1]), "+" if current > 0 else "-"))
        start = i if s != 0 else None
        current = s
    if start is not None and current != 0:
        intervals.append((float(grid[start]), float(grid[-1]), "+" if current > 0 else "-"))
    return tuple(intervals)


def random_rules(seed=23):
    """Seeded rules for the differential test, by family."""
    rng = np.random.default_rng(seed)
    rules = {}
    # rough tables put the maximum at a narrow pair off row 0
    for k in range(10):
        rules[f"rough{k}"] = PhiRule.custom(rng.random(int(rng.integers(3, 60))))
    for k in range(8):
        rules[f"signed{k}"] = PhiRule.custom(rng.uniform(-1e3, 1e3, int(rng.integers(3, 40))))
    # Phi is affine after the last interior knot, so the later blocks are skipped
    for k in range(10):
        xs = np.sort(rng.uniform(0.02, 0.9, int(rng.integers(1, 4))))
        ys = np.sort(rng.random(xs.size))
        rules[f"suffix_affine{k}"] = PhiRule.piecewise_affine([(0.0, 0.0), *zip(xs, ys), (1.0, 1.0)])
    # gaps near the rounding margin
    for k in range(8):
        x = rng.uniform(0.05, 0.95)
        rules[f"kink{k}"] = PhiRule.piecewise_affine([(0.0, 0.0), (x, x + 10.0 ** rng.uniform(-15, -9)), (1.0, 1.0)])
    for k in range(4):
        rules[f"power{k}"] = PhiRule.power(rng.uniform(0.3, 3.0))
    return rules


RANDOM_RULES = random_rules()
DIFFERENTIAL_STEPS = (0.1, 1 / 61, 0.004)


STREAM_RULES = {
    "identity": PhiRule.identity(),
    "power(2)": PhiRule.power(2.0),
    "power(0.5)": PhiRule.power(0.5),
    "piecewise": PhiRule.piecewise_affine([(0.0, 0.0), (0.37, 0.61), (0.8, 0.83), (1.0, 1.0)]),
    "custom": PhiRule.custom(np.linspace(0.0, 1.0, 1025) ** 1.2),
    # rough tables put the largest gap at a narrow pair inside a block
    "rough(11)": PhiRule.custom(np.random.default_rng(11).random(11)),
    "rough(101)": PhiRule.custom(np.random.default_rng(101).random(101)),
    "rough(1025)": PhiRule.custom(np.random.default_rng(1025).random(1025)),
    # rules that stress the pruning bound: large slopes of both signs,
    # slopes all below zero, a gap near the rounding margin, and power
    # slopes that are unbounded (alpha < 1) or vanish (alpha > 1) at 0
    "signed(37)": PhiRule.custom(np.random.default_rng(37).uniform(-1e3, 1e3, 37)),
    "decreasing(101)": PhiRule.custom(np.sort(np.random.default_rng(5).random(101))[::-1]),
    "kink(1e-12)": PhiRule.piecewise_affine([(0.0, 0.0), (0.37, 0.37 + 1e-12), (1.0, 1.0)]),
    "power(1.5)": PhiRule.power(1.5),
    "power(0.3)": PhiRule.power(0.3),
}


class TestStreamedScan:
    @pytest.mark.parametrize("name", sorted(STREAM_RULES))
    @pytest.mark.parametrize("grid_step", [0.1, 0.05, 0.01, 1 / 91, 1 / 92, 0.002, 0.001])
    def test_equals_all_pairs_scan(self, name, grid_step):
        rule = STREAM_RULES[name]
        report = scan_gaps(rule, grid_step)
        max_gap, witness = all_pairs_scan(rule, grid_step)
        assert report.max_gap == max_gap
        assert report.max_gap_witness == witness
        grid = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
        values = np.asarray(rule.eval(grid), dtype=float)
        deviation = np.abs(values - grid)
        assert report.max_identity_deviation == float(np.max(deviation))
        assert report.max_identity_deviation_at == float(grid[np.argmax(deviation)])
        chord = values[0] + (values[-1] - values[0]) * grid
        assert report.affine_residual == float(np.max(np.abs(values - chord)))
        assert report.rule_id == rule.describe()
        assert report.grid_step == grid_step
        assert report.lambdas == SCAN_LAMBDAS

    @pytest.mark.parametrize("name", sorted(RANDOM_RULES))
    def test_random_rules_equal_all_pairs_scan(self, name):
        rule = RANDOM_RULES[name]
        for grid_step in DIFFERENTIAL_STEPS:
            report = scan_gaps(rule, grid_step)
            assert (report.max_gap, report.max_gap_witness) == all_pairs_scan(rule, grid_step)

    def test_random_rules_hold_maxima_off_row_zero(self):
        # where the maximum lies off row 0, the largest gap of row 0 is below
        # it and the later blocks prune against a level the maximum raises
        off_row_zero = [
            name
            for name, rule in RANDOM_RULES.items()
            for grid_step in DIFFERENTIAL_STEPS
            if all_pairs_scan(rule, grid_step)[1][0] > 0.0
        ]
        assert len(off_row_zero) >= 20

    def test_blocks_tile_the_rows(self):
        for n in (10, 91, 100, 500, 2000):
            blocks = _row_blocks(n)
            assert blocks[0] == (0, 1) and blocks[-1][1] == n
            assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(blocks, blocks[1:]))
        # at step 1/92 the last block is a single row
        assert _row_blocks(92)[-1] == (91, 92)

    def test_tie_keeps_first_pair_and_first_lambda(self):
        # every identity gap is exactly 0, so the very first triple wins
        report = scan_gaps(PhiRule.identity(), 0.01)
        assert report.max_gap == 0.0
        assert report.max_gap_witness == (0.0, 0.01, 0.25)

    def test_symmetric_tables_break_cross_block_ties_by_weight(self):
        # Phi(p) = Phi(1 - p) mirrors the pair (p1, p2) at lambda to
        # (1 - p2, 1 - p1) at 1 - lambda with the same gap, so a later row
        # block can reach the maximum at an earlier weight than an earlier
        # block did; the weight decides the tie, as in the all-pairs scan
        assert list(SCAN_LAMBDAS) == sorted(SCAN_LAMBDAS)
        rng = np.random.default_rng(4)
        cross_weight_ties = 0
        for _ in range(40):
            v = rng.random(int(rng.integers(2, 30)))
            rule = PhiRule.custom(np.concatenate([v, v[::-1]]))
            max_gap, witness = all_pairs_scan(rule, 0.004)
            report = scan_gaps(rule, 0.004)
            assert (report.max_gap, report.max_gap_witness) == (max_gap, witness)
            mirror_gap, mirror = all_pairs_scan(rule, 0.004, lambdas=(0.75,))
            cross_weight_ties += witness[2] == 0.25 and mirror_gap == max_gap and mirror[0] < witness[0]
        assert cross_weight_ties >= 1

    def test_memory_is_bounded_on_a_fine_grid(self):
        rule = PhiRule.power(2.0)
        tracemalloc.start()
        try:
            scan_gaps(rule, 0.0005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def count_eval_points(monkeypatch, rule, grid_step):
    """Points at which ``scan_gaps`` evaluates the rule."""
    points = []
    evaluate = PhiRule.eval

    def counting(self, p):
        points.append(np.size(p))
        return evaluate(self, p)

    monkeypatch.setattr(PhiRule, "eval", counting)
    scan_gaps(rule, grid_step)
    return sum(points)


class TestPruning:
    N = 500

    def test_power_two_skips_most_pairs(self, monkeypatch):
        exhaustive = 3 * self.N * (self.N + 1) // 2 + self.N + 1
        assert count_eval_points(monkeypatch, PhiRule.power(2.0), 1 / self.N) <= 0.4 * exhaustive

    def test_identity_evaluates_its_grid_only(self, monkeypatch):
        # the identity is affine on every block, row 0 included, so only
        # the grid is evaluated
        n = self.N
        assert count_eval_points(monkeypatch, PhiRule.identity(), 1 / n) == n + 1

    @pytest.mark.parametrize(
        "name, most",
        [("power(2)", 41_283), ("piecewise", 11_179), ("custom", 42_697)],
    )
    def test_row_zero_first_prunes_the_later_blocks(self, monkeypatch, name, most):
        # row 0 is scanned first under every weight, and each pair is
        # evaluated once; scanning row 0 inside a larger block raises
        # power(2) to 47,271 points and piecewise to 21,381
        assert count_eval_points(monkeypatch, STREAM_RULES[name], 1 / self.N) <= most

    def test_rounding_level_kink_at_the_smallest_cli_step(self, monkeypatch):
        # gaps at rounding level are never pruned, so this rule is the
        # scan's worst case at the CLI's smallest grid_step
        rule = PhiRule.piecewise_affine([(0.0, 0.0), (0.37, 0.37 + 1e-15), (1.0, 1.0)])
        assert count_eval_points(monkeypatch, rule, MIN_GRID_STEP) <= 22_640_445

    def test_margin_keeps_a_pair_on_its_bound(self):
        # with the kink x on a half step, the pair (0, 2x) at lambda 1/2 has
        # the gap lambda (1 - lambda) 2x spread of block 0's bound exactly;
        # only the margin keeps a rounded cut from skipping it
        for j in range(1, 20):
            for y in np.linspace(0.03, 0.93, 7):
                rule = PhiRule.piecewise_affine([(0.0, 0.0), (j / 20, y), (1.0, 1.0)])
                report = scan_gaps(rule, 0.1)
                assert (report.max_gap, report.max_gap_witness) == all_pairs_scan(rule, 0.1)


class TestAffineBlocks:
    def test_two_point_table_counts_as_exact_zero(self):
        # a 2-point table is affine, so the scan reports the exact gap 0 with
        # the first triple, where the all-pairs scan sees rounding noise
        rule = PhiRule.custom([0.0, 1.0 + 1e-12])
        noise, _ = all_pairs_scan(rule, 0.002)
        assert 0.0 < noise < 1e-15
        report = scan_gaps(rule, 0.002)
        assert report.max_gap == 0.0
        assert report.max_gap_witness == (0.0, 0.002, 0.25)
        # below that noise the table is certified, with no noise witness
        result = certify_identity(rule, gap_tolerance=1e-16, grid_step=0.002)
        assert result.certified
        assert result.witness is None


class TestConvexityIntervals:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_loop_on_random_sign_patterns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        # second differences of each sign, zero included, in runs of random length
        second = np.repeat(rng.choice([-1e-3, 0.0, 1e-3], n), rng.integers(1, 4, n))
        values = np.concatenate([[0.0, 0.0], np.cumsum(np.cumsum(second))])
        grid = np.linspace(0.0, 1.0, values.size)
        assert _convexity_intervals(grid, values) == convexity_intervals_loop(grid, values)

    def test_edge_patterns(self):
        for values in ([0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 3.0, 3.0, 3.0]):
            values = np.array(values)
            grid = np.linspace(0.0, 1.0, values.size)
            assert _convexity_intervals(grid, values) == convexity_intervals_loop(grid, values)


class TestScanGaps:
    def test_identity_is_flat(self):
        report = scan_gaps(PhiRule.identity(), 0.01)
        assert report.max_gap <= 1e-12
        assert report.max_identity_deviation <= 1e-12
        assert report.affine_residual <= 1e-12
        assert report.convexity_intervals == ()

    def test_power_two_profile(self):
        report = scan_gaps(PhiRule.power(2.0), 0.01)
        assert report.max_gap == pytest.approx(0.25, abs=1e-10)
        assert report.max_gap_witness == (0.0, 1.0, 0.5)
        assert report.convexity_intervals == ((0.0, 1.0, "+"),)

    def test_piecewise_bulge_profile(self):
        rule = PhiRule.piecewise_affine([(0.0, 0.0), (0.5, 0.7), (1.0, 1.0)])
        report = scan_gaps(rule, 0.01)
        assert report.max_gap == pytest.approx(0.2, abs=1e-10)
        assert report.max_gap_witness == (0.0, 1.0, 0.5)
        # affine except for the concave kink at the middle knot
        assert len(report.convexity_intervals) == 1
        lo, hi, sign = report.convexity_intervals[0]
        assert sign == "-"
        assert lo <= 0.5 <= hi
        assert report.max_identity_deviation == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize(
        "rule",
        [PhiRule.power(2.0), PhiRule.power(0.5), PhiRule.piecewise_affine([(0.0, 0.0), (0.5, 0.7), (1.0, 1.0)])],
    )
    def test_matches_brute_force_oracle(self, rule):
        report = scan_gaps(rule, 0.05)
        oracle_gap, oracle_witness = brute_force_max_gap(rule, 0.05)
        assert report.max_gap == pytest.approx(oracle_gap, abs=1e-12)
        assert report.max_gap_witness == pytest.approx(oracle_witness, abs=1e-12)

    def test_grid_step_validation(self):
        with pytest.raises(ValueError):
            scan_gaps(PhiRule.identity(), 0.5)

    def test_affine_residual_equals_identity_deviation_for_pinned_endpoints(self):
        for rule in (PhiRule.power(1.3), PhiRule.piecewise_affine([(0.0, 0.0), (0.3, 0.5), (1.0, 1.0)])):
            report = scan_gaps(rule, 0.02)
            assert report.affine_residual == pytest.approx(report.max_identity_deviation, abs=1e-12)


class TestMidpointGapBound:
    @pytest.mark.parametrize("rule", [PhiRule.power(2.0), PhiRule.power(0.5), PhiRule.power(1.2)])
    def test_second_differences_are_bounded_by_max_gap(self, rule):
        grid_step = 0.01
        report = scan_gaps(rule, grid_step)
        grid = np.linspace(0.0, 1.0, 101)
        values = np.asarray(rule.eval(grid), dtype=float)
        midpoint_residual = np.abs(0.5 * values[:-2] + 0.5 * values[2:] - values[1:-1])
        assert np.max(midpoint_residual) <= report.max_gap + 1e-15


class TestCertification:
    @pytest.mark.parametrize("grid_step", [0.01, 0.02, 0.05])
    def test_identity_certifies_at_tight_tolerance(self, grid_step):
        result = certify_identity(PhiRule.identity(), gap_tolerance=1e-10, grid_step=grid_step)
        assert result.certified
        assert result.witness is None
        assert result.max_identity_deviation <= result.deviation_bound

    def test_piecewise_identity_certifies(self):
        rule = PhiRule.piecewise_affine([(0.0, 0.0), (0.25, 0.25), (0.75, 0.75), (1.0, 1.0)])
        assert certify_identity(rule).certified

    def test_small_power_distortion_is_rejected_with_witness(self):
        result = certify_identity(PhiRule.power(1.05))
        assert not result.certified
        assert result.witness == (0.0, 1.0, 0.5)
        # gap value verified against the off-grid formula
        assert result.max_gap == pytest.approx(0.5 - 0.5**1.05, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 0.95, 1.05, 1.2, 2.0, 3.0])
    def test_power_family_rejections(self, alpha):
        result = certify_identity(PhiRule.power(alpha))
        assert not result.certified
        assert isinstance(result.witness, tuple)
        p1, p2, lam = result.witness
        assert 0.0 <= p1 < p2 <= 1.0 and lam in SCAN_LAMBDAS
        # the witness is an executable signaling scenario: its gap exceeds
        # the tolerance by construction
        assert abs(jensen_gap(PhiRule.power(alpha), p1, p2, lam)) > result.gap_tolerance

    def test_deviation_bound_value_and_validation(self):
        identity = PhiRule.identity()
        assert certify_identity(identity, 1e-10, 0.01).deviation_bound == pytest.approx(2.5e-7)
        assert certify_identity(identity, 1e-10, 0.02).deviation_bound == pytest.approx(1e-10 * 50 * 50 / 4)
        with pytest.raises(ValueError, match="^gap_tolerance must be positive$"):
            certify_identity(identity, -1.0, 0.01)

    def test_nan_tolerance_is_rejected_before_the_scan(self, monkeypatch):
        # a NaN tolerance compares false both ways: it would give a NaN bound
        # and reject the identity with its gap-0 triple as the witness
        monkeypatch.setattr(PhiRule, "eval", lambda self, p: pytest.fail("the scan ran"))
        with pytest.raises(ValueError, match="^gap_tolerance must be positive$"):
            certify_identity(PhiRule.identity(), float("nan"))

    def test_report_serialization_is_json_friendly(self, tmp_path):
        # the scan artifact writes both dataclasses field by field
        config = tmp_path / "scan.json"
        config.write_text(json.dumps({"command": "scan", "rule": {"kind": "power", "alpha": 2.0}, "seed": 0}))
        out = tmp_path / "out.json"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        cert = doc["certification"]
        assert cert["certified"] is False
        assert cert["witness"] == [0.0, 1.0, 0.5]
        assert cert["report"]["rule_id"] == "power(2)"
        assert cert["report"] == doc["rigidity"]
        assert set(cert) == {f.name for f in fields(CertificationResult)}
        assert set(cert["report"]) == {f.name for f in fields(RigidityReport)}
