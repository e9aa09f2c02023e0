"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np

from bornlab.cli import main as cli_main
from bornlab.fock import truncation_convergence, sigma_affinity_convergence
from bornlab.linalg import (
    StateVector,
    haar_random_state,
    random_povm,
)
from bornlab.rigidity import certify_identity
from bornlab.rules import PhiRule, builtin_rules
from bornlab.signaling import build_two_level_scenario, detectability, run_steering_experiment
from bornlab.steering import steer, steering_setup, verify_marginal_invariance
from bornlab.transition import DUAL_GAP_BOUND, complementarity_check, tau_closed, tau_optimized


def _criterion(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def test_criterion_1_tau_oracle_equivalence():
    # the dual bound never exceeds the closed form, and trails it by at most
    # its derived bound, which lies inside the 1e-6 gate
    least, worst = 1.0, 0.0
    start = time.perf_counter()
    for dim in range(2, 9):
        for trial in range(500):
            seed = dim * 100_000 + trial
            psi = haar_random_state(dim, seed)
            phi = haar_random_state(dim, seed + 50_000)
            width = tau_closed(psi, phi).value - tau_optimized(psi, phi).value
            least, worst = min(least, width), max(worst, width)
    elapsed = time.perf_counter() - start
    _criterion(
        "1 tau oracle equivalence",
        0.0 <= least and worst <= DUAL_GAP_BOUND <= 1e-6 and elapsed < 60.0,
        f"500 pairs per dim 2..8, closed-optimized in [{least:.3g}, {worst:.3g}], bound {DUAL_GAP_BOUND:.3g}, runtime={elapsed:.1f}s",
    )


def test_criterion_2_complementarity():
    worst = 0.0
    for seed in range(1000):
        psi = haar_random_state(2, seed)
        phi = haar_random_state(2, seed + 100_000)
        worst = max(worst, complementarity_check(psi, phi))
    _criterion("2 complementarity", worst <= 1e-10, f"1000 qubit pairs, worst deviation={worst:.3g}")


def test_criterion_3_steering_fidelity(random_ensemble):
    worst_weight = 0.0
    worst_fidelity = 1.0
    for trial in range(200):
        dim = 2 + trial % 2
        n_members = 1 + trial % 4
        ensemble = random_ensemble(dim, n_members, trial)
        result = steer(*steering_setup(ensemble))
        k = len(ensemble.weights)
        worst_weight = max(worst_weight, float(np.max(np.abs(result.probabilities[:k] - ensemble.weights))))
        for live, u, member in zip(~result.null, result.vectors, ensemble.amplitudes):
            if live:
                worst_fidelity = min(worst_fidelity, abs(np.vdot(member, u)) ** 2)
    _criterion(
        "3 steering fidelity",
        worst_weight <= 1e-8 and worst_fidelity >= 1.0 - 1e-8,
        f"200 ensembles, worst weight error={worst_weight:.3g}, worst fidelity={worst_fidelity:.12f}",
    )


def test_criterion_4_state_level_no_signaling(random_bipartite):
    worst = 0.0
    for trial in range(200):
        dim_a = 2 + trial % 2
        dim_b = 2 + (trial // 2) % 2
        state = random_bipartite(dim_a, dim_b, trial)
        povm1 = random_povm(dim_a, 2 + trial % 3, trial + 1000)
        povm2 = random_povm(dim_a, 2 + (trial + 1) % 3, trial + 2000)
        worst = max(worst, verify_marginal_invariance(state, povm1, povm2))
    _criterion("4 state-level no-signaling", worst <= 1e-10, f"200 instances, worst distance={worst:.3g}")


def test_criterion_5_jensen_pipeline_consistency():
    grid = np.round(np.arange(0.0, 1.0000001, 0.05), 10)
    lambdas = (0.25, 0.5, 0.75)
    worst_discrepancy = 0.0
    worst_identity_gap = 0.0
    rules = builtin_rules()
    for i, p1 in enumerate(grid):
        for p2 in grid[i + 1:]:
            for lam in lambdas:
                scenario = build_two_level_scenario(float(p1), float(p2), lam)
                for name, rule in rules.items():
                    record = run_steering_experiment(rule, scenario)
                    worst_discrepancy = max(worst_discrepancy, record.pipeline_discrepancy)
                    if name == "identity":
                        worst_identity_gap = max(worst_identity_gap, abs(record.gap))
    extreme = run_steering_experiment(rules["power(2)"], build_two_level_scenario(0.0, 1.0, 0.5))
    quarter_ok = abs(extreme.gap - 0.25) <= 1e-10
    _criterion(
        "5 Jensen-gap pipeline consistency",
        worst_discrepancy <= 1e-8 and worst_identity_gap <= 1e-10 and quarter_ok,
        f"worst discrepancy={worst_discrepancy:.3g}, worst identity gap={worst_identity_gap:.3g}, "
        f"power(2) extreme gap={extreme.gap:.12f}",
    )


def test_criterion_6_rigidity_certification():
    identity_ok = certify_identity(PhiRule.identity(), gap_tolerance=1e-10, grid_step=0.01).certified
    alphas = [0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0]
    rejections_ok = True
    witness_note = ""
    for alpha in alphas:
        result = certify_identity(PhiRule.power(alpha), gap_tolerance=1e-10, grid_step=0.01)
        has_witness = isinstance(result.witness, tuple) and len(result.witness) == 3
        if result.certified or not has_witness:
            rejections_ok = False
            witness_note = f"power({alpha}) not rejected with witness"
            break
    _criterion(
        "6 rigidity certification",
        identity_ok and rejections_ok,
        witness_note or f"identity accepted; power(alpha) rejected for all {len(alphas)} tested alphas",
    )


def test_criterion_7_detectability_calibration():
    scenario = build_two_level_scenario(0.0, 1.0, 0.5)
    identity = PhiRule.identity()
    false_rejections = sum(
        detectability(identity, scenario, n_samples=10_000, seed=seed).rejected
        for seed in range(1000)
    )
    null_rate = false_rejections / 1000.0

    distorted = PhiRule.power(2.0)
    detections = sum(
        detectability(distorted, scenario, n_samples=10_000, seed=seed).rejected
        for seed in range(1000)
    )
    power_rate = detections / 1000.0
    _criterion(
        "7 detectability calibration",
        0.03 <= null_rate <= 0.07 and power_rate >= 0.99,
        f"null false-rejection rate={null_rate:.3f}, distorted detection rate={power_rate:.3f}",
    )


def test_criterion_8_fock_convergence():
    axis = np.round(np.arange(-2.0, 2.0000001, 0.5), 10)
    amplitudes = [complex(x, y) for x in axis for y in axis if abs(complex(x, y)) <= 2.0]
    cutoffs = [5, 10, 20, 40]
    worst_final = 0.0
    monotone = True
    for a in amplitudes:
        for b in amplitudes:
            errors = [err for _, err in truncation_convergence(a, b, cutoffs)]
            worst_final = max(worst_final, errors[-1])
            if any(later > earlier + 1e-14 for earlier, later in zip(errors, errors[1:])):
                monotone = False
    _criterion(
        "8 Fock convergence",
        worst_final <= 1e-8 and monotone,
        f"{len(amplitudes)}^2 amplitude pairs, worst error at N=40: {worst_final:.3g}, "
        f"monotone within 1e-14 floor: {monotone}",
    )


def test_criterion_9_sigma_affinity_convergence():
    cutoffs = list(range(0, 31))
    targets = {
        "vacuum": StateVector.basis(31, 0),
        "uniform": StateVector(np.ones(31, dtype=complex) / np.sqrt(31.0)),
    }
    worst_margin = np.inf
    ok = True
    for r in (0.3, 0.5, 0.8):
        for rule in builtin_rules().values():
            for phi in targets.values():
                for n, deviation, tail in sigma_affinity_convergence(rule, r, phi, cutoffs):
                    worst_margin = min(worst_margin, tail - deviation)
                    if deviation > tail:
                        ok = False
    _criterion(
        "9 sigma-affinity convergence",
        ok,
        f"r in (0.3, 0.5, 0.8) x 4 rules x 2 targets, N<=30; smallest tail margin={worst_margin:.3g}",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    inv = 2**-0.5
    configs = {
        "tau": {"parameters": {"psi": [inv, inv], "phi": [1.0, 0.0]}},
        "jensen": {"rule": {"kind": "power", "alpha": 2.0}, "parameters": {"p1": 0.0, "p2": 1.0, "lambda": 0.5}},
        "experiment": {"rule": {"kind": "power", "alpha": 2.0}, "parameters": {"p1": 0.0, "p2": 1.0, "lambda": 0.5}},
        "detect": {
            "rule": {"kind": "power", "alpha": 2.0},
            "parameters": {"p1": 0.0, "p2": 1.0, "lambda": 0.5, "n_samples": 2000},
        },
        "steer": {"parameters": {"ensemble": {"members": [[0.5, [1.0, 0.0]], [0.5, [0.0, 1.0]]]}}},
        "scan": {"rule": {"kind": "power", "alpha": 1.2}, "parameters": {"grid_step": 0.02}},
        "fock_converge": {"parameters": {"alpha": 0.0, "beta": [1.0, 0.5], "n_list": [5, 10, 20, 40]}},
        "sigma_affinity": {"rule": {"kind": "power", "alpha": 0.5}, "parameters": {"r": 0.5, "n_list": [0, 5, 10]}},
    }
    all_identical = True
    for command, extra in configs.items():
        doc = {"command": command, "seed": 42, **extra}
        config_path = tmp_path / f"{command}.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        first = tmp_path / f"{command}_first.out"
        second = tmp_path / f"{command}_second.out"
        assert cli_main(["--config", str(config_path), "--quiet", "--out", str(first)]) == 0
        assert cli_main(["--config", str(config_path), "--quiet", "--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            all_identical = False
    _criterion(
        "10 CLI reproducibility",
        all_identical,
        f"{len(configs)} commands re-run byte-identically",
    )
