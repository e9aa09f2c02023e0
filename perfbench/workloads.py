"""Workload inputs for the bornlab benchmark, and the checks of their artifacts.

A workload is a pool of ops built from the benchmark seed; an op is a fixed
list of CLI calls, and every op of a workload is the same kind of unit. Each
call carries a check that reads the artifact the CLI wrote and compares it
with values this module computes itself (numpy and the standard library
only, never bornlab), or with a property the method must have. No check
compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import bisect
import cmath
import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("steer_pipeline", "rigidity_scan", "qubit_round")

# The scan's mixing weights and its deviation bound are part of the method
# the artifact documents; they are restated here, not imported.
SCAN_LAMBDAS = (0.25, 0.5, 0.75)
GAP_TOLERANCE = 1e-10

STEER_DIM = 32
STEER_PAIRS = 4
SCAN_STEP = 0.002
SCAN_ROUNDS = 2
QUBIT_ROUNDS = 4
MIN_SEPARATION = 0.05
CUSTOM_POINTS = 1025
CUSTOM_EXPONENT = 1.2
COMPARE_TRIPLES = 64


class CheckError(AssertionError):
    """An artifact disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Call:
    """One CLI config and the check of the artifact it writes."""

    name: str
    config: dict
    fmt: str
    check: Callable[[bytes], None]


Op = list[Call]


def build(workload: str, seed: int) -> list[Op]:
    """The pool of ops for one workload; the same seed gives the same pool."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)


# -- helpers -----------------------------------------------------------------


def _close(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{what}: got {got!r}, expected {want!r} within {tol:g}")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _read_csv(data: bytes) -> tuple[dict, list[dict]]:
    lines = data.decode("utf-8").splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    header, body = table[0], table[1:]
    return meta, [dict(zip(header, row)) for row in body]


def _read_json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _check_meta(meta: dict, command: str) -> None:
    _require(meta.get("command") == command, f"metadata command {meta.get('command')!r} != {command!r}")


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _amps(vec) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in vec]


def _unamps(pairs) -> np.ndarray:
    vec = np.array([complex(re, im) for re, im in pairs])
    return vec / np.linalg.norm(vec)


def _call(name: str, command: str, parameters: dict, check, fmt: str = "csv", rule: dict | None = None, seed: int = 0) -> Call:
    config = {"command": command, "seed": seed, "parameters": parameters}
    if rule is not None:
        config["rule"] = rule
    return Call(name=name, config=config, fmt=fmt, check=check)


# -- distortions, evaluated independently of bornlab.rules --------------------


def rule_function(rule: dict) -> Callable[[float], float]:
    """Phi of a rule spec, by direct formula or piecewise-linear lookup."""
    kind = rule["kind"]
    if kind == "identity":
        return lambda p: p
    if kind == "power":
        alpha = rule["alpha"]
        return lambda p: p**alpha
    if kind == "piecewise_affine":
        xs = [x for x, _ in rule["knots"]]
        ys = [y for _, y in rule["knots"]]
    else:
        ys = list(rule["values"])
        xs = [i / (len(ys) - 1) for i in range(len(ys))]

    def lookup(p: float) -> float:
        k = min(max(bisect.bisect_right(xs, p) - 1, 0), len(xs) - 2)
        return ys[k] + (p - xs[k]) * (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])

    return lookup


def jensen(phi: Callable[[float], float], p1: float, p2: float, lam: float) -> float:
    """lam Phi(p1) + (1-lam) Phi(p2) - Phi(lam p1 + (1-lam) p2)."""
    return lam * phi(p1) + (1.0 - lam) * phi(p2) - phi(lam * p1 + (1.0 - lam) * p2)


# -- steer_pipeline ----------------------------------------------------------


def _steer_call(name: str, rng: np.random.Generator, n_members: int, support: int) -> Call:
    """A d=32 ensemble: Haar members of the whole space, or of a random
    ``support``-dimensional subspace (rank-deficient barycenter)."""
    if support == STEER_DIM:
        states = [_haar(rng, STEER_DIM) for _ in range(n_members)]
    else:
        ginibre = rng.standard_normal((STEER_DIM, support)) + 1j * rng.standard_normal((STEER_DIM, support))
        basis, _ = np.linalg.qr(ginibre)
        states = [basis @ _haar(rng, support) for _ in range(n_members)]
        states = [s / np.linalg.norm(s) for s in states]
    weights = rng.uniform(0.5, 1.5, n_members)
    weights = [float(w) for w in weights / weights.sum()]
    members = [[w, _amps(s)] for w, s in zip(weights, states)]
    rank_deficient = support < STEER_DIM

    def check(data: bytes) -> None:
        meta, rows = _read_csv(data)
        _check_meta(meta, "steer")
        if rank_deficient:
            _require(len(rows) == n_members + 1, f"{len(rows)} outcomes, expected {n_members} members + remainder")
        else:
            _require(len(rows) in (n_members, n_members + 1), f"{len(rows)} outcomes for {n_members} members")
        total = 0.0
        for i, row in enumerate(rows):
            _require(int(row["outcome"]) == i, f"outcome {row['outcome']} in row {i}")
            prob = float(row["probability"])
            total += prob
            if i < n_members:
                _require(float(row["target_weight"]) == weights[i], f"outcome {i}: target weight {row['target_weight']}")
                _close(f"outcome {i} probability", prob, weights[i], 1e-8)
                _require(float(row["fidelity_to_target"]) >= 1.0 - 1e-8, f"outcome {i}: fidelity {row['fidelity_to_target']}")
            else:
                _close("remainder outcome probability", prob, 0.0, 1e-8)
        _close("sum of outcome probabilities", total, 1.0, 1e-8)

    return _call(name, "steer", {"ensemble": {"members": members}}, check, seed=int(rng.integers(2**31)))


def _build_steer_pipeline(rng: np.random.Generator) -> list[Op]:
    # One op is a pair: a full-rank ensemble (64 members) and a rank-deficient
    # one (48 members in a 16-dim subspace, so hjw_povm adds its remainder
    # outcome). Pairing keeps every op the same kind of unit, so the latency
    # percentiles never sit between the two kinds.
    return [
        [
            _steer_call(f"steer{k}_full", rng, 64, STEER_DIM),
            _steer_call(f"steer{k}_deficient", rng, 48, 16),
            *_small_calls(f"steer{k}", rng),
        ]
        for k in range(STEER_PAIRS)
    ]


# -- scans (rigidity_scan and qubit_round) -------------------------------------


def _scan_call(name: str, rng: np.random.Generator, rule: dict, step: float) -> Call:
    n = int(round(1.0 / step))
    phi = rule_function(rule)
    triples = [
        (*sorted(rng.choice(n + 1, size=2, replace=False).tolist()), SCAN_LAMBDAS[int(rng.integers(3))])
        for _ in range(COMPARE_TRIPLES)
    ]

    def check(data: bytes) -> None:
        doc = _read_json(data)
        _check_meta(doc["metadata"], "scan")
        cert, report = doc["certification"], doc["rigidity"]
        max_gap = report["max_gap"]
        _require(cert["max_gap"] == max_gap, "certification and report disagree on max_gap")
        _close("deviation_bound", cert["deviation_bound"], GAP_TOLERANCE * n * n / 4.0, 1e-15 * n * n)
        if rule["kind"] == "identity":
            _require(cert["certified"] is True, "identity rule not certified")
            _require(max_gap <= 1e-12, f"identity max_gap {max_gap!r} > 1e-12")
            return
        _require(cert["certified"] is False, f"{rule['kind']} rule certified as the identity")
        p1, p2, lam = report["max_gap_witness"]
        _require(cert["witness"] == [p1, p2, lam], "certification witness differs from the report's")
        _require(0.0 <= p1 < p2 <= 1.0 and lam in SCAN_LAMBDAS, f"witness {(p1, p2, lam)} off the scan grid")
        _close("gap at the witness", abs(jensen(phi, p1, p2, lam)), max_gap, 1e-12)
        if rule["kind"] == "power" and rule["alpha"] == 2.0:
            _require((p1, p2, lam) == (0.0, 1.0, 0.5), f"power(2) witness {(p1, p2, lam)} != (0, 1, 0.5)")
            _close("power(2) max_gap", max_gap, lam * (1.0 - lam) * (p2 - p1) ** 2, 1e-12)
        for i, j, t in triples:
            gap = abs(jensen(phi, i / n, j / n, t))
            _require(max_gap >= gap - 1e-12, f"gap {gap!r} at {(i / n, j / n, t)} exceeds max_gap {max_gap!r}")

    return _call(name, "scan", {"grid_step": step, "gap_tolerance": GAP_TOLERANCE}, check, fmt="json", rule=rule)


def _scan_rules(rng: np.random.Generator) -> list[tuple[str, dict]]:
    grid = np.linspace(0.0, 1.0, CUSTOM_POINTS)
    knot = [float(rng.uniform(0.25, 0.75)), float(rng.uniform(0.15, 0.85))]
    return [
        ("identity", {"kind": "identity"}),
        ("power", {"kind": "power", "alpha": 2.0}),
        ("piecewise", {"kind": "piecewise_affine", "knots": [[0.0, 0.0], knot, [1.0, 1.0]]}),
        ("custom", {"kind": "custom", "values": (grid**CUSTOM_EXPONENT).tolist()}),
    ]


def _build_rigidity_scan(rng: np.random.Generator) -> list[Op]:
    # One op is a round of the four rule kinds, at a grid fine enough that the
    # scan's pair arrays dominate the process's peak memory. The rules differ
    # in evaluation cost, so a round, not a single scan, is the unit.
    return [
        [_scan_call(f"scan{k}_{label}", rng, rule, SCAN_STEP) for label, rule in _scan_rules(rng)]
        + _small_calls(f"scan{k}", rng)
        for k in range(SCAN_ROUNDS)
    ]


# -- qubit_round and the small configs ------------------------------------------


def _tau_call(name: str, rng: np.random.Generator, dim: int) -> Call:
    psi, phi = _amps(_haar(rng, dim)), _amps(_haar(rng, dim))
    want = float(abs(np.vdot(_unamps(phi), _unamps(psi))) ** 2)

    def check(data: bytes) -> None:
        meta, rows = _read_csv(data)
        _check_meta(meta, "tau")
        values = {row["method"]: float(row["value"]) for row in rows}
        _close("closed-form tau", values["closed_form"], want, 1e-12)
        _close("optimized tau", values["optimized"], want, 1e-6)

    return _call(name, "tau", {"psi": psi, "phi": phi}, check)


def _two_level(rng: np.random.Generator, lo: float = 0.0, hi: float = 1.0) -> dict:
    # p1 and p2 stay at least MIN_SEPARATION apart: the two-level scenario
    # of nearly equal p1, p2 fails its own Effect check on some draws (see
    # CHANGES.md), and a workload must not fail only on some seeds.
    p1, p2 = rng.uniform(lo, hi, 2)
    while abs(p1 - p2) < MIN_SEPARATION:
        p1, p2 = rng.uniform(lo, hi, 2)
    return {"p1": float(p1), "p2": float(p2), "lambda": float(rng.uniform(0.1, 0.9))}


def _arms(phi, p: dict) -> tuple[float, float]:
    """Exact (split, direct) probabilities of the two-level experiment."""
    lam = p["lambda"]
    split = lam * phi(p["p1"]) + (1.0 - lam) * phi(p["p2"])
    return split, phi(lam * p["p1"] + (1.0 - lam) * p["p2"])


def _jensen_call(name: str, rng: np.random.Generator, rule: dict) -> Call:
    params = _two_level(rng)
    want = jensen(rule_function(rule), params["p1"], params["p2"], params["lambda"])

    def check(data: bytes) -> None:
        meta, rows = _read_csv(data)
        _check_meta(meta, "jensen")
        _require(len(rows) == 1, "jensen artifact needs one row")
        _close("jensen gap", float(rows[0]["gap"]), want, 1e-12)

    return _call(name, "jensen", params, check, rule=rule)


def _experiment_call(name: str, rng: np.random.Generator, rule: dict) -> Call:
    params = _two_level(rng)
    phi = rule_function(rule)
    split, direct = _arms(phi, params)
    want = jensen(phi, params["p1"], params["p2"], params["lambda"])

    def check(data: bytes) -> None:
        meta, rows = _read_csv(data)
        _check_meta(meta, "experiment")
        row = rows[0]
        _close("experiment prob_split", float(row["prob_split"]), split, 1e-12)
        _close("experiment prob_direct", float(row["prob_direct"]), direct, 1e-12)
        _close("experiment gap", float(row["gap"]), want, 1e-12)
        _close("experiment analytic_gap", float(row["analytic_gap"]), want, 1e-12)

    return _call(name, "experiment", params, check, rule=rule)


def _detect_call(name: str, rng: np.random.Generator, rule: dict, samples: int) -> Call:
    params = {**_two_level(rng, 0.1, 0.9), "n_samples": samples, "alpha": 0.05}
    split, direct = _arms(rule_function(rule), params)

    def check(data: bytes) -> None:
        doc = _read_json(data)
        _check_meta(doc["metadata"], "detect")
        report = doc["detectability"]
        _require(report["n_samples"] == samples, "detect n_samples echo")
        # sample_size_estimate is left unchecked: its formula uses a
        # one-sided quantile against a two-sided test.
        for arm, prob in (("split", split), ("direct", direct)):
            _close(f"detect prob_{arm}", report[f"prob_{arm}"], prob, 1e-12)
            sigma = math.sqrt(prob * (1.0 - prob) / samples)
            _close(f"detect freq_{arm}", report[f"freq_{arm}"], prob, 6.0 * sigma)

    return _call(name, "detect", params, check, fmt="json", rule=rule, seed=int(rng.integers(2**31)))


def _fock_call(name: str, rng: np.random.Generator, cutoffs: list[int]) -> Call:
    alpha, beta = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
    want = math.exp(-abs(alpha - beta) ** 2)

    def check(data: bytes) -> None:
        meta, rows = _read_csv(data)
        _check_meta(meta, "fock_converge")
        _require([int(r["N"]) for r in rows] == cutoffs, "fock_converge cutoffs echo")
        for row in rows:
            _close(f"analytic tau at N={row['N']}", float(row["analytic_tau"]), want, 1e-12)
        _close(f"truncation error at N={cutoffs[-1]}", float(rows[-1]["error"]), 0.0, 1e-10)

    params = {"alpha": [alpha.real, alpha.imag], "beta": [beta.real, beta.imag], "n_list": cutoffs}
    return _call(name, "fock_converge", params, check)


def _sigma_call(name: str, rng: np.random.Generator, rule: dict, cutoffs: list[int]) -> Call:
    # r >= 0.6 keeps the tail bound r^(N+1) above 1e-13 at N = 55, far above
    # the rounding floor of the ensemble sums it bounds.
    r = float(rng.uniform(0.6, 0.75))
    decay = np.exp(-0.3 * np.arange(cutoffs[-1] + 1))
    phi = decay * np.array([cmath.exp(1j * t) for t in rng.uniform(0.0, 2 * math.pi, decay.size)])

    def check(data: bytes) -> None:
        meta, rows = _read_csv(data)
        _check_meta(meta, "sigma_affinity")
        _require([int(row["N"]) for row in rows] == cutoffs, "sigma_affinity cutoffs echo")
        for row in rows:
            bound = r ** (int(row["N"]) + 1)
            _close(f"tail bound at N={row['N']}", float(row["tail_bound"]), bound, 1e-15 * bound)
            _require(float(row["deviation"]) <= bound, f"deviation {row['deviation']} above r^(N+1) = {bound!r}")

    params = {"r": r, "n_list": cutoffs, "phi": _amps(phi / np.linalg.norm(phi))}
    return _call(name, "sigma_affinity", params, check, rule=rule)


def _small_calls(prefix: str, rng: np.random.Generator) -> list[Call]:
    """One tiny config of each command other than steer. Every op of
    steer_pipeline and rigidity_scan ends with them, so every layer is traced
    on every workload and no per-layer time is a structural 0. They add
    about a tenth to an op."""
    rule = {"kind": "power", "alpha": 2.0}
    return [
        _tau_call(f"{prefix}_tau", rng, 2),
        _jensen_call(f"{prefix}_jensen", rng, rule),
        _experiment_call(f"{prefix}_experiment", rng, rule),
        _detect_call(f"{prefix}_detect", rng, rule, 1000),
        _scan_call(f"{prefix}_scan", rng, rule, 0.1),
        _fock_call(f"{prefix}_fock", rng, [10, 30]),
        _sigma_call(f"{prefix}_sigma", rng, rule, [2, 5]),
    ]


def _build_qubit_round(rng: np.random.Generator) -> list[Op]:
    # One op is a fixed round of small configs, so per-call overhead
    # (validation, rule construction, 2x2 constructor checks, artifact
    # writing) does the work. Each round draws its own power rule.
    ops = []
    for k in range(QUBIT_ROUNDS):
        rule = {"kind": "power", "alpha": float(rng.uniform(1.5, 3.0))}
        ops.append(
            [_tau_call(f"q{k}_tau{d}", rng, d) for d in (2, 4, 8, 16)]
            + [
                _jensen_call(f"q{k}_jensen", rng, rule),
                _experiment_call(f"q{k}_experiment", rng, rule),
                _detect_call(f"q{k}_detect", rng, rule, 100_000),
                _scan_call(f"q{k}_scan", rng, rule, 0.01),
                _fock_call(f"q{k}_fock", rng, [5, 15, 30, 45, 60, 75]),
                _sigma_call(f"q{k}_sigma", rng, rule, [5, 15, 25, 35, 45, 55]),
            ]
        )
    return ops


_BUILDERS = {
    "steer_pipeline": _build_steer_pipeline,
    "rigidity_scan": _build_rigidity_scan,
    "qubit_round": _build_qubit_round,
}
