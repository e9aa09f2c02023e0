"""Scenario runner: validate a JSON config, execute one command, write one
self-describing artifact, print a one-line summary.

Exit codes: 0 success, 2 config error, 3 numerical failure; an exit 2 or 3
writes no file. Identical (config, seed) pairs produce byte-identical
artifacts: no timestamps, fixed column orders, sorted JSON keys,
17-significant-digit reals.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .fock import sigma_affinity_convergence, tau_coherent_analytic, truncation_convergence
from .linalg import StateVector
from .rigidity import certify_identity
from .rules import PhiRule
from .signaling import build_two_level_scenario, detectability, jensen_gap, run_steering_experiment
from .steering import Ensemble, steer, steering_setup
from .transition import DUAL_GAP_BOUND, MAX_DIM, tau_closed, tau_optimized

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Largest cutoff in n_list and largest sigma_affinity phi.fock, sized from
# time: listing every cutoff up to it costs well under 0.1 s (fock_converge
# slices one coherent amplitude array per state; sigma_affinity sums a
# prefix per cutoff). An amplitude-list phi has at most MAX_CUTOFF + 1
# entries, the dimension that phi.fock reaches.
MAX_CUTOFF = 1000
# Largest detect n_samples, an input bound only: each arm's count is one
# binomial draw, whose time and memory do not depend on n_samples. A CLI
# detect takes ~0.2 s and 39 MB peak RSS as a subprocess at the cap or at
# 1000 samples alike, nearly all of it interpreter and numpy start-up
# (2-vCPU VM).
MAX_SAMPLES = 10**7
# Smallest scan grid_step: the grid and its rule values are O(1/grid_step)
# in memory and the pair scan O(1/grid_step**2) in time at worst. The worst
# case is a rule whose gaps all sit at rounding level without Phi being
# affine on a block, which the scan never prunes: a piecewise rule with a
# 1e-15 kink at 0.37 takes ~0.5 s as a subprocess at the cap, and its
# certify_identity ~0.33 s at 2e-4 and ~1.2 s at 1e-4 (2-vCPU VM). The
# slowest built-in kind is then a 1025-point custom table (0.13 s and
# 0.29 s); the identity, affine on every block, takes 0.0014 s and 0.0056 s.
MIN_GRID_STEP = 2e-4
# Largest steer member count and dimension d, and largest members * d**2:
# the work of steering_setup's one SVD of the members x d weighted rows. The
# outcomes and steered states are each one (members + d - r) x d array. At
# the cap d = 32 with 4096 members takes ~0.4 s and 69 MB peak RSS as a
# subprocess, d = 128 with 256 members ~0.3 s and 43 MB (2-vCPU VM). The
# member count is checked before any member is read.
MAX_MEMBERS = 4096
MAX_MEMBER_DIM = 128
MAX_STEER_ENTRIES = 2**22
# Largest config, in characters, that main reads. The caps above admit at
# most 4096 * 32 amplitudes; as json.dumps writes them in 17-digit [re, im]
# pairs that is 6.0 MB for Haar members and at most 7.2 MB with an exponent
# in every part. A longer file is a config error before json decodes any of it.
MAX_CONFIG_BYTES = 2**23

class ConfigValidationError(ValueError):
    """All validation problems of one config, reported together."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class ScenarioConfig:
    command: str
    rule: PhiRule
    seed: int
    output_path: str
    output_format: str
    # the handler's keyword arguments: checked, typed, defaults filled in
    # and library objects built, so that no handler parses again
    args: dict
    warnings: tuple[str, ...] = ()


def _parse_complex(entry, field: str, errors: list[str]) -> complex | None:
    if isinstance(entry, (int, float)):
        value = complex(entry)
    elif isinstance(entry, (list, tuple)) and len(entry) == 2 and all(isinstance(v, (int, float)) for v in entry):
        value = complex(entry[0], entry[1])
    else:
        errors.append(f"{field}: expected a number or [re, im] pair, got {entry!r}")
        return None
    if not cmath.isfinite(value):
        errors.append(f"{field}: number overflows a float: only finite numbers are accepted")
        return None
    return value


def _amplitude_array(raw: list) -> np.ndarray | None:
    """Amplitudes of a list of finite numbers or of [re, im] pairs, in one
    conversion; None for any other list. A pair's two floats are read as
    one complex number's memory, so every amplitude equals
    ``complex(re, im)`` bit for bit."""
    try:
        arr = np.array(raw)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.dtype.kind not in "biuf" or not (arr.ndim == 1 or (arr.ndim == 2 and arr.shape[1] == 2)):
        return None
    arr = arr.astype(float, copy=False)
    if arr.shape[0] == 0 or not np.isfinite(arr).all():
        return None
    return arr.astype(complex) if arr.ndim == 1 else arr.view(complex)[:, 0]


def _amplitudes(raw, field: str, errors: list[str]) -> np.ndarray | None:
    """The amplitude list ``raw`` as a complex array, the one reader of
    every amplitude list of every command; None, with errors naming
    ``field`` or its malformed entries, if it is not a nonempty list of
    finite numbers or [re, im] pairs."""
    if not isinstance(raw, list) or not raw:
        errors.append(f"{field}: expected a nonempty amplitude list")
        return None
    amps = _amplitude_array(raw)
    if amps is not None:
        return amps
    # entry by entry, so that each malformed entry is named
    entries = [_parse_complex(v, f"{field}[{i}]", errors) for i, v in enumerate(raw)]
    return None if None in entries else np.array(entries)


def _parse_state(raw, field: str, errors: list[str]) -> StateVector | None:
    amps = _amplitudes(raw, field, errors)
    if amps is None:
        return None
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if norm == math.inf:
        # entries near the float limit: their squares overflow, the state does not
        amps = amps / np.max(np.abs(amps))
        norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        errors.append(f"{field}: amplitude list has zero norm")
        return None
    return StateVector(amps / norm)


def _number(raw, field: str, errors: list[str], need: str, ok=lambda v: True, *, integer: bool = False):
    """``raw`` if it is a finite number (an integer if ``integer``) for
    which ``ok`` holds; else None, with the error ``field: need``, or one
    naming the overflow for a literal such as 1e999. JSON true and false
    arrive as Python bools, which are ints, and are rejected here."""
    if isinstance(raw, float) and not math.isfinite(raw):
        errors.append(f"{field}: number overflows a float: only finite numbers are accepted")
        return None
    if isinstance(raw, int if integer else (int, float)) and not isinstance(raw, bool) and ok(raw):
        return raw
    errors.append(f"{field}: {need}")
    return None


def _probability(params: dict, name: str, errors: list[str], *, exclusive: bool = False):
    if exclusive:
        return _number(params.get(name), name, errors, "must be a number in (0, 1)", lambda v: 0 < v < 1)
    return _number(params.get(name), name, errors, "must be a number in [0, 1]", lambda v: 0 <= v <= 1)


def _at_most(value, cap: int, field: str, noun: str, errors: list[str]):
    """``value`` unless it exceeds ``cap``; then None, with an error naming the field."""
    if value is not None and value > cap:
        errors.append(f"{field}: {value} exceeds the largest allowed {noun} {cap}")
        return None
    return value


def _level(raw, field: str, errors: list[str]) -> int | None:
    """A cutoff or Fock index: an integer in [0, MAX_CUTOFF]."""
    value = _number(raw, field, errors, "must be a nonnegative integer", lambda v: v >= 0, integer=True)
    return _at_most(value, MAX_CUTOFF, field, "level", errors)


def _cutoffs(raw, errors: list[str]) -> list[int] | None:
    if not isinstance(raw, list) or not raw:
        errors.append("n_list: required nonempty list of cutoffs")
        return None
    cutoffs = [_level(n, f"n_list[{i}]", errors) for i, n in enumerate(raw)]
    if None in cutoffs:
        return None
    if cutoffs != sorted(set(cutoffs)):
        errors.append("n_list: cutoffs must be strictly ascending")
        return None
    return cutoffs


# -- per-command parameters --------------------------------------------------
# Each parser returns its handler's keyword arguments. It builds the library
# objects the handler needs, so that a constructor's ValueError is a config
# error naming the field rather than a failure of the run.


def _parse_tau(params: dict, errors: list[str]) -> dict:
    psi = _parse_state(params.get("psi"), "psi", errors)
    phi = _parse_state(params.get("phi"), "phi", errors)
    if "max_iters" in params:
        errors.append("max_iters: tau's second route is a dual bound and runs no iterations; remove the key")
    if psi is not None and phi is not None:
        if psi.dim != phi.dim:
            errors.append("psi/phi: amplitude lists differ in length")
        elif psi.dim > MAX_DIM:
            errors.append(f"psi/phi: {psi.dim} amplitudes exceed tau_optimized's maximum dimension {MAX_DIM}")
    return {"psi": psi, "phi": phi}


def _parse_two_level(params: dict, errors: list[str]) -> dict:
    return {
        "p1": _probability(params, "p1", errors),
        "p2": _probability(params, "p2", errors),
        "lam": _probability(params, "lambda", errors, exclusive=True),
    }


def _parse_detect(params: dict, errors: list[str]) -> dict:
    return {
        **_parse_two_level(params, errors),
        "n_samples": _at_most(
            _number(
                params.get("n_samples"), "n_samples", errors, "must be a positive integer", lambda v: v >= 1, integer=True
            ),
            MAX_SAMPLES, "n_samples", "sample count", errors,
        ),
        # at or below 2**-53 the level quantile's 1 - alpha/2 rounds to 1
        "alpha": _number(
            params.get("alpha", 0.05), "alpha", errors,
            "must lie strictly between 2**-53 and 1", lambda v: 2.0**-53 < v < 1,
        ),
    }


def _parse_steer(params: dict, errors: list[str]) -> dict:
    spec = params.get("ensemble")
    if not isinstance(spec, dict) or not isinstance(spec.get("members"), list) or not spec["members"]:
        errors.append("ensemble.members: required nonempty list of [weight, amplitudes]")
        return {}
    if _at_most(len(spec["members"]), MAX_MEMBERS, "ensemble.members", "member count", errors) is None:
        return {}
    before = len(errors)
    weights, rows = [], []
    for i, entry in enumerate(spec["members"]):
        if not isinstance(entry, list) or len(entry) != 2:
            errors.append(f"ensemble.members[{i}]: expected [weight, amplitudes]")
            continue
        weights.append(_number(entry[0], f"ensemble.members[{i}].weight", errors, "must be nonnegative", lambda v: v >= 0))
        rows.append(_amplitudes(entry[1], f"ensemble.members[{i}].state", errors))
    # steering_setup's purification M has |M|^2 = sum of weights, checked to be 1
    _number(
        spec.get("tail_weight", 0.0), "ensemble.tail_weight", errors,
        "must be 0: steer purifies a unit-trace barycenter", lambda v: v == 0,
    )
    if len(rows) < len(spec["members"]) or any(row is None for row in rows):
        return {}
    if len({row.size for row in rows}) > 1:
        errors.append("ensemble: ensemble members have mismatched dimensions")
        return {}
    # every member normalized at once, one norm per row of the k x d stack
    amps = np.array(rows)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(amps, axis=1)
    huge = norms == math.inf
    if huge.any():
        # entries near the float limit: their squares overflow, the state does not
        amps[huge] /= np.max(np.abs(amps[huge]), axis=1, keepdims=True)
        norms = np.linalg.norm(amps, axis=1)
    for i in np.flatnonzero(norms < 1e-12):
        errors.append(f"ensemble.members[{i}].state: amplitude list has zero norm")
    if len(errors) > before:
        return {}
    try:
        ensemble = Ensemble(weights, amps / norms[:, None])
    except ValueError as exc:
        errors.append(f"ensemble: {exc}")
        return {}
    k, d = ensemble.amplitudes.shape
    if d > MAX_MEMBER_DIM:
        errors.append(f"ensemble.members: dimension {d} exceeds the largest allowed {MAX_MEMBER_DIM}")
    elif k * d * d > MAX_STEER_ENTRIES:
        errors.append(f"ensemble.members: {k} members of dimension {d} exceed members * dimension**2 = {MAX_STEER_ENTRIES}")
    return {} if len(errors) > before else {"ensemble": ensemble}


def _parse_scan(params: dict, errors: list[str]) -> dict:
    return {
        "grid_step": _number(
            params.get("grid_step", 0.01), "grid_step", errors,
            f"must lie in [{MIN_GRID_STEP}, 0.1]", lambda v: MIN_GRID_STEP <= v <= 0.1,
        ),
        "gap_tolerance": _number(
            params.get("gap_tolerance", 1e-10), "gap_tolerance", errors, "must be positive", lambda v: v > 0
        ),
    }


def _parse_fock_converge(params: dict, errors: list[str]) -> dict:
    return {
        "alpha": _parse_complex(params.get("alpha"), "alpha", errors),
        "beta": _parse_complex(params.get("beta"), "beta", errors),
        "n_list": _cutoffs(params.get("n_list"), errors),
    }


def _parse_sigma_affinity(params: dict, errors: list[str]) -> dict:
    r = _number(params.get("r"), "r", errors, "must lie strictly between 0 and 1", lambda v: 0 < v < 1)
    n_list = _cutoffs(params.get("n_list"), errors)
    spec = params.get("phi", {"fock": 0})
    phi = None
    if isinstance(spec, dict):
        index = _level(spec.get("fock"), "phi.fock", errors)
        if index is not None and n_list is not None:
            phi = StateVector.basis(max(max(n_list), index) + 1, index)
    elif isinstance(spec, list) and len(spec) > MAX_CUTOFF + 1:
        errors.append(f"phi: {len(spec)} amplitudes exceed the {MAX_CUTOFF + 1} of the largest allowed level {MAX_CUTOFF}")
    elif isinstance(spec, list):
        phi = _parse_state(spec, "phi", errors)
        if phi is not None and n_list is not None and phi.dim < max(n_list) + 1:
            errors.append(f"phi: {phi.dim} amplitudes, below the {max(n_list) + 1} that cutoff {max(n_list)} needs")
    else:
        errors.append("phi: expected {\"fock\": n} or an amplitude list")
    return {"r": r, "phi": phi, "n_list": n_list}


def _reject_non_finite(token: str):
    raise ConfigValidationError([f"non-finite number {token}: only finite numbers are accepted"])


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigValidationError([f"{key}: repeated key"])
        doc[key] = value
    return doc


def _finite_int(text: str) -> int:
    # the length test comes first: past 4300 digits int() itself refuses
    if len(text) <= 310:
        value = int(text)
        if abs(value) <= sys.float_info.max:
            return value
    shown = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
    raise ConfigValidationError([f"number {shown} overflows a float: only finite numbers are accepted"])


def validate(
    config_text: str, seed: int | None = None, output_path: str | None = None, output_format: str | None = None
) -> ScenarioConfig:
    """Parse and validate a config document; collects every error before
    failing so one round trip fixes them all. A ``seed``, ``output_path`` or
    ``output_format`` that is not None replaces the document's value before that field is read."""
    try:
        doc = json.loads(config_text, parse_int=_finite_int, parse_constant=_reject_non_finite, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from exc
    except RecursionError as exc:
        # the decoder recurses once per nested list or object, hooks included
        raise ConfigValidationError(["nesting: lists and objects nest deeper than the JSON decoder's recursion limit"]) from exc
    if not isinstance(doc, dict):
        raise ConfigValidationError(["top level: expected a JSON object"])

    errors: list[str] = []
    warnings: list[str] = []

    command = doc.get("command")
    entry = _COMMANDS.get(command) if isinstance(command, str) else None
    if entry is None:
        errors.append(f"command: expected one of {', '.join(_COMMANDS)}, got {command!r}")

    seed = doc.get("seed") if seed is None else seed
    if seed is None:
        warnings.append("seed: missing, defaulting to 0")
        seed = 0
    else:
        seed = _number(seed, "seed", errors, "must be a nonnegative integer", lambda v: v >= 0, integer=True)

    rule = None
    spec = doc.get("rule", {"kind": "identity"})
    if not isinstance(spec, dict):
        errors.append("rule: expected a JSON object")
    else:
        try:
            rule = PhiRule.from_dict(spec)
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"rule: {exc}")

    output = doc.get("output", {})
    if not isinstance(output, dict):
        errors.append("output: expected an object with path/format")
        output = {}
    output_format = output.get("format", entry[2] if entry else "csv") if output_format is None else output_format
    if output_format not in ("csv", "json"):
        errors.append(f"output.format: expected csv or json, got {output_format!r}")
    output_path = output.get("path", f"{command}.{output_format}") if output_path is None else output_path
    if not isinstance(output_path, str) or not output_path:
        errors.append("output.path: expected a nonempty string")

    args: dict = {}
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        errors.append("parameters: expected an object")
    elif entry is not None:
        args = entry[0](parameters, errors)

    if errors:
        raise ConfigValidationError(errors)
    return ScenarioConfig(command, rule, seed, output_path, output_format, args, tuple(warnings))


# -- artifact writers --------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_csv(path: str, metadata: dict, columns: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={_fmt(value)}\r\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, metadata: dict, payload: dict) -> None:
    text = json.dumps({"metadata": metadata, **payload}, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# -- command handlers --------------------------------------------------------
# Each takes the rule, the seed and its parser's keyword arguments, and
# returns (summary, columns, rows, nested JSON payload or None).

_Result = tuple[str, list[str], list[list], "dict | None"]


def _run_tau(rule, seed, psi, phi) -> _Result:
    closed = tau_closed(psi, phi).value
    optimized = tau_optimized(psi, phi).value
    # the dual bound lies below the closed form, by at most DUAL_GAP_BOUND
    width = closed - optimized
    if not 0.0 <= width <= DUAL_GAP_BOUND:
        raise ValueError(f"closed form {closed!r} minus dual bound {optimized!r} is {width!r}, outside [0, {DUAL_GAP_BOUND!r}]")
    columns = ["method", "value", "iterations", "residual"]
    rows = [["closed_form", closed, 0, 0.0], ["optimized", optimized, 0, width]]
    summary = f"tau={closed:.12g} closed_form, {optimized:.12g} optimized"
    return summary, columns, rows, None


def _run_jensen(rule, seed, p1, p2, lam) -> _Result:
    gap = jensen_gap(rule, p1, p2, lam)
    columns = ["p1", "p2", "lambda", "gap"]
    rows = [[float(p1), float(p2), float(lam), gap]]
    return f"gap={gap:.12g}", columns, rows, None


def _run_experiment(rule, seed, p1, p2, lam) -> _Result:
    scenario = build_two_level_scenario(p1, p2, lam)
    record = run_steering_experiment(rule, scenario)
    columns = [
        "p1", "p2", "lambda", "prob_split", "prob_direct", "gap", "analytic_gap", "pipeline_discrepancy", "degenerate"
    ]
    rows = [[
        scenario.p1, scenario.p2, scenario.lam, record.prob_split, record.prob_direct,
        record.gap, record.analytic_gap, record.pipeline_discrepancy, scenario.degenerate,
    ]]
    return f"gap={record.gap:.12g}", columns, rows, None


def _run_detect(rule, seed, p1, p2, lam, n_samples, alpha) -> _Result:
    scenario = build_two_level_scenario(p1, p2, lam)
    report = detectability(rule, scenario, n_samples, seed, alpha)
    payload = asdict(report)
    columns = list(payload)
    rows = [[payload[c] for c in columns]]
    summary = f"p_value={report.p_value:.6g} rejected={str(report.rejected).lower()}"
    return summary, columns, rows, {"detectability": payload}


def _run_steer(rule, seed, ensemble) -> _Result:
    result = steer(*steering_setup(ensemble))
    k = len(ensemble.weights)
    probabilities, weights = result.probabilities.tolist(), ensemble.weights.tolist()
    # |<psi_i|u_i>|^2 of each member with its unit conditional vector
    overlaps = np.abs(np.sum(ensemble.amplitudes.conj() * result.vectors[:k], axis=1)) ** 2
    fidelities = np.where(result.null[:k], None, overlaps).tolist()
    columns = ["outcome", "probability", "target_weight", "fidelity_to_target"]
    rows = [[i, probabilities[i], weights[i], fidelities[i]] for i in range(k)]
    if len(result) > k:
        # the measurement's columns for the unused A directions, one remainder row
        rows.append([k, math.fsum(probabilities[k:]), None, None])
    max_weight_err = float(np.max(np.abs(result.probabilities[:k] - ensemble.weights)))
    summary = f"outcomes={len(rows)} max_weight_error={max_weight_err:.3g}"
    return summary, columns, rows, None


def _run_scan(rule, seed, grid_step, gap_tolerance) -> _Result:
    cert = certify_identity(rule, gap_tolerance, grid_step)
    report = cert.report
    columns = ["rule", "max_gap", "max_identity_deviation", "affine_residual", "certified", "witness"]
    rows = [[
        report.rule_id,
        report.max_gap,
        report.max_identity_deviation,
        report.affine_residual,
        cert.certified,
        "" if cert.witness is None else _fmt_witness(cert.witness),
    ]]
    summary = f"max_gap={report.max_gap:.6g} certified={str(cert.certified).lower()}"
    certification = asdict(cert)
    return summary, columns, rows, {"rigidity": certification["report"], "certification": certification}


def _fmt_witness(witness) -> str:
    if isinstance(witness, tuple):
        return "(" + ", ".join(format(w, ".17g") for w in witness) + ")"
    return format(witness, ".17g")


def _run_fock_converge(rule, seed, alpha, beta, n_list) -> _Result:
    pairs = truncation_convergence(alpha, beta, n_list)
    analytic = tau_coherent_analytic(alpha, beta)
    columns = ["N", "error", "analytic_tau"]
    rows = [[n, err, analytic] for n, err in pairs]
    return f"error_at_N{pairs[-1][0]}={pairs[-1][1]:.6g}", columns, rows, None


def _run_sigma_affinity(rule, seed, r, phi, n_list) -> _Result:
    triples = sigma_affinity_convergence(rule, r, phi, n_list)
    columns = ["N", "deviation", "tail_bound"]
    rows = [list(t) for t in triples]
    worst = max(t[1] for t in triples)
    return f"max_deviation={worst:.6g}", columns, rows, None


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    return value


# command -> (parameter parser, handler, default artifact format)
_COMMANDS = {
    "tau": (_parse_tau, _run_tau, "csv"),
    "steer": (_parse_steer, _run_steer, "csv"),
    "jensen": (_parse_two_level, _run_jensen, "csv"),
    "experiment": (_parse_two_level, _run_experiment, "csv"),
    "detect": (_parse_detect, _run_detect, "json"),
    "scan": (_parse_scan, _run_scan, "json"),
    "fock_converge": (_parse_fock_converge, _run_fock_converge, "csv"),
    "sigma_affinity": (_parse_sigma_affinity, _run_sigma_affinity, "csv"),
}


def run(config: ScenarioConfig, quiet: bool = False) -> int:
    """Execute one validated config and write its artifact."""
    try:
        summary, columns, rows, nested = _COMMANDS[config.command][1](config.rule, config.seed, **config.args)
    except (ValueError, ArithmeticError) as exc:
        # the config is valid, but the numerics fail on it: no file is written
        print(f"numerical failure: {config.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    metadata = {
        "tool_version": __version__,
        "command": config.command,
        "rule": config.rule.describe(),
        "seed": config.seed,
    }
    _write_artifact(config, metadata, columns, rows, nested)
    if not quiet:
        print(summary)
    return EXIT_OK


def _write_artifact(
    config: ScenarioConfig, metadata: dict, columns: list[str], rows: list[list], nested: dict | None
) -> None:
    if config.output_format != "json":
        _write_csv(config.output_path, metadata, columns, rows)
    else:
        payload = nested if nested is not None else {"columns": columns, "rows": rows}
        _write_json(config.output_path, metadata, _jsonable(payload))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and shared
    by every later one; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Run a transition-probability / steering / rigidity scenario from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON scenario config")
    parser.add_argument("--seed", type=int, default=None, help="replace the config's seed")
    parser.add_argument("--out", default=None, help="replace the config's output.path")
    parser.add_argument("--format", default=None, help="replace the config's output.format: csv or json")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        print(f"config error: {args.config}: cannot be read: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnicodeDecodeError as exc:
        print(f"config error: {args.config}: not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if len(text) > MAX_CONFIG_BYTES:
        print(f"config error: {args.config}: longer than the largest allowed {MAX_CONFIG_BYTES} characters", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = validate(text, seed=args.seed, output_path=args.out, output_format=args.format)
    except ConfigValidationError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    # the default <command>.<format>, run beside its config, can name the config
    if os.path.exists(config.output_path) and os.path.samefile(config.output_path, args.config):
        print(f"config error: output.path: {config.output_path!r} is the config file", file=sys.stderr)
        return EXIT_CONFIG

    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        return run(config, quiet=args.quiet)
    except (OSError, ValueError) as exc:
        # open() raises ValueError for a path with a NUL byte or a lone surrogate
        print(f"config error: output.path: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
