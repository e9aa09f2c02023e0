"""Scenario runner: validate a JSON config, execute one command, write one
self-describing artifact, print a one-line summary.

Exit codes: 0 success, 2 config error, 3 numerical failure (best-effort
artifact still written). Identical (config, seed) pairs produce
byte-identical artifacts: no timestamps, fixed column orders, sorted JSON
keys, 17-significant-digit reals.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fock import sigma_affinity_convergence, tau_coherent_analytic, truncation_convergence
from .linalg import StateVector, fidelity_to_pure, purify
from .rigidity import certify_identity
from .rules import PhiRule
from .signaling import build_two_level_scenario, detectability, jensen_gap, run_steering_experiment
from .steering import Ensemble, barycenter, hjw_povm, steer
from .transition import ConvergenceError, OptimizerConfig, tau_closed, tau_optimized

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = (
    "tau",
    "steer",
    "jensen",
    "experiment",
    "detect",
    "scan",
    "fock_converge",
    "sigma_affinity",
)
_JSON_DEFAULT_COMMANDS = {"detect", "scan"}


class ConfigValidationError(ValueError):
    """All validation problems of one config, reported together."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class ScenarioConfig:
    command: str
    rule: PhiRule
    parameters: dict
    seed: int
    output_path: str
    output_format: str
    # values validation parsed out of ``parameters`` (states, complex
    # numbers), keyed by parameter name, so that no handler parses again
    parsed: dict
    warnings: tuple[str, ...] = ()


def _parse_complex(entry, field: str, errors: list[str]) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(isinstance(v, (int, float)) for v in entry):
        return complex(entry[0], entry[1])
    errors.append(f"{field}: expected a number or [re, im] pair, got {entry!r}")
    return 0j


def _amplitude_array(raw: list) -> np.ndarray | None:
    """Amplitudes of a list of numbers or of [re, im] pairs, in one
    conversion; None for any other list. The parts are assigned, not
    summed, so every amplitude equals ``complex(re, im)`` bit for bit."""
    try:
        arr = np.array(raw)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.dtype.kind not in "biuf" or not (arr.ndim == 1 or (arr.ndim == 2 and arr.shape[1] == 2)):
        return None
    amps = np.zeros(arr.shape[0], dtype=complex)
    if arr.ndim == 1:
        amps.real = arr
    else:
        amps.real = arr[:, 0]
        amps.imag = arr[:, 1]
    return amps


def _parse_state(raw, field: str, errors: list[str]) -> StateVector | None:
    if not isinstance(raw, list) or not raw:
        errors.append(f"{field}: expected a nonempty amplitude list")
        return None
    amps = _amplitude_array(raw)
    if amps is None:
        # entry by entry, so that each malformed entry is named
        amps = np.array([_parse_complex(v, f"{field}[{i}]", errors) for i, v in enumerate(raw)])
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        errors.append(f"{field}: amplitude list has zero norm")
        return None
    return StateVector(amps / norm)


def _require_probability(params: dict, name: str, errors: list[str], *, exclusive: bool = False) -> float:
    value = params.get(name)
    if not isinstance(value, (int, float)):
        errors.append(f"{name}: required number missing")
        return 0.5
    lo_ok = value > 0.0 if exclusive else value >= 0.0
    hi_ok = value < 1.0 if exclusive else value <= 1.0
    if not (lo_ok and hi_ok):
        interval = "(0, 1)" if exclusive else "[0, 1]"
        errors.append(f"{name}: {value} outside valid range {interval}")
        return 0.5
    return float(value)


def _validate_parameters(command: str, params: dict, errors: list[str]) -> dict:
    """Check the command's parameters; returns the values parsed on the way."""
    parsed: dict = {}
    if command == "tau":
        parsed["psi"] = _parse_state(params.get("psi"), "psi", errors)
        parsed["phi"] = phi = _parse_state(params.get("phi"), "phi", errors)
        psi = params.get("psi")
        if phi is not None and isinstance(psi, list) and len(psi) != len(params.get("phi", [])):
            errors.append("psi/phi: amplitude lists differ in length")
        max_iters = params.get("max_iters", 5000)
        if not isinstance(max_iters, int) or max_iters < 1:
            errors.append("max_iters: must be a positive integer")
    elif command in ("jensen", "experiment", "detect"):
        _require_probability(params, "p1", errors)
        _require_probability(params, "p2", errors)
        _require_probability(params, "lambda", errors, exclusive=True)
        if command == "detect":
            n = params.get("n_samples")
            if not isinstance(n, int) or n < 1:
                errors.append("n_samples: must be a positive integer")
            alpha = params.get("alpha", 0.05)
            if not isinstance(alpha, (int, float)) or not 0.0 < alpha < 1.0:
                errors.append("alpha: must lie strictly between 0 and 1")
    elif command == "steer":
        spec = params.get("ensemble")
        if not isinstance(spec, dict) or not isinstance(spec.get("members"), list) or not spec["members"]:
            errors.append("ensemble.members: required nonempty list of [weight, amplitudes]")
            return parsed
        members = []
        for i, entry in enumerate(spec["members"]):
            if not isinstance(entry, list) or len(entry) != 2:
                errors.append(f"ensemble.members[{i}]: expected [weight, amplitudes]")
                continue
            weight, amps = entry
            if not isinstance(weight, (int, float)) or weight < 0:
                errors.append(f"ensemble.members[{i}]: weight must be a nonnegative number")
            members.append((weight, _parse_state(amps, f"ensemble.members[{i}].state", errors)))
        parsed["members"] = tuple(members)
        tail = spec.get("tail_weight", 0.0)
        if not isinstance(tail, (int, float)) or tail < 0:
            errors.append("ensemble.tail_weight: must be a nonnegative number")
            tail = 0.0
        kind = spec.get("kind", "finite" if tail == 0.0 else "truncated_countable")
        if kind not in ("finite", "truncated_countable"):
            errors.append("ensemble.kind: expected finite or truncated_countable")
        elif kind == "finite" and tail > 0.0:
            errors.append("ensemble.kind: finite ensembles cannot declare a tail weight")
    elif command == "scan":
        grid_step = params.get("grid_step", 0.01)
        if not isinstance(grid_step, (int, float)) or not 0.0 < grid_step <= 0.1:
            errors.append("grid_step: must lie in (0, 0.1]")
        tol = params.get("gap_tolerance", 1e-10)
        if not isinstance(tol, (int, float)) or tol <= 0:
            errors.append("gap_tolerance: must be positive")
    elif command == "fock_converge":
        parsed["alpha"] = _parse_complex(params.get("alpha"), "alpha", errors)
        parsed["beta"] = _parse_complex(params.get("beta"), "beta", errors)
        _validate_cutoffs(params.get("n_list"), errors)
    elif command == "sigma_affinity":
        r = params.get("r")
        if not isinstance(r, (int, float)) or not 0.0 < r < 1.0:
            errors.append("r: must lie strictly between 0 and 1")
        _validate_cutoffs(params.get("n_list"), errors)
        phi = params.get("phi", {"fock": 0})
        if isinstance(phi, dict):
            idx = phi.get("fock")
            if not isinstance(idx, int) or idx < 0:
                errors.append("phi.fock: must be a nonnegative integer")
        elif isinstance(phi, list):
            parsed["phi"] = _parse_state(phi, "phi", errors)
        else:
            errors.append("phi: expected {\"fock\": n} or an amplitude list")
    return parsed


def _validate_cutoffs(raw, errors: list[str]) -> None:
    if not isinstance(raw, list) or not raw:
        errors.append("n_list: required nonempty list of cutoffs")
        return
    if any(not isinstance(n, int) or n < 0 for n in raw):
        errors.append("n_list: cutoffs must be nonnegative integers")
    elif raw != sorted(set(raw)):
        errors.append("n_list: cutoffs must be strictly ascending")


def _reject_non_finite(token: str):
    raise ConfigValidationError([f"non-finite number {token}: only finite numbers are accepted"])


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigValidationError([f"number {text} overflows to {value}: only finite numbers are accepted"])
    return value


def _finite_int(text: str) -> int:
    # the length test comes first: past 4300 digits int() itself refuses
    if len(text) <= 310:
        value = int(text)
        if abs(value) <= sys.float_info.max:
            return value
    shown = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
    raise ConfigValidationError([f"number {shown} overflows a float: only finite numbers are accepted"])


def validate(config_text: str) -> ScenarioConfig:
    """Parse and validate a config document; collects every error before
    failing so one round trip fixes them all."""
    try:
        doc = json.loads(
            config_text,
            parse_float=_finite_float,
            parse_int=_finite_int,
            parse_constant=_reject_non_finite,
        )
    except json.JSONDecodeError as exc:
        raise ConfigValidationError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigValidationError(["top level: expected a JSON object"])

    errors: list[str] = []
    warnings: list[str] = []

    command = doc.get("command")
    if command not in COMMANDS:
        errors.append(f"command: expected one of {', '.join(COMMANDS)}, got {command!r}")
        command = "jensen"

    seed = doc.get("seed")
    if seed is None:
        warnings.append("seed: missing, defaulting to 0")
        seed = 0
    elif not isinstance(seed, int):
        errors.append("seed: must be an integer")
        seed = 0

    rule = PhiRule.identity()
    if "rule" in doc:
        try:
            rule = PhiRule.from_dict(doc["rule"])
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"rule: {exc}")

    output = doc.get("output", {})
    if not isinstance(output, dict):
        errors.append("output: expected an object with path/format")
        output = {}
    output_format = output.get("format", "json" if command in _JSON_DEFAULT_COMMANDS else "csv")
    if output_format not in ("csv", "json"):
        errors.append(f"output.format: expected csv or json, got {output_format!r}")
        output_format = "csv"
    output_path = output.get("path", f"{command}.{output_format}")
    if not isinstance(output_path, str) or not output_path:
        errors.append("output.path: expected a nonempty string")
        output_path = f"{command}.{output_format}"

    parsed: dict = {}
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        errors.append("parameters: expected an object")
        parameters = {}
    else:
        parsed = _validate_parameters(command, parameters, errors)

    if errors:
        raise ConfigValidationError(errors)
    return ScenarioConfig(
        command=command,
        rule=rule,
        parameters=parameters,
        seed=seed,
        output_path=output_path,
        output_format=output_format,
        parsed=parsed,
        warnings=tuple(warnings),
    )


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
    doc = {"metadata": metadata, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- command handlers --------------------------------------------------------


def _run_tau(config: ScenarioConfig) -> tuple[str, list[str], list[list], dict | None]:
    psi, phi = config.parsed["psi"], config.parsed["phi"]
    closed = tau_closed(psi, phi)
    optimizer = OptimizerConfig(max_iters=config.parameters.get("max_iters", 5000))
    optimized = tau_optimized(psi, phi, optimizer)
    columns = ["method", "value", "iterations", "residual"]
    rows = [
        ["closed_form", closed.value, closed.iterations, closed.residual],
        ["optimized", optimized.value, optimized.iterations, optimized.residual],
    ]
    summary = f"tau={closed.value:.12g} closed_form, {optimized.value:.12g} optimized"
    return summary, columns, rows, None


def _run_jensen(config: ScenarioConfig) -> tuple[str, list[str], list[list], dict | None]:
    p = config.parameters
    gap = jensen_gap(config.rule, p["p1"], p["p2"], p["lambda"])
    columns = ["p1", "p2", "lambda", "gap"]
    rows = [[float(p["p1"]), float(p["p2"]), float(p["lambda"]), gap]]
    return f"gap={gap:.12g}", columns, rows, None


def _run_experiment(config: ScenarioConfig) -> tuple[str, list[str], list[list], dict | None]:
    p = config.parameters
    scenario = build_two_level_scenario(p["p1"], p["p2"], p["lambda"])
    record = run_steering_experiment(config.rule, scenario)
    columns = [
        "p1",
        "p2",
        "lambda",
        "prob_split",
        "prob_direct",
        "gap",
        "analytic_gap",
        "pipeline_discrepancy",
        "degenerate",
    ]
    rows = [[
        scenario.p1,
        scenario.p2,
        scenario.lam,
        record.prob_split,
        record.prob_direct,
        record.gap,
        record.analytic_gap,
        record.pipeline_discrepancy,
        scenario.degenerate,
    ]]
    return f"gap={record.gap:.12g}", columns, rows, None


def _run_detect(config: ScenarioConfig) -> tuple[str, list[str], list[list], dict | None]:
    p = config.parameters
    scenario = build_two_level_scenario(p["p1"], p["p2"], p["lambda"])
    report = detectability(
        config.rule, scenario, p["n_samples"], config.seed, p.get("alpha", 0.05)
    )
    payload = {
        "n_samples": report.n_samples,
        "alpha": report.alpha,
        "prob_split": report.prob_split,
        "prob_direct": report.prob_direct,
        "freq_split": report.freq_split,
        "freq_direct": report.freq_direct,
        "z_statistic": report.z_statistic,
        "p_value": report.p_value,
        "rejected": report.rejected,
        "insufficient_sample": report.insufficient_sample,
        "sample_size_estimate": report.sample_size_estimate,
    }
    columns = list(payload)
    rows = [[payload[c] for c in columns]]
    summary = f"p_value={report.p_value:.6g} rejected={str(report.rejected).lower()}"
    return summary, columns, rows, {"detectability": _jsonable(payload)}


def _run_steer(config: ScenarioConfig) -> tuple[str, list[str], list[list], dict | None]:
    spec = config.parameters["ensemble"]
    ensemble = Ensemble(members=config.parsed["members"], tail_weight=float(spec.get("tail_weight", 0.0)))
    purification = purify(barycenter(ensemble))
    povm = hjw_povm(purification, ensemble)
    outcomes = steer(purification, povm)
    columns = ["outcome", "probability", "target_weight", "fidelity_to_target"]
    rows = []
    max_weight_err = 0.0
    for outcome in outcomes:
        if outcome.outcome_index < len(ensemble.members):
            weight, member = ensemble.members[outcome.outcome_index]
            fidelity = (
                fidelity_to_pure(outcome.conditional_state, member)
                if outcome.conditional_state is not None
                else None
            )
            max_weight_err = max(max_weight_err, abs(outcome.probability - weight))
            rows.append([outcome.outcome_index, outcome.probability, weight, fidelity])
        else:
            rows.append([outcome.outcome_index, outcome.probability, None, None])
    summary = f"outcomes={len(outcomes)} max_weight_error={max_weight_err:.3g}"
    return summary, columns, rows, None


def _run_scan(config: ScenarioConfig) -> tuple[str, list[str], list[list], dict | None]:
    p = config.parameters
    grid_step = p.get("grid_step", 0.01)
    tol = p.get("gap_tolerance", 1e-10)
    cert = certify_identity(config.rule, tol, grid_step)
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
    return summary, columns, rows, {"rigidity": report.to_dict(), "certification": cert.to_dict()}


def _fmt_witness(witness) -> str:
    if isinstance(witness, tuple):
        return "(" + ", ".join(format(w, ".17g") for w in witness) + ")"
    return format(witness, ".17g")


def _run_fock_converge(config: ScenarioConfig) -> tuple[str, list[str], list[list], dict | None]:
    alpha, beta = config.parsed["alpha"], config.parsed["beta"]
    pairs = truncation_convergence(alpha, beta, config.parameters["n_list"])
    analytic = tau_coherent_analytic(alpha, beta)
    columns = ["N", "error", "analytic_tau"]
    rows = [[n, err, analytic] for n, err in pairs]
    return f"error_at_N{pairs[-1][0]}={pairs[-1][1]:.6g}", columns, rows, None


def _run_sigma_affinity(config: ScenarioConfig) -> tuple[str, list[str], list[list], dict | None]:
    p = config.parameters
    n_list = p["n_list"]
    phi_spec = p.get("phi", {"fock": 0})
    if isinstance(phi_spec, dict):
        dim = max(max(n_list) + 1, phi_spec["fock"] + 1)
        phi = StateVector.basis(dim, phi_spec["fock"])
    else:
        phi = config.parsed["phi"]
    triples = sigma_affinity_convergence(config.rule, p["r"], phi, n_list)
    columns = ["N", "deviation", "tail_bound"]
    rows = [list(t) for t in triples]
    worst = max(t[1] for t in triples)
    return f"max_deviation={worst:.6g}", columns, rows, None


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    return value


_HANDLERS = {
    "tau": _run_tau,
    "jensen": _run_jensen,
    "experiment": _run_experiment,
    "detect": _run_detect,
    "steer": _run_steer,
    "scan": _run_scan,
    "fock_converge": _run_fock_converge,
    "sigma_affinity": _run_sigma_affinity,
}


def run(config: ScenarioConfig, quiet: bool = False) -> int:
    """Execute one validated config and write its artifact."""
    metadata = {
        "tool_version": __version__,
        "command": config.command,
        "rule": config.rule.describe(),
        "seed": config.seed,
    }
    try:
        summary, columns, rows, nested = _HANDLERS[config.command](config)
    except ConvergenceError as exc:
        # best-effort artifact so the failure is inspectable downstream
        columns = ["error", "best_value", "residual", "iterations"]
        rows = [["non-convergence", exc.best_value, exc.residual, exc.iterations]]
        _write_artifact(config, metadata, columns, rows, None)
        if not quiet:
            print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_artifact(config, metadata, columns, rows, nested)
    if not quiet:
        print(summary)
    return EXIT_OK


def _write_artifact(
    config: ScenarioConfig,
    metadata: dict,
    columns: list[str],
    rows: list[list],
    nested: dict | None,
) -> None:
    if config.output_format == "csv":
        _write_csv(config.output_path, metadata, columns, rows)
    else:
        payload = nested if nested is not None else {
            "columns": columns,
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }
        _write_json(config.output_path, metadata, _jsonable(payload))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Run a transition-probability / steering / rigidity scenario from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON scenario config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the artifact output path")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="override the artifact format")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = validate(text)
    except ConfigValidationError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG

    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.output_path = args.out
    if args.format is not None:
        config.output_format = args.format

    return run(config, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
