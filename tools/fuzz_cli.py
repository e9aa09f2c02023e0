#!/usr/bin/env python3
"""Seeded fuzz gate for the CLI contract: every config ends in a valid
artifact (exit 0), a config error (exit 2) or a numerical failure (exit 3),
and an exit 2 or 3 writes no file.

The base configs are the seven small calls that end each op of the
benchmark's ``steer_pipeline`` workload at the fuzz seed
(``perfbench/workloads.py``, read and never written), a two-member and a
one-member qubit steer config (the second's artifact ends in the remainder
row, which no other base reaches), a near-pure steer config (six members
within 1e-8 of one direction of a 7-dimensional space, turned by a Haar
unitary), and one small config of each command in the forms those calls do
not write (complex pairs, a Fock-index ``phi``, three steer members).
Each base runs once unmutated and must exit 0, and a benchmark call's or
steer base's artifact must pass its check. Each of the ``CONFIGS`` fuzzed
configs is then a base with a rule drawn from the four kinds, an output
format drawn from csv and json, and one to three mutations, each at a
random position of the document: a hostile leaf value, a deleted key or
list entry, a scaling of a number or of a list's length, or a dict wrapped
in a list. The draws keep every valid config cheap: no value lies near
``MAX_SAMPLES`` (sample counts grow at most eightfold from the bases' 500
and 1000) or near ``MIN_GRID_STEP`` (scalings shrink the bases' grid steps,
0.05 and 0.1, eightfold at most), a list grows to at most 16 entries, and
every output path drawn is relative. One fuzzed config in ten takes, in
place of those mutations, a text mutation that the decoder rejects, and
must exit 2: the document truncated at a random offset, wrapped 100 000
lists deep (past the JSON decoder's recursion limit on every supported
Python), or with one number replaced by ``NaN`` or ``1e999``.

Every config runs in-process through ``bornlab.cli.main`` (from this
tree's ``src/``), in a temporary directory of its own. A config fails the
gate when an exception escapes, the exit is not 0, 2 or 3 or not the one
its config must reach, a stderr line other than a ``warning:`` does not
start ``config error:`` (exit 2) or ``numerical failure: <command>:``
(exit 3) or is written at all (exit 0), an exit 2 or 3 leaves any file
besides the config, or an exit 0 leaves anything but one artifact that
parses and holds no NaN. Each distinct exit-3 message, its numbers written
as ``#``, is printed with its count, so that a new one is seen.

    python3 -W error tools/fuzz_cli.py --seed 1

Prints a summary and every failure, and exits 1 if any config failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import random
import re
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "config.json"
# mutated configs per seed
CONFIGS = 2000
RULES = [
    {"kind": "identity"},
    {"kind": "power", "alpha": 2.0},
    {"kind": "piecewise_affine", "knots": [[0, 0], [0.5, 0.3], [1, 1]]},
    {"kind": "custom", "values": [0, 0.2, 1]},
]
FORMATS = ("csv", "json")
# one small config of each command, in forms the benchmark's calls do not write
FORMS = {
    "tau": {"psi": [0.6, [0.0, 0.8]], "phi": [[1, 0], [0, 1]]},
    "steer": {"ensemble": {"members": [[0.5, [1, 0]], [0.25, [0.6, 0.8]], [0.25, [0, 1]]]}},
    "jensen": {"p1": 0.2, "p2": 0.9, "lambda": 0.3},
    "experiment": {"p1": 0.1, "p2": 0.7, "lambda": 0.6},
    "detect": {"p1": 0.2, "p2": 0.9, "lambda": 0.3, "n_samples": 500, "alpha": 0.05},
    "scan": {"grid_step": 0.05, "gap_tolerance": 1e-10},
    "fock_converge": {"alpha": [0.5, 0.25], "beta": 1.0, "n_list": [2, 8, 20]},
    "sigma_affinity": {"r": 0.4, "n_list": [0, 3, 9], "phi": {"fock": 1}},
}

# Hostile leaf values: wrong types, signs and sizes, non-finite numbers
# (written as JSON's Infinity and NaN), integers past a float, strings that
# name the config, a directory or no valid file, and malformed amplitudes.
HOSTILE = [
    -1, 0, -0.0, 1, 2, 3, 0.5, 1e-320, 5e-324, 1e300, -1e300, 1.7976931348623157e308,
    2**53 + 1, 2**63, 10**19, 10**400, math.inf, -math.inf, math.nan, True, False, None,
    "", "x", "1", ".", CONFIG, "a\x00b", "\ud800", "identity", "scan", "tau",
    [], {}, [1], [[1, 0]], [None], [[0, 1e308], [1e308, 0]], {"kind": "x"}, {"fock": 2},
]
# Factors a number is scaled by. The only ones below 1/2 in size are 0 and
# 1e-300, which take a grid_step past its lower bound, so a valid scaled
# grid_step is at least 1/8 of its base's. Integers stay integers only
# under -1, 0 and 2, so a sample count or cutoff grows at most eightfold.
SCALES = [-1, 0, 2, 0.5, 1 + 2**-52, 1e-300, 1e300]
MAX_LIST = 16
# a JSON string or number: mutate_text replaces numbers only
JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')
NUMBER = re.compile(r"\(?[-+]?[\d.]+(?:e[-+]?\d+)?(?:[-+][\d.]+(?:e[-+]?\d+)?)?j?\)?")


@dataclass
class Report:
    runs: int = 0
    # (command of the base config, exit code) -> count
    codes: Counter = field(default_factory=Counter)
    numerical: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)


@functools.cache
def load_workloads():
    """``perfbench/workloads.py``, imported once, without a bytecode cache there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up by name
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def load_cli():
    """``bornlab.cli``, imported from this tree's ``src/`` first."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from bornlab import cli

    return cli


def _steer_check(n_members: int, n_rows: int):
    """The artifact check of a steer base: ``n_rows`` rows, the members'
    first, each steered with its weight; any further row is the remainder
    (a one-member qubit ensemble's marginal has rank one, six members in
    dimension 7 have rank six)."""

    def check(data: bytes) -> None:
        lines = data.decode("utf-8").splitlines()
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        assert len(rows) == n_rows, f"{len(rows)} outcomes for {n_members} members"
        for row in rows[:n_members]:
            assert abs(float(row["probability"]) - float(row["target_weight"])) <= 1e-8, row
            assert float(row["fidelity_to_target"]) >= 1.0 - 1e-8, row
        for row in rows[n_members:]:
            assert float(row["probability"]) <= 1e-12, row
            assert row["target_weight"] == row["fidelity_to_target"] == "", row

    return check


def _near_pure_members() -> list:
    """Six equally weighted members within 1e-8 of |0> in dimension 7, turned
    by a Haar unitary, as [weight, [[re, im], ...]] entries: the seed-0 draw
    of ``tests/test_cli.py``'s rotated near-pure steer test."""
    rng = np.random.default_rng(0)
    d = int(rng.integers(2, 9))
    k = int(rng.integers(2, d + 2))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rows = 1e-8 * (rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))
    rows[:, 0] = 1.0
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return [[1 / k, [[z.real, z.imag] for z in row.tolist()]] for row in rows @ u.T]


def base_configs(workloads, seed: int) -> list[tuple[str, dict, object]]:
    """(name, config document, artifact check) of every base config."""
    bases = []
    for op in workloads.build("steer_pipeline", seed):
        for call in op[-7:]:
            output = {"path": f"{call.name}.{call.fmt}", "format": call.fmt}
            bases.append((call.name, {**call.config, "output": output}, call.check))
    members = [[0.25, [[0.6, 0.0], [0.0, 0.8]]], [0.75, [1, 0]]]
    steer = {"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": members}}, "output": {"path": "qubit.csv"}}
    bases.append(("qubit_steer", steer, _steer_check(2, 2)))
    one = {**steer, "parameters": {"ensemble": {"members": [[1.0, [[0.6, 0.0], [0.0, 0.8]]]]}}, "output": {"path": "remainder.csv"}}
    bases.append(("qubit_remainder", one, _steer_check(1, 2)))
    near_pure = {**steer, "parameters": {"ensemble": {"members": _near_pure_members()}}, "output": {"path": "near_pure.csv"}}
    bases.append(("near_pure_steer", near_pure, _steer_check(6, 7)))
    for command, parameters in FORMS.items():
        form = {"command": command, "seed": 1, "parameters": parameters, "output": {"path": f"form_{command}.csv"}}
        bases.append((f"form_{command}", form, None))
    return bases


def _positions(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _positions(child, prefix + (key,))


def mutate(doc, rng: random.Random) -> None:
    """Apply one mutation to ``doc`` in place."""
    positions = list(_positions(doc))
    if not positions:
        return
    path = rng.choice(positions)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    action = rng.randrange(3)
    if action == 0:
        del parent[key]
    elif action == 1 and isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < 1e308:
        parent[key] = value * rng.choice(SCALES)
    elif action == 1 and isinstance(value, list) and value:
        length = rng.choice([0, len(value) // 2, min(2 * len(value), MAX_LIST)])
        parent[key] = [json.loads(json.dumps(value[i % len(value)])) for i in range(length)]
    elif action == 1 and isinstance(value, dict):
        parent[key] = [value]
    else:
        parent[key] = json.loads(json.dumps(rng.choice(HOSTILE)))


def _artifact_problem(data: bytes) -> str | None:
    """Why ``data`` is no valid artifact, or None if it parses and holds no NaN."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return "artifact is not UTF-8"
    if text.startswith("{"):
        constants = []
        try:
            json.loads(text, parse_constant=constants.append)
        except ValueError as exc:
            return f"JSON artifact does not parse: {exc}"
        return "artifact holds a NaN" if "NaN" in constants else None
    lines = text.splitlines()
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not lines or not lines[0].startswith("# ") or not table:
        return "CSV artifact has no metadata or no header"
    if any(len(row) != len(table[0]) for row in table[1:]):
        return "CSV artifact has rows of the wrong width"
    if any(cell.lower() == "nan" for row in table for cell in row):
        return "artifact holds a NaN"
    return None


def mutate_text(text: str, rng: random.Random) -> str:
    """``text``, a document with at least one number, as one the decoder
    rejects: truncated at a random offset, wrapped 100 000 lists deep, or
    with one number replaced by ``NaN`` or ``1e999``."""
    action = rng.randrange(3)
    if action == 0:
        return text[: rng.randrange(len(text))]
    if action == 1:
        return "[" * 100_000 + text + "]" * 100_000
    number = rng.choice([m for m in JSON_TOKEN.finditer(text) if not m.group().startswith('"')])
    return text[: number.start()] + rng.choice(["NaN", "1e999"]) + text[number.end() :]


def _run(cli, text: str, command, check, expect: int | None) -> tuple[int | None, str | None, list[str]]:
    """Run one config in the working directory, a temporary one of
    ``fuzz``'s own; its exit code, what it broke or None, and its stderr
    lines other than warnings. ``expect`` is the exit the config must reach,
    or None for any of 0, 2 and 3."""
    for leftover in os.listdir("."):
        os.remove(leftover)
    with open(CONFIG, "w", encoding="utf-8") as fh:
        fh.write(text)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", CONFIG, "--quiet"])
    except Exception as exc:  # noqa: BLE001 - an escape is what the gate looks for
        return None, f"{type(exc).__name__} escaped: {exc}", []
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning:")]
    prefix = {2: "config error:", 3: f"numerical failure: {command}: "}.get(code)
    if code not in (0, 2, 3):
        return code, f"exit {code}", lines
    stray = [line for line in lines if prefix is None or not line.startswith(prefix)]
    if stray:
        return code, f"exit {code} wrote {stray[0]!r}", lines
    artifacts = sorted(path for path in os.listdir(".") if path != CONFIG)
    if code != 0 and artifacts:
        return code, f"exit {code} left {artifacts[0]!r}", lines
    if expect is not None and code != expect:
        return code, f"expected exit {expect}, got exit {code}: {lines[0] if lines else ''}", lines
    if code != 0:
        return code, None, lines
    if len(artifacts) != 1:
        return code, f"exit 0 left {len(artifacts)} artifacts", lines
    with open(artifacts[0], "rb") as fh:
        data = fh.read()
    problem = _artifact_problem(data)
    if problem is not None:
        return code, f"exit 0: {problem}", lines
    if check is not None:
        try:
            check(data)
        except (AssertionError, KeyError, IndexError, TypeError, ValueError) as exc:
            return code, f"benchmark check failed: {type(exc).__name__}: {exc}", lines
    return code, None, lines


def run_one(
    cli, name: str, base_command: str, doc: dict, report: Report, check=None, expect: int | None = None, text: str | None = None
) -> None:
    """Run one config, written as ``text`` or else as ``doc``'s JSON, count
    its exit under its base's command, and record a failure naming it if it
    breaks the contract."""
    text = json.dumps(doc) if text is None else text
    code, problem, lines = _run(cli, text, doc.get("command"), check, expect)
    report.runs += 1
    if code is not None:
        report.codes[base_command, code] += 1
    if code == 3:
        # one entry per message, whatever numbers it quotes
        report.numerical.update(NUMBER.sub("#", line) for line in lines)
    if problem is not None:
        report.failures.append(f"{name}: {problem}  config: {text[:300]}")


def fuzz(seed: int, n_configs: int = CONFIGS) -> Report:
    """Run every base config, then ``n_configs`` mutants, in a temporary
    directory that is removed afterwards; the caller's working directory is
    left as it was."""
    cli, workloads = load_cli(), load_workloads()
    bases = base_configs(workloads, seed)
    rng = random.Random(seed)
    report = Report()
    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="fuzz-cli-") as tmp:
        os.chdir(tmp)
        try:
            for name, doc, check in bases:
                run_one(cli, name, doc["command"], doc, report, check, expect=0)
            for case in range(n_configs):
                name, base, _ = bases[case % len(bases)]
                doc = json.loads(json.dumps(base))
                fmt = rng.choice(FORMATS)
                doc["rule"] = json.loads(json.dumps(rng.choice(RULES)))
                doc["output"] = {"path": f"{name}.{fmt}", "format": fmt}
                if case % 10 == 9:
                    # every number of a base is read, so an overflowing one is rejected too
                    text = mutate_text(json.dumps(doc), rng)
                    run_one(cli, f"{name}#{case}", base["command"], doc, report, expect=2, text=text)
                    continue
                for _ in range(rng.randint(1, 3)):
                    mutate(doc, rng)
                run_one(cli, f"{name}#{case}", base["command"], doc, report)
        finally:
            os.chdir(start)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the base configs and the mutations")
    args = parser.parse_args(argv)
    report = fuzz(args.seed)
    totals = Counter()
    for (_, code), count in report.codes.items():
        totals[code] += count
    codes = ", ".join(f"exit {code}: {count}" for code, count in sorted(totals.items()))
    print(f"fuzz_cli: seed {args.seed}, {report.runs} configs ({codes}), {len(report.failures)} failed")
    for message, count in sorted(report.numerical.items()):
        print(f"  exit 3 x{count}: {message}")
    for failure in report.failures:
        print(f"FAIL {failure}")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
