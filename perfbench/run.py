#!/usr/bin/env python3
"""bornlab benchmark runner.

Runs one workload in-process through ``bornlab.cli.main``, one op at a time
from one process, with numpy's default BLAS threading. Every artifact is read
back and checked (see workloads.py). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload steer_pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from an untraced run.
``--trace 1`` reports the per-layer metrics: it alternates untraced and
traced passes over the workload's ops and gives the tracing overhead as the
difference between the two.

Run from the root of a bornlab source tree; the program is imported from its
``src/`` directory, and the runner exits non-zero without a result if that
directory holds no bornlab.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import CheckError

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
MIN_OPS = 100  # leaves at least ten timed ops above the 90th percentile
HARD_LIMIT_S = 120.0  # stop adding ops past this, whatever MIN_OPS says
SETUP_PROBES = 5


def load_program():
    """Import bornlab.cli from this source tree, and from nowhere else."""
    package = SRC / "bornlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bornlab sources at {package}")
    sys.path.insert(0, str(SRC))
    import bornlab.cli

    if Path(bornlab.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported bornlab from {bornlab.cli.__file__}, not {package}")
    return bornlab.cli


def prepare(workload: str, seed: int, workdir: Path) -> list[list[tuple]]:
    """Write the workload's configs; each op becomes a list of
    (call, config path, artifact path)."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for op in workloads.build(workload, seed):
        entries = []
        for call in op:
            artifact = workdir / f"{call.name}.{call.fmt}"
            config = workdir / f"{call.name}.config.json"
            doc = {**call.config, "output": {"path": str(artifact), "format": call.fmt}}
            config.write_text(json.dumps(doc), encoding="utf-8")
            entries.append((call, config, artifact))
        ops.append(entries)
    return ops


def run_op(cli, op, baseline: dict) -> tuple[float, bool, bool, int]:
    """Run one op; returns (seconds, failed, wrong, artifact bytes).

    An op fails when a call raises or exits non-zero, or when an artifact is
    wrong. An artifact is checked the first time its config runs and must
    then repeat byte for byte.
    """
    for _, _, artifact in op:
        artifact.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        codes = [cli.main(["--config", str(config), "--quiet"]) for _, config, _ in op]
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, True, False, 0
    seconds = time.perf_counter() - start
    if any(codes):
        print(f"perfbench: exit codes {codes}", file=sys.stderr)
        return seconds, True, False, 0
    wrong, size = False, 0
    for call, _, artifact in op:
        try:
            data = artifact.read_bytes()
            size += len(data)
            if call.name not in baseline:
                call.check(data)
                baseline[call.name] = data
            elif data != baseline[call.name]:
                raise CheckError("artifact differs from the first run of the same config")
        except (CheckError, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            print(f"perfbench: {call.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            wrong = True
    return seconds, wrong, wrong, size


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.wrong = False

    def add(self, outcome) -> None:
        seconds, failed, wrong, _ = outcome
        self.latencies.append(seconds)
        self.failed += failed
        self.wrong |= wrong


def measure(cli, ops, seconds: float) -> Tally:
    """Untraced run: one checked warm-up pass, then whole passes over the ops
    until ``seconds`` have passed and at least MIN_OPS ops were timed."""
    baseline: dict = {}
    for op in ops:
        run_op(cli, op, baseline)
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(tally.latencies) < MIN_OPS:
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        for op in ops:
            tally.add(run_op(cli, op, baseline))
    return tally


def measure_traced(cli, ops, seconds: float) -> tuple[Tally, dict]:
    """Alternate an untraced and a traced pass over the ops until ``seconds``
    have passed; per-layer metrics are totals over the traced passes per op.
    Every pass runs the same ops, so counts per op repeat exactly."""
    baseline: dict = {}
    for op in ops:
        run_op(cli, op, baseline)
    tracer = tracing.Tracer()
    tally = Tally()
    plain_s = traced_s = 0.0
    self_s: Counter = Counter()
    artifact_bytes = traced_ops = 0
    start = time.perf_counter()
    while traced_ops == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            outcome = run_op(cli, op, baseline)
            tally.add(outcome)
            plain_s += outcome[0]
        tracer.install()
        try:
            for op in ops:
                outcome = run_op(cli, op, baseline)
                tally.add(outcome)
                traced_s += outcome[0]
                artifact_bytes += outcome[3]
                traced_ops += 1
                self_s.update(tracer.take())
        finally:
            tracer.uninstall()
    metrics = {f"{name}_ms": (1e3 * self_s[name] / traced_ops, "ms") for name in tracing.SPANS}
    for name in [*tracing.COUNTS, *tracing.COUNT_ONLY]:
        metrics[name] = (tracer.counts[name] / traced_ops, "count")
    metrics["cli.artifact_bytes"] = (artifact_bytes / traced_ops, "bytes")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    return tally, metrics


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh processes that import bornlab and numpy and
    generate and write the workload's configs: the set-up before the first
    timed op, which a CLI user pays on every call."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--seconds", "0", "--workdir", str(workdir / f"probe{i}"),
        ]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = load_program()
    if args.setup_probe:
        prepare(args.workload, args.seed, args.workdir)
        return 0

    workdir = WORK / str(os.getpid())
    try:
        ops = prepare(args.workload, args.seed, workdir)
        if args.trace:
            tally, metrics = measure_traced(cli, ops, args.seconds)
        else:
            setup = setup_seconds(args.workload, args.seed, workdir)
            tally = measure(cli, ops, args.seconds)
            lat_ms = [1e3 * s for s in tally.latencies]
            metrics = {
                "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[-1], "ms"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            # Printed for reading, not gated: on a machine whose speed comes in
            # phases, the median and the mean move with the mix of phases in a
            # run (see README.md).
            print("# also " + json.dumps({
                "latency_p50_ms": statistics.median(lat_ms),
                "ops_per_s": len(lat_ms) / (1e-3 * sum(lat_ms)),
            }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
