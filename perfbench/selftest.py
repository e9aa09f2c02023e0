#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one pass over its ops (a few ops each) and requires
no failure, then moves one number of an artifact by 1e-6 and requires that
the op is reported as failed.
"""

from __future__ import annotations

import os
import re
import shutil
import unittest

import run
import workloads

cli = run.load_program()

NUDGE = 1e-6


def nudge_csv(text: str, column: str) -> str:
    """Move ``column`` of the first data row by NUDGE."""
    lines = text.split("\r\n")
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = lines[head].split(",").index(column)
    fields = lines[head + 1].split(",")
    fields[index] = repr(float(fields[index]) + NUDGE)
    lines[head + 1] = ",".join(fields)
    return "\r\n".join(lines)


def nudge_json(text: str, key: str) -> str:
    """Move the first number stored under ``key`` by NUDGE."""
    return re.sub(
        rf'("{key}": )([-+.0-9eE]+)',
        lambda m: m.group(1) + repr(float(m.group(2)) + NUDGE),
        text,
        count=1,
    )


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.workdir = run.WORK / f"selftest-{os.getpid()}"

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def ops(self, workload: str):
        return run.prepare(workload, 7, self.workdir / workload)

    def run_nudged(self, op, baseline: dict, call_name: str, nudge):
        """Run ``op`` with the artifact of ``call_name`` altered after the CLI
        writes it."""
        artifact = next(path for call, _, path in op if call.name == call_name)
        real_main = cli.main

        def main(argv):
            code = real_main(argv)
            if argv[1].endswith(f"/{call_name}.config.json"):
                text = artifact.read_bytes().decode("utf-8")
                altered = nudge(text)
                self.assertNotEqual(altered, text)
                artifact.write_bytes(altered.encode("utf-8"))
            return code

        cli.main = main
        try:
            return run.run_op(cli, op, baseline)
        finally:
            cli.main = real_main

    def test_short_run_of_every_workload_passes(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                ops = self.ops(workload)
                baseline: dict = {}
                # the repeated first op compares its artifacts byte for byte
                for op in ops + ops[:1]:
                    _, failed, wrong, size = run.run_op(cli, op, baseline)
                    self.assertFalse(failed or wrong)
                    self.assertGreater(size, 0)

    def test_number_moved_by_1e6_fails_the_op(self):
        cases = [
            ("steer_pipeline", "steer0_full", lambda t: nudge_csv(t, "probability")),
            ("rigidity_scan", "scan0_custom", lambda t: nudge_json(t, "max_gap")),
            ("rigidity_scan", "scan0_power", lambda t: nudge_json(t, "deviation_bound")),
            ("steer_pipeline", "steer0_tau", lambda t: nudge_csv(t, "value")),
            ("steer_pipeline", "steer0_jensen", lambda t: nudge_csv(t, "gap")),
            ("steer_pipeline", "steer0_experiment", lambda t: nudge_csv(t, "prob_direct")),
            ("steer_pipeline", "steer0_detect", lambda t: nudge_json(t, "prob_split")),
            ("steer_pipeline", "steer0_fock", lambda t: nudge_csv(t, "analytic_tau")),
            ("steer_pipeline", "steer0_sigma", lambda t: nudge_csv(t, "tail_bound")),
        ]
        pools = {workload: self.ops(workload) for workload in workloads.WORKLOADS}
        for workload, call_name, nudge in cases:
            with self.subTest(call=call_name):
                _, failed, wrong, _ = self.run_nudged(pools[workload][0], {}, call_name, nudge)
                self.assertTrue(failed and wrong)

    def test_rerun_that_differs_fails_the_op(self):
        # the optimizer residual has no numeric check; only the byte
        # comparison with the first run can catch a change to it
        op = self.ops("rigidity_scan")[0]
        baseline: dict = {}
        self.assertFalse(run.run_op(cli, op, baseline)[1])
        _, failed, wrong, _ = self.run_nudged(op, baseline, "scan0_tau", lambda t: nudge_csv(t, "residual"))
        self.assertTrue(failed and wrong)


if __name__ == "__main__":
    unittest.main()
