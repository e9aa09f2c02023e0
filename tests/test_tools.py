import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from bornlab import cli
from conftest import load_module

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load_tool(name: str):
    return load_module(name, TOOLS / f"{name}.py")


@pytest.fixture(scope="module")
def delta():
    return load_tool("artifact_delta")


class TestArtifactDigest:
    def test_a_failed_check_replaces_the_digest(self, capsys):
        digest = load_tool("artifact_digest")

        def wrong(data):
            raise AssertionError("probability off")

        assert digest.digest_line(SimpleNamespace(name="c", check=lambda data: None), 0, b"x") == (
            hashlib.sha256(b"x").hexdigest(),
            False,
        )
        assert digest.digest_line(SimpleNamespace(name="c", check=wrong), 0, b"x") == ("check-failed", True)
        assert "c: AssertionError: probability off" in capsys.readouterr().err
        assert digest.digest_line(SimpleNamespace(name="c", check=wrong), 3, None) == ("exit-3", True)

    def test_every_benchmark_call_exits_0_and_passes_its_check(self):
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-W", "error", str(TOOLS / "artifact_digest.py")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        # every call of the three workloads at seeds 1, 2 and 3
        assert len(lines) == 294
        failed = [line for line in lines if line.startswith(("check-failed", "exit-"))]
        assert not failed


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


CSV = "# command=steer\noutcome,probability,note\n0,0.25,a\n1,0.75,b\n"


class TestArtifactDelta:
    def test_equal_trees_print_nothing(self, delta, tmp_path, capsys):
        files = {"w/1/a.csv": CSV, "w/1/a.config.json": '{"output": "x"}'}
        first = write_tree(tmp_path / "first", files)
        second = write_tree(tmp_path / "second", {**files, "w/1/a.config.json": '{"output": "y"}'})
        assert delta.main([str(first), str(second)]) == 0
        assert capsys.readouterr().out == ""

    def test_largest_delta_per_csv_column_and_json_leaf(self, delta, tmp_path):
        doc = {"report": {"p": 0.5, "n": 10, "flag": True, "witness": [0.1, 0.2]}, "metadata": {"command": "detect"}}
        changed = {**doc, "report": {"p": 0.5 + 2e-16, "n": 10, "flag": False, "witness": [0.1, 0.2 + 1e-15]}}
        first = write_tree(tmp_path / "first", {"w/a.csv": CSV, "w/b.json": json.dumps(doc)})
        second = write_tree(
            tmp_path / "second",
            {"w/a.csv": CSV.replace("0.25,a", "0.2500000000000001,c").replace("0.75", "0.7500000000000002"), "w/b.json": json.dumps(changed)},
        )
        result = dict(delta.compare(first, second))
        assert set(result) == {"w/a.csv", "w/b.json"}
        assert result["w/a.csv"]["probability"].absolute == pytest.approx(2.220446049250313e-16)
        assert result["w/a.csv"]["note"] == "'a' -> 'c'"
        assert set(result["w/a.csv"]) == {"probability", "note"}
        assert result["w/b.json"]["report.p"].absolute == pytest.approx(2e-16, rel=0.2)
        assert result["w/b.json"]["report.witness[1]"].absolute == pytest.approx(1e-15, rel=0.2)
        assert result["w/b.json"]["report.flag"] == "True -> False"
        assert set(result["w/b.json"]) == {"report.p", "report.witness[1]", "report.flag"}

    def test_relative_delta_is_printed_beside_the_largest_delta(self, delta, tmp_path, capsys):
        # a last-digit change of a large value: |delta| alone misreads it
        doc = {"detectability": {"sample_size_estimate": 32768.0, "prob_split": 0.5}}
        changed = {"detectability": {"sample_size_estimate": 32768.00000000001, "prob_split": 0.25}}
        first = write_tree(tmp_path / "first", {"w/d.json": json.dumps(doc)})
        second = write_tree(tmp_path / "second", {"w/d.json": json.dumps(changed)})
        result = dict(delta.compare(first, second))["w/d.json"]
        estimate = result["detectability.sample_size_estimate"]
        assert estimate.absolute == pytest.approx(7.275957614183426e-12)
        assert estimate.relative == pytest.approx(2.220446049250313e-16)
        assert result["detectability.prob_split"] == (0.25, 0.5)
        assert delta.main([str(first), str(second)]) == 1
        out = capsys.readouterr().out
        assert "  detectability.sample_size_estimate: |delta| 7.28e-12, relative 2.22e-16\n" in out
        assert out.count("detectability.prob_split: |delta| 0.25, relative 0.5\n") == 2

    def test_files_and_columns_on_one_side_only(self, delta, tmp_path, capsys):
        first = write_tree(tmp_path / "first", {"w/a.csv": CSV, "w/gone.csv": CSV})
        second = write_tree(tmp_path / "second", {"w/a.csv": CSV.replace(",note", ",extra"), "w/new.csv": CSV})
        result = dict(delta.compare(first, second))
        assert result["w/gone.csv"] == {"(file)": "only in the first"}
        assert result["w/new.csv"] == {"(file)": "only in the second"}
        assert result["w/a.csv"] == {"extra": "only in the second", "note": "only in the first"}
        assert delta.main([str(first), str(second)]) == 1
        assert "3 files differ" in capsys.readouterr().out


@pytest.fixture(scope="module")
def seed_0(fuzz_cli, tmp_path_factory):
    """The seed-0 gate, run from a directory that holds one file, and that
    directory."""
    home = tmp_path_factory.mktemp("caller")
    (home / "keep.txt").write_text("kept", encoding="utf-8")
    start = os.getcwd()
    os.chdir(home)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fuzz_cli.fuzz(0)
        assert os.getcwd() == str(home)
    finally:
        os.chdir(start)
    return report, home


def jensen_leaks(line: str, code: int):
    """``cli.run``, except that a jensen config writes its artifact and then
    fails with ``line`` on stderr and exit ``code``."""
    real = cli.run

    def leaky(config, quiet=False):
        if config.command != "jensen":
            return real(config, quiet)
        real(config, quiet=True)
        print(line, file=sys.stderr)
        return code

    return leaky


class TestFuzzCli:
    def test_seed_0_keeps_the_cli_contract(self, fuzz_cli, seed_0):
        report, _ = seed_0
        assert report.failures == []
        # 28 benchmark bases, the two qubit steer bases and one form base
        # per command, then the mutants
        assert report.runs == 30 + len(fuzz_cli.FORMS) + 2000
        assert {code for _, code in report.codes} <= {0, 2, 3}

    def test_the_caller_s_directory_is_left_alone(self, seed_0):
        _, home = seed_0
        assert [path.name for path in home.iterdir()] == ["keep.txt"]

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_mutants_of_each_command_reach_its_handler_and_its_checks(self, seed_0, command):
        report, _ = seed_0
        assert report.codes[command, 0] > 0 and report.codes[command, 2] > 0

    def test_an_escaping_exception_fails_the_gate(self, fuzz_cli, monkeypatch):
        def raising(rule, seed, p1, p2, lam):
            raise KeyError("p1")

        monkeypatch.setitem(cli._COMMANDS, "jensen", (cli._parse_two_level, raising, "csv"))
        failures = fuzz_cli.fuzz(0, 20).failures
        assert failures and all("_jensen" in f and "KeyError escaped" in f for f in failures)

    def test_a_nan_in_an_artifact_fails_the_gate(self, fuzz_cli, monkeypatch):
        def nan_gap(rule, seed, p1, p2, lam):
            return "gap=nan", ["p1", "p2", "lambda", "gap"], [[p1, p2, lam, math.nan]], None

        monkeypatch.setitem(cli._COMMANDS, "jensen", (cli._parse_two_level, nan_gap, "csv"))
        failures = fuzz_cli.fuzz(0, 20).failures
        assert failures and all("_jensen" in f and "artifact holds a NaN" in f for f in failures)

    def test_a_numerical_failure_without_its_command_fails_the_gate(self, fuzz_cli, monkeypatch):
        real = cli.run

        def unnamed(config, quiet=False):
            if config.command != "jensen":
                return real(config, quiet)
            print("numerical failure: gap did not converge", file=sys.stderr)
            return cli.EXIT_NUMERICAL

        monkeypatch.setattr(cli, "run", unnamed)
        failures = fuzz_cli.fuzz(0, 20).failures
        assert failures and all("_jensen" in f and "exit 3 wrote 'numerical failure: gap" in f for f in failures)

    def test_a_file_left_by_a_config_error_fails_the_gate(self, fuzz_cli, monkeypatch):
        monkeypatch.setattr(cli, "run", jensen_leaks("config error: p1: rejected after the artifact was written", cli.EXIT_CONFIG))
        failures = fuzz_cli.fuzz(0, 20).failures
        assert failures and all("_jensen" in f and "exit 2 left '" in f for f in failures)

    def test_a_file_left_by_a_numerical_failure_fails_the_gate(self, fuzz_cli, monkeypatch):
        monkeypatch.setattr(cli, "run", jensen_leaks("numerical failure: jensen: gap did not converge", cli.EXIT_NUMERICAL))
        failures = fuzz_cli.fuzz(0, 20).failures
        assert failures and all("_jensen" in f and "exit 3 left '" in f for f in failures)

    def test_an_unmutated_base_that_fails_fails_the_gate(self, fuzz_cli, monkeypatch):
        def raising(rule, seed, p1, p2, lam):
            raise ValueError("gap out of range")

        monkeypatch.setitem(cli._COMMANDS, "jensen", (cli._parse_two_level, raising, "csv"))
        report = fuzz_cli.fuzz(0, 0)
        jensen = [name for name, doc, _ in fuzz_cli.base_configs(fuzz_cli.load_workloads(), 0) if doc["command"] == "jensen"]
        assert len(jensen) > 1
        assert len(report.failures) == len(jensen)
        for name, failure in zip(jensen, report.failures):
            assert failure.startswith(f"{name}: expected exit 0, got exit 3: numerical failure: jensen: gap out of range")

    def test_text_mutants_are_config_errors_of_each_kind(self, fuzz_cli):
        text = json.dumps({"command": "jensen", "seed": 0, "parameters": {"p1": 0.2, "p2": 0.9, "lambda": 0.3}})
        rng = random.Random(0)
        errors = []
        for _ in range(40):
            with pytest.raises(cli.ConfigValidationError) as excinfo:
                cli.validate(fuzz_cli.mutate_text(text, rng))
            errors.extend(excinfo.value.errors)
        assert any(e.startswith("syntax error at line 1") for e in errors)
        assert any(e.startswith("nesting: ") for e in errors)
        assert any(e == "non-finite number NaN: only finite numbers are accepted" for e in errors)
        assert any(e.endswith(": number overflows a float: only finite numbers are accepted") for e in errors)


class TestAb:
    """The verdict of ``tools/ab.py`` on synthetic paired samples; no
    benchmark process is started."""

    @pytest.fixture(scope="class")
    def ab(self):
        return load_tool("ab")

    BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_nine_wins_of_ten_are_a_gain(self, ab):
        head = [b - 2.0 for b in self.BASE[:9]] + [self.BASE[9] + 1.0]
        summary = ab.compare(self.BASE, head, "lower", 0.25)
        assert (summary["head_wins"], summary["ties"], summary["pairs"]) == (9, 0, 10)
        assert summary["sign_test_p"] == pytest.approx(22 / 1024)
        assert summary["verdict"] == "gain"
        # the same numbers, read as a metric where higher is better
        assert ab.compare(self.BASE, head, "higher", 0.25)["verdict"] == "not_shown"

    def test_eight_wins_of_ten_are_not(self, ab):
        head = [b - 2.0 for b in self.BASE[:8]] + [b + 1.0 for b in self.BASE[8:]]
        summary = ab.compare(self.BASE, head, "lower", 0.25)
        assert summary["head_wins"] == 8 and summary["sign_test_p"] > 0.05
        assert summary["verdict"] == "not_shown"

    def test_equal_samples_show_nothing(self, ab):
        summary = ab.compare(self.BASE, list(self.BASE), "lower", 0.25)
        assert (summary["head_wins"], summary["ties"], summary["sign_test_p"]) == (0, 10, 1.0)
        assert summary["median_change_pct"] == 0.0
        assert summary["verdict"] == "not_shown"

    def test_worse_past_the_bound(self, ab):
        head = [1.3 * b for b in self.BASE]
        assert ab.compare(self.BASE, head, "lower", 0.25)["verdict"] == "worse"
        assert ab.compare(self.BASE, head, "lower", 0.35)["verdict"] == "not_shown"
        assert ab.compare(head, self.BASE, "higher", 0.2)["verdict"] == "worse"

    def test_ties_count_for_neither_side(self, ab):
        # three wins and seven ties: the sign test sees three untied pairs
        head = [b - 1.0 for b in self.BASE[:3]] + self.BASE[3:]
        summary = ab.compare(self.BASE, head, "lower", 0.25)
        assert (summary["head_wins"], summary["ties"], summary["pairs"]) == (3, 7, 10)
        assert summary["sign_test_p"] == pytest.approx(0.25)
        assert summary["verdict"] == "not_shown"
        # eight wins and two ties: p = 2/256 over the untied pairs, but a
        # gain needs nine tenths of all pairs
        head = [b - 2.0 for b in self.BASE[:8]] + self.BASE[8:]
        summary = ab.compare(self.BASE, head, "lower", 0.25)
        assert (summary["head_wins"], summary["ties"]) == (8, 2)
        assert summary["sign_test_p"] == pytest.approx(2 / 256)
        assert summary["verdict"] == "not_shown"

    def test_sign_test_p(self, ab):
        assert ab.sign_test_p(0, 0) == 1.0
        assert ab.sign_test_p(2, 0) == 0.5
        assert ab.sign_test_p(10, 0) == pytest.approx(2 / 1024)
        assert ab.sign_test_p(1, 9) == ab.sign_test_p(9, 1)


class TestWorkflow:
    """The scripts that ``.github/workflows/tests.yml`` runs exist and take
    ``--help``. The workflow is read as text: CI installs only the test
    extra, which has no YAML reader."""

    # `python3 -W error tools/x.py ...` and `"python$version" -W error tools/x.py`
    SCRIPT_RUN = re.compile(r"\bpython\S*\s+(?:-W\s*\S+\s+)?((?:tools|perfbench)/[\w/.-]+\.py)")

    @pytest.fixture(scope="class")
    def scripts(self):
        text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        return sorted(set(self.SCRIPT_RUN.findall(text)))

    def test_every_script_the_workflow_runs_exists(self, scripts):
        assert "tools/fuzz_cli.py" in scripts and "perfbench/run.py" in scripts
        assert [path for path in scripts if not (ROOT / path).is_file()] == []

    def test_every_tool_the_workflow_runs_takes_help(self, scripts, capsys):
        tools = [Path(path).stem for path in scripts if path.startswith("tools/")]
        assert tools
        for name in tools:
            with pytest.raises(SystemExit) as excinfo:
                load_tool(name).main(["--help"])
            assert excinfo.value.code == 0, name
            assert capsys.readouterr().out.startswith("usage: "), name
