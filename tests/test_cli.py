import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bornlab import cli, linalg, rigidity, signaling, steering, transition
from bornlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_CONFIG_BYTES,
    MAX_CUTOFF,
    MAX_MEMBER_DIM,
    MAX_MEMBERS,
    MAX_SAMPLES,
    MAX_STEER_ENTRIES,
    MIN_GRID_STEP,
    ConfigValidationError,
    _amplitude_array,
    _parse_state,
    main,
    validate,
)
from bornlab.linalg import haar_random_state
from bornlab.rules import PhiRule


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def jensen_doc(out_path, **overrides):
    doc = {
        "command": "jensen",
        "rule": {"kind": "power", "alpha": 2.0},
        "seed": 0,
        "parameters": {"p1": 0.0, "p2": 1.0, "lambda": 0.5},
        "output": {"path": str(out_path), "format": "csv"},
    }
    doc.update(overrides)
    return doc


class TestValidate:
    def test_minimal_config_parses(self):
        config = validate(json.dumps({"command": "jensen", "seed": 3, "parameters": {"p1": 0.1, "p2": 0.9, "lambda": 0.5}}))
        assert config.command == "jensen"
        assert config.seed == 3
        assert config.rule.describe() == "identity"
        assert config.warnings == ()

    def test_lambda_out_of_range_names_field_and_range(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            validate(json.dumps({"command": "jensen", "seed": 0, "parameters": {"p1": 0.1, "p2": 0.9, "lambda": 1.5}}))
        assert any("lambda" in e and "(0, 1)" in e for e in excinfo.value.errors)

    def test_missing_seed_defaults_with_warning(self):
        config = validate(json.dumps({"command": "jensen", "parameters": {"p1": 0.1, "p2": 0.9, "lambda": 0.5}}))
        assert config.seed == 0
        assert any("seed" in w for w in config.warnings)

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            validate(
                json.dumps(
                    {
                        "command": "detect",
                        "seed": "zero",
                        "rule": {"kind": "cubic"},
                        "parameters": {"p1": -0.5, "p2": 2.0, "lambda": 1.5, "n_samples": 0},
                    }
                )
            )
        text = "\n".join(excinfo.value.errors)
        for field in ("seed", "rule", "p1", "p2", "lambda", "n_samples"):
            assert field in text
        assert len(excinfo.value.errors) >= 6

    def test_syntax_error_reports_position(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            validate("{\n  \"command\": jensen\n}")
        assert "line 2" in excinfo.value.errors[0]

    def test_unknown_command(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            validate(json.dumps({"command": "teleport", "seed": 0}))
        assert any("command" in e for e in excinfo.value.errors)

    def test_default_formats_per_command(self):
        scan = validate(json.dumps({"command": "scan", "seed": 0, "parameters": {}}))
        assert scan.output_format == "json"
        tau = validate(json.dumps({"command": "tau", "seed": 0, "parameters": {"psi": [1.0, 0.0], "phi": [1.0, 0.0]}}))
        assert tau.output_format == "csv"


class TestRun:
    def test_jensen_csv_artifact(self, tmp_path, capsys):
        out = tmp_path / "jensen.csv"
        code = main(["--config", str(write_config(tmp_path, jensen_doc(out)))])
        assert code == EXIT_OK
        assert "gap=0.25" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("tool_version=" in l for l in meta)
        assert any("rule=power(2)" in l for l in meta)
        assert any("seed=0" in l for l in meta)
        assert lines[len(meta)] == "p1,p2,lambda,gap"
        assert lines[len(meta) + 1] == "0,1,0.5,0.25"

    def test_tau_both_methods(self, tmp_path, capsys):
        inv = 2**-0.5
        doc = {
            "command": "tau",
            "seed": 0,
            "parameters": {"psi": [inv, inv], "phi": [1.0, 0.0]},
            "output": {"path": str(tmp_path / "tau.csv"), "format": "csv"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_OK
        assert "tau=0.5 closed_form" in capsys.readouterr().out
        lines = (tmp_path / "tau.csv").read_text(encoding="utf-8").splitlines()
        assert lines[4] == "method,value,iterations,residual"
        assert lines[5].startswith("closed_form,0.5") and lines[5].endswith(",0,0")
        closed = lines[5].split(",")[1]
        method, value, iterations, residual = lines[6].split(",")
        # the dual bound sits below the closed form, and its residual is the width
        assert (method, iterations) == ("optimized", "0")
        assert 0.0 < float(residual) == float(closed) - float(value) <= transition.DUAL_GAP_BOUND

    def test_scan_identity_certifies(self, tmp_path, capsys):
        doc = {
            "command": "scan",
            "rule": {"kind": "identity"},
            "seed": 0,
            "parameters": {},
            "output": {"path": str(tmp_path / "scan.json"), "format": "json"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_OK
        assert "certified=true" in capsys.readouterr().out
        report = json.loads((tmp_path / "scan.json").read_text(encoding="utf-8"))
        assert report["certification"]["certified"] is True
        assert report["rigidity"]["max_gap"] <= 1e-12
        assert report["metadata"]["tool_version"]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    def test_scan_does_not_certify_a_rule_off_the_identity_between_grid_points(self, tmp_path):
        # a monotone rule equal to p at every point the default step's grid
        # mixes to, and 2.3e-3 off it between them: the certificate must
        # either refuse it or bound |Phi(p) - p| by at least that
        knots = [[0, 0], [0.5, 0.5], [0.5001, 0.5024], [0.5025, 0.5025], [1, 1]]
        # Phi - p is affine between knots, so its supremum sits on one
        deviation = max(abs(y - x) for x, y in knots)
        assert deviation == pytest.approx(2.3e-3)
        doc = {"command": "scan", "rule": {"kind": "piecewise_affine", "knots": knots}, "seed": 0, "parameters": {}}
        exit_code, out = run_doc(tmp_path, doc)
        assert exit_code == EXIT_OK
        certification = json.loads(out.read_text(encoding="utf-8"))["certification"]
        assert not certification["certified"] or certification["deviation_bound"] >= deviation

    def test_experiment_run(self, tmp_path):
        doc = {
            "command": "experiment",
            "rule": {"kind": "power", "alpha": 2.0},
            "seed": 0,
            "parameters": {"p1": 0.0, "p2": 1.0, "lambda": 0.5},
            "output": {"path": str(tmp_path / "exp.csv"), "format": "csv"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_OK
        rows = [l for l in (tmp_path / "exp.csv").read_text(encoding="utf-8").splitlines() if l and not l.startswith("#")]
        header = rows[0].split(",")
        values = rows[1].split(",")
        record = dict(zip(header, values))
        assert float(record["gap"]) == pytest.approx(0.25, abs=1e-8)
        assert float(record["pipeline_discrepancy"]) <= 1e-8

    def test_detect_json_report(self, tmp_path):
        doc = {
            "command": "detect",
            "rule": {"kind": "power", "alpha": 2.0},
            "seed": 11,
            "parameters": {"p1": 0.0, "p2": 1.0, "lambda": 0.5, "n_samples": 10_000},
            "output": {"path": str(tmp_path / "detect.json"), "format": "json"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_OK
        report = json.loads((tmp_path / "detect.json").read_text(encoding="utf-8"))["detectability"]
        assert report["rejected"] is True
        assert report["p_value"] < 1e-6

    def test_steer_artifact(self, tmp_path, capsys):
        doc = {
            "command": "steer",
            "seed": 0,
            "parameters": {
                "ensemble": {"members": [[0.5, [1.0, 0.0]], [0.5, [0.0, 1.0]]]}
            },
            "output": {"path": str(tmp_path / "steer.csv"), "format": "csv"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_OK
        assert "outcomes=2" in capsys.readouterr().out
        rows = [l for l in (tmp_path / "steer.csv").read_text(encoding="utf-8").splitlines() if l and not l.startswith("#")]
        first = rows[1].split(",")
        assert float(first[1]) == pytest.approx(0.5, abs=1e-10)
        assert float(first[3]) == pytest.approx(1.0, abs=1e-10)

    def test_one_member_steer_artifact_has_a_remainder_row(self, tmp_path, capsys):
        out = tmp_path / "steer.csv"
        doc = {"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": [[1.0, [0.6, 0.8]]]}}}
        assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        assert "outcomes=2" in capsys.readouterr().out
        rows = [l for l in out.read_text(encoding="utf-8").splitlines() if l and not l.startswith("#")]
        assert len(rows) == 3
        member, remainder = (row.split(",") for row in rows[1:])
        assert float(member[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(member[3]) == pytest.approx(1.0, abs=1e-12)
        assert float(remainder[1]) <= 1e-12 and remainder[2:] == ["", ""]

    def test_fock_converge_artifact(self, tmp_path):
        doc = {
            "command": "fock_converge",
            "seed": 0,
            "parameters": {"alpha": 0.0, "beta": 1.0, "n_list": [5, 10, 20, 40]},
            "output": {"path": str(tmp_path / "fock.csv"), "format": "csv"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_OK
        rows = [l for l in (tmp_path / "fock.csv").read_text(encoding="utf-8").splitlines() if l and not l.startswith("#")]
        errors = [float(r.split(",")[1]) for r in rows[1:]]
        assert errors[-1] <= 1e-8
        assert errors == sorted(errors, reverse=True)

    def test_sigma_affinity_artifact(self, tmp_path):
        doc = {
            "command": "sigma_affinity",
            "rule": {"kind": "power", "alpha": 1.2},
            "seed": 0,
            "parameters": {"r": 0.5, "n_list": [0, 5, 10], "phi": {"fock": 0}},
            "output": {"path": str(tmp_path / "sigma.csv"), "format": "csv"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_OK
        rows = [l for l in (tmp_path / "sigma.csv").read_text(encoding="utf-8").splitlines() if l and not l.startswith("#")]
        for row in rows[1:]:
            _, deviation, tail = row.split(",")
            assert float(deviation) <= float(tail)

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        out = tmp_path / "quiet.csv"
        assert main(["--config", str(write_config(tmp_path, jensen_doc(out))), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_config_error_exits_two(self, tmp_path, capsys):
        doc = jensen_doc(tmp_path / "x.csv")
        doc["parameters"]["lambda"] = 1.5
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    def test_steer_tail_is_one_fault(self, tmp_path, capsys):
        doc = {
            "command": "steer",
            "seed": 0,
            "parameters": {"ensemble": {"tail_weight": 0.25, "members": [[0.75, [1.0, 0.0]]]}},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
        # an ensemble with a tail is one fault, reported once
        err = capsys.readouterr().err
        assert err.count("config error:") == 1
        assert err.startswith("config error: ensemble.tail_weight: must be 0")

    def test_numerical_failure_exits_three_without_artifact(self, tmp_path, capsys):
        # a valid rule whose values leave [0, 1] takes prob_split outside it
        out = tmp_path / "detect.json"
        doc = {
            "command": "detect",
            "rule": {"kind": "custom", "values": [0, 1.5, 1]},
            "seed": 0,
            "parameters": {"p1": 0.2, "p2": 0.7, "lambda": 0.4, "n_samples": 100},
            "output": {"path": str(out), "format": "json"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_NUMERICAL
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: detect: prob_split = ")

    def test_tau_outside_its_interval_exits_three_without_artifact(self, tmp_path, capsys, monkeypatch):
        # a dual bound above the closed form is no bound: the run names both
        monkeypatch.setattr(cli, "tau_optimized", lambda psi, phi: transition.TransitionResult(value=1.0))
        out = tmp_path / "tau.csv"
        doc = {"command": "tau", "seed": 0, "parameters": {"psi": [0.6, 0.8], "phi": [1, 0]}}
        assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: tau: closed form 0.36") and " minus dual bound 1.0 is " in lines[0]

    def test_module_run_as_a_script_writes_its_artifact(self, tmp_path):
        out = tmp_path / "jensen.csv"
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        config = write_config(tmp_path, jensen_doc(out))
        done = subprocess.run(
            [sys.executable, "-m", "bornlab.cli", "--config", str(config), "--quiet"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert out.read_text(encoding="utf-8").startswith("# ")


class TestReproducibility:
    def test_seed_and_format_overrides(self, tmp_path):
        doc = {
            "command": "detect",
            "rule": {"kind": "identity"},
            "seed": 1,
            "parameters": {"p1": 0.0, "p2": 1.0, "lambda": 0.5, "n_samples": 400},
        }
        config_path = write_config(tmp_path, doc)
        a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
        main(["--config", str(config_path), "--out", str(a), "--format", "json"])
        main(["--config", str(config_path), "--out", str(b), "--format", "json", "--seed", "1"])
        main(["--config", str(config_path), "--out", str(c), "--format", "json", "--seed", "2"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        out = tmp_path / "first.csv"
        again = tmp_path / "second.csv"
        doc = jensen_doc(out)
        config_path = write_config(tmp_path, doc)
        main(["--config", str(config_path), "--quiet"])
        main(["--config", str(config_path), "--quiet", "--out", str(again)])
        assert out.read_bytes() == again.read_bytes()


class TestNonFiniteJson:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_constant_is_a_config_error_naming_it(self, token):
        text = '{"command": "scan", "rule": {"kind": "custom", "values": [0, %s, 1]}}' % token
        with pytest.raises(ConfigValidationError) as excinfo:
            validate(text)
        assert token in excinfo.value.errors[0]

    def test_overflowing_literal_is_a_config_error(self):
        with pytest.raises(ConfigValidationError) as excinfo:
            validate('{"command": "tau", "parameters": {"psi": [1e400, 0], "phi": [1, 0]}}')
        # the failed entry ends the list's parse: no second, false zero-norm error
        assert excinfo.value.errors == ["psi[0]: number overflows a float: only finite numbers are accepted"]

    # each overflowing literal is rejected by the field that reads it
    OVERFLOWS = [
        ('{"command": "scan", "rule": {"kind": "power", "alpha": 2}, "parameters": {"gap_tolerance": 1e999}}', "gap_tolerance"),
        ('{"command": "tau", "parameters": {"psi": [1e400, 0], "phi": [1, 0]}}', "psi[0]"),
        ('{"command": "fock_converge", "parameters": {"alpha": [1e999, 0], "beta": 0, "n_list": [5]}}', "alpha"),
        ('{"command": "steer", "parameters": {"ensemble": {"members": [[1e999, [1, 0]]]}}}', "ensemble.members[0].weight"),
    ]

    @pytest.mark.parametrize("text,field", OVERFLOWS, ids=[field for _, field in OVERFLOWS])
    def test_overflowing_literal_exits_two_naming_its_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "overflow.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "artifact"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: number overflows a float")
        assert err.count("config error:") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_custom_table_with_nan_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"command": "scan", "rule": {"kind": "custom", "values": [0, NaN, 1]}}', encoding="utf-8")
        out = tmp_path / "scan.json"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integer_literal_exits_two(self, tmp_path, capsys, digits):
        # 5000 digits is past int()'s own limit; 400 overflows a float
        literal = "1" + "0" * (digits - 1)
        path = tmp_path / "huge.json"
        path.write_text(
            '{"command": "jensen", "parameters": {"p1": %s, "p2": 0.5, "lambda": 0.5}}' % literal,
            encoding="utf-8",
        )
        out = tmp_path / "jensen.csv"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: number 1000")
        assert f"({digits} characters)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_integer_overflowing_a_float_in_a_rule_is_a_config_error(self):
        with pytest.raises(ConfigValidationError, match="overflows a float"):
            validate('{"command": "scan", "rule": {"kind": "power", "alpha": 1%s}}' % ("0" * 310))
        assert validate('{"command": "jensen", "seed": 1%s, "parameters": {"p1": 0, "p2": 1, "lambda": 0.5}}' % ("0" * 300)).seed == 10**300


class TestRepeatedKey:
    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"command": "jensen", "seed": 1, "seed": 2, "parameters": {"p1": 0, "p2": 1, "lambda": 0.5}}', "seed"),
            ('{"command": "jensen", "seed": 1, "parameters": {"p1": 0, "p2": 1, "p1": 0.5, "lambda": 0.5}}', "p1"),
        ],
        ids=["top_level", "nested"],
    )
    def test_repeated_key_exits_two_naming_it(self, tmp_path, capsys, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "jensen.csv"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key}: repeated key\n"
        assert not out.exists()


def walk_amplitudes(raw):
    """Amplitudes entry by entry, as complex(re, im) or complex(x)."""
    return np.array([complex(*v) if isinstance(v, list) else complex(v) for v in raw])


class TestParseState:
    WELL_FORMED = [
        [0.6, -0.8],
        [1, 0, -0.0, True, 2**62, 5e-324, 0.1],
        [[0.6, -0.0], [0, 0.8]],
        [[1, 2], [3, True], [-0.0, 5e-324], [0.1, -0.7]],
        [[0.3, 0.4]],
    ]

    @pytest.mark.parametrize("raw", WELL_FORMED)
    def test_one_conversion_is_bit_identical_to_complex(self, raw):
        amps = _amplitude_array(raw)
        assert amps is not None
        assert amps.tobytes() == walk_amplitudes(raw).tobytes()
        errors: list[str] = []
        state = _parse_state(raw, "psi", errors)
        expected = walk_amplitudes(raw) / np.linalg.norm(walk_amplitudes(raw))
        assert errors == []
        assert state.amplitudes.tobytes() == expected.tobytes()

    def test_mixed_numbers_and_pairs_still_accepted(self):
        raw = [0.6, [0.0, 0.8]]
        assert _amplitude_array(raw) is None
        errors: list[str] = []
        state = _parse_state(raw, "psi", errors)
        assert errors == []
        assert state.amplitudes.tobytes() == walk_amplitudes(raw).tobytes()

    @pytest.mark.parametrize(
        "raw,expected",
        [
            (["a", 1.0], ["psi[0]: expected a number or [re, im] pair, got 'a'"]),
            ([1.0, [0.0, "b"]], ["psi[1]: expected a number or [re, im] pair, got [0.0, 'b']"]),
            ([[1.0, 0.0], [0.0, 1.0, 0.0]], ["psi[1]: expected a number or [re, im] pair, got [0.0, 1.0, 0.0]"]),
            (
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                [
                    "psi[0]: expected a number or [re, im] pair, got [1.0, 0.0, 0.0]",
                    "psi[1]: expected a number or [re, im] pair, got [0.0, 1.0, 0.0]",
                ],
            ),
            ([None, 1.0], ["psi[0]: expected a number or [re, im] pair, got None"]),
            ([[[1.0, 0.0]]], ["psi[0]: expected a number or [re, im] pair, got [[1.0, 0.0]]"]),
        ],
    )
    def test_malformed_lists_name_the_entry(self, raw, expected):
        errors: list[str] = []
        _parse_state(raw, "psi", errors)
        assert errors == expected


def steer_errors(members) -> list[str]:
    # the string "1e999" is written as the bare literal, which json reads as inf
    text = json.dumps({"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": members}}})
    try:
        validate(text.replace('"1e999"', "1e999"))
    except ConfigValidationError as exc:
        return exc.errors
    return []


class TestSteerMembers:
    """Each member's amplitude list is read on its own, by the reader of
    every amplitude list, so every error names its member; the rows are
    then normalized together, one norm per row of the k x d stack."""

    @pytest.mark.parametrize(
        "members,expected",
        [
            ([[0.5, [1, 0]], [0.5, [0, 0]]], ["ensemble.members[1].state: amplitude list has zero norm"]),
            ([[1, [1e-13, 0]]], ["ensemble.members[0].state: amplitude list has zero norm"]),
            ([[0.5, [1, 0]], [0.5, "ab"]], ["ensemble.members[1].state: expected a nonempty amplitude list"]),
            ([[0.5, []], [0.5, []]], [f"ensemble.members[{i}].state: expected a nonempty amplitude list" for i in (0, 1)]),
            (
                [[0.5, [1, 0]], [0.5, ["1e999", 0]]],
                ["ensemble.members[1].state[0]: number overflows a float: only finite numbers are accepted"],
            ),
            (
                [[0.5, [1, "x"]], [0.5, [0, 1]]],
                ["ensemble.members[0].state[1]: expected a number or [re, im] pair, got 'x'"],
            ),
            (
                [[-1, [0, 0]], [2, [1, 0]]],
                ["ensemble.members[0].weight: must be nonnegative", "ensemble.members[0].state: amplitude list has zero norm"],
            ),
            ([[0.5], [0.5, [1, 0]]], ["ensemble.members[0]: expected [weight, amplitudes]"]),
            ([[0.5, [1, 0]], [0.5, [[0, 1], [0, 0], [0, 0]]]], ["ensemble: ensemble members have mismatched dimensions"]),
        ],
    )
    def test_errors_name_the_member(self, members, expected):
        assert steer_errors(members) == expected

    @pytest.mark.parametrize(
        "amplitudes,unit",
        [
            ([1e308, 1e308], [1, 1]),
            ([10**30, 10**30], [1, 1]),
            ([[0, 1e308], [1e308, 0]], [1j, 1]),
            ([1, [0, 1]], [1, 1j]),
        ],
        ids=["overflowing_norm", "past_int64", "overflowing_pairs", "mixed_forms"],
    )
    def test_the_per_member_route_keeps_what_one_conversion_cannot(self, amplitudes, unit):
        config = validate(json.dumps({"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": [[1, amplitudes]]}}}))
        want = np.array(unit) / np.sqrt(2)
        assert np.allclose(config.args["ensemble"].amplitudes, [want], rtol=0.0, atol=1e-16)

    def test_member_rows_equal_one_batch_conversion(self, benchmark_workloads):
        # each member is read on its own; its unit row must still be the
        # bits of one conversion of all members, normalized as rows
        configs = [
            call.config
            for op in benchmark_workloads.build("steer_pipeline", 1)
            for call in op
            if call.config["command"] == "steer"
        ]
        # real amplitudes, whose norm a dot product and a row sum round apart
        rng = np.random.default_rng(7)
        for dim in (2, 4, 9, 32):
            members = [[1 / 8, rng.uniform(-2.0, 2.0, dim).tolist()] for _ in range(8)]
            configs.append({"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": members}}})
        for config in configs:
            members = config["parameters"]["ensemble"]["members"]
            parts = np.array([amplitudes for _, amplitudes in members], dtype=float)
            batch = np.zeros(parts.shape[:2], dtype=complex)
            if parts.ndim == 3:
                batch.real, batch.imag = parts[..., 0], parts[..., 1]
            else:
                batch.real = parts
            batch /= np.linalg.norm(batch, axis=1)[:, None]
            rows = validate(json.dumps(config)).args["ensemble"].amplitudes
            assert rows.tobytes() == batch.tobytes()

    def test_a_member_written_as_numbers_leaves_the_artifact_unchanged(self, tmp_path):
        first = [0.5, [[-0.34, 0], [1.052, 0], [-0.005, 0], [0.583, 0]]]
        artifacts = []
        for name, second in (("pairs", [[1, 0], [0, 0], [0, 0], [0, 0]]), ("numbers", [1, 0, 0, 0])):
            doc = {"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": [first, [0.5, second]]}}}
            code, out = run_doc(tmp_path, doc, name)
            assert code == 0
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]


class TestParseOnce:
    @pytest.mark.parametrize("form", ["pairs", "mixed"])
    def test_steer_constructions_do_not_grow_with_members(self, tmp_path, monkeypatch, form):
        # the members are read into one array and steered as one product:
        # no checked state or effect is built, for 32 members as for 64,
        # however the members are written
        built = {}
        for name in ("StateVector", "DensityMatrix", "Effect"):
            cls = getattr(linalg, name)

            def counting(self, *args, _original=cls.__post_init__, _name=name):
                built[_name] = built.get(_name, 0) + 1
                _original(self, *args)

            monkeypatch.setattr(cls, "__post_init__", counting)
        counts = []
        for n_members in (32, 64):
            states = [haar_random_state(32, seed).amplitudes for seed in range(n_members)]
            members = [[1 / n_members, [[z.real, z.imag] for z in s]] for s in states]
            if form == "mixed":
                members[0][1] = [1.0] + [0.0] * 31
            built.clear()
            doc = {"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": members}}}
            assert run_doc(tmp_path, doc)[0] == EXIT_OK
            counts.append(dict(built))
        assert counts[0] == counts[1] == {}

    def test_parameters_are_left_as_given(self):
        # amplitude lists become states once; scalars keep their JSON type,
        # and a default is filled in only for a field that is absent
        params = {"psi": [1.0, 0.0], "phi": [[0.6, 0.0], [0.0, 0.8]]}
        config = validate(json.dumps({"command": "tau", "seed": 0, "parameters": params}))
        assert sorted(config.args) == ["phi", "psi"]
        assert config.args["phi"].amplitudes.tolist() == [0.6 + 0j, 0.8j]
        config = validate(json.dumps({"command": "detect", "seed": 0, "parameters": {"p1": 0, "p2": 1, "lambda": 0.5, "n_samples": 9}}))
        assert config.args == {"p1": 0, "p2": 1, "lam": 0.5, "n_samples": 9, "alpha": 0.05}
        assert [type(config.args[k]) for k in ("p1", "p2", "lam")] == [int, int, float]

    @pytest.mark.parametrize("value", ["7", "-1", "true"])
    def test_max_iters_is_rejected_by_name(self, tmp_path, capsys, value):
        # tau's second route runs no iterations: a config that still sets the
        # old optimizer's key exits 2, whatever its value, and writes no file
        config, out = tmp_path / "tau.json", tmp_path / "tau.csv"
        params = '{"psi": [1, 0], "phi": [0, 1], "max_iters": %s}' % value
        config.write_text('{"command": "tau", "seed": 0, "parameters": %s}' % params, encoding="utf-8")
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: max_iters: tau's second route is a dual bound and runs no iterations; remove the key\n"
        )

    def test_scan_runs_the_grid_once(self, tmp_path, monkeypatch):
        calls = []
        original = rigidity.scan_gaps

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rigidity, "scan_gaps", counting)
        doc = {"command": "scan", "rule": {"kind": "power", "alpha": 2.0}, "seed": 0, "parameters": {"grid_step": 0.05}}
        out = tmp_path / "scan.json"
        assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out), "--quiet"]) == EXIT_OK
        assert len(calls) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["rigidity"] == payload["certification"]["report"]


    @staticmethod
    def record_barycenters(monkeypatch) -> list:
        handed_out = []
        original = steering.barycenter

        def recording(ensemble):
            handed_out.append(original(ensemble))
            return handed_out[-1]

        for module in (signaling, steering):
            monkeypatch.setattr(module, "barycenter", recording)
        return handed_out

    def test_steer_forms_no_barycenter(self, tmp_path, monkeypatch):
        # steering_setup factors the weighted member rows themselves: the
        # 64 members' barycenter is never formed
        members = [
            [1 / 64, [[z.real, z.imag] for z in haar_random_state(32, seed).amplitudes]]
            for seed in range(64)
        ]
        handed_out = self.record_barycenters(monkeypatch)
        doc = {"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": members}}}
        exit_code, out = run_doc(tmp_path, doc)
        assert exit_code == EXIT_OK
        assert handed_out == []
        assert len(out.read_text(encoding="utf-8").splitlines()) > 64

    def test_experiment_forms_the_mixture_barycenter_once(self, tmp_path, monkeypatch):
        # omega is the mixture's barycenter, handed out once for the direct
        # arm; steering_setup steers the split without it
        handed_out = self.record_barycenters(monkeypatch)
        doc = {"command": "experiment", "seed": 0, "parameters": {"p1": 0.2, "p2": 0.7, "lambda": 0.4}}
        exit_code, _ = run_doc(tmp_path, doc)
        assert exit_code == EXIT_OK
        assert len(handed_out) == 1

    def test_experiment_checks_the_scenario_once(self, tmp_path, monkeypatch):
        # hjw_povm alone compares the purification's marginal with omega,
        # from the coefficient matrix and without building a checked
        # DensityMatrix, and each of the two branches reads one transition
        # probability; every bornlab module that binds a name gets the
        # counting wrapper
        originals = {"partial_trace_a": linalg.partial_trace_a, "tau_closed": transition.tau_closed}
        calls = dict.fromkeys(originals, 0)
        modules = [m for name, m in sys.modules.items() if name == "bornlab" or name.startswith("bornlab.")]

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name, original in originals.items():
            wrapper = counting(name, original)
            for module in modules:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, wrapper)
        doc = {"command": "experiment", "seed": 0, "parameters": {"p1": 0.2, "p2": 0.7, "lambda": 0.4}}
        exit_code, _ = run_doc(tmp_path, doc)
        assert exit_code == EXIT_OK
        assert calls == {"partial_trace_a": 0, "tau_closed": 2}


class TestParserBuiltOnce:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_two_main_calls_share_one_parser(self, tmp_path, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        path = write_config(tmp_path, jensen_doc(tmp_path / "jensen.csv"))
        assert main(["--config", str(path), "--quiet"]) == EXIT_OK
        assert main(["--config", str(path), "--quiet", "--seed", "4"]) == EXIT_OK
        assert len(built) == 1
        assert cli._parser() is built[0]

    def test_usage_errors_and_help_are_unchanged(self, tmp_path, capsys):
        # a shared parser still exits 2 on a usage error and 0 on --help,
        # and a failed parse leaves it working for the next call
        with pytest.raises(SystemExit) as usage:
            main([])
        assert usage.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err
        with pytest.raises(SystemExit) as shown:
            main(["--help"])
        assert shown.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bornlab")
        path = write_config(tmp_path, jensen_doc(tmp_path / "jensen.csv"))
        assert main(["--config", str(path), "--quiet"]) == EXIT_OK


def run_doc(tmp_path, doc, name="case"):
    """Run one config in-process; returns (exit code, artifact path)."""
    out = tmp_path / f"{name}.out"
    return main(["--config", str(write_config(tmp_path, doc, f"{name}.json")), "--out", str(out)]), out


TWO_LEVEL = {"p1": 0.0, "p2": 1.0, "lambda": 0.5}


class TestEveryConfigEndsCleanly:
    """Configs that the library rejects, by a constructor or in its numerics:
    each ends in exit 2 naming the field, or exit 3 naming the command. Near
    pure scenarios that it once rejected end in a valid artifact."""

    CASES = [
        ("steer", {"ensemble": {"members": [[0.5, [1, 0]], [0.4, [0, 1]]]}}, EXIT_CONFIG, "ensemble: weights plus tail sum to 0.9"),
        ("steer", {"ensemble": {"members": [[0.5, [1, 0]], [0.5, [0, 1, 0]]]}}, EXIT_CONFIG, "ensemble: ensemble members have mismatched"),
        (
            "steer",
            {"ensemble": {"members": [[0.3, [1, 0, 0]], [0.21, [0, 1, 0]], [0.147, [0, 0, 1]]], "tail_weight": 0.343}},
            EXIT_CONFIG,
            "ensemble.tail_weight: must be 0",
        ),
        ("tau", {"psi": [1] * 17, "phi": [1] + [0] * 16}, EXIT_CONFIG, "psi/phi: 17 amplitudes exceed tau_optimized's maximum dimension 16"),
        ("sigma_affinity", {"r": 0.5, "n_list": [0, 5, 10], "phi": [1, 0, 0]}, EXIT_CONFIG, "phi: 3 amplitudes"),
        ("fock_converge", {"alpha": 40, "beta": 0, "n_list": [5, 10]}, EXIT_NUMERICAL, "fock_converge: coherent amplitude alpha"),
        # past ~1.34e154 the float square |alpha|^2 overflows
        ("fock_converge", {"alpha": 1.4e154, "beta": 0, "n_list": [1]}, EXIT_NUMERICAL, "fock_converge: coherent amplitude alpha"),
        ("fock_converge", {"alpha": 0, "beta": [0, 1.4e154], "n_list": [1]}, EXIT_NUMERICAL, "fock_converge: coherent amplitude beta"),
        ("detect", {**TWO_LEVEL, "n_samples": True}, EXIT_CONFIG, "n_samples: must be a positive integer"),
        ("sigma_affinity", {"r": 0.5, "n_list": [0, 5], "phi": {"fock": True}}, EXIT_CONFIG, "phi.fock: must be a nonnegative integer"),
        ("detect", {**TWO_LEVEL, "n_samples": 10**15}, EXIT_CONFIG, "n_samples: 1000000000000000 exceeds"),
        # at alpha = 1e-16, 1 - alpha/2 rounds to 1
        ("detect", {**TWO_LEVEL, "n_samples": 10, "alpha": 1e-16}, EXIT_CONFIG, "alpha: must lie strictly between 2**-53 and 1"),
        ("scan", {"grid_step": 1e-15}, EXIT_CONFIG, "grid_step: must lie in [0.0002, 0.1]"),
        ("steer", {"ensemble": {"members": [[1, [1] + [0] * 99_999]]}}, EXIT_CONFIG, "ensemble.members: dimension 100000 exceeds"),
        ("tau", {"psi": [0, 0], "phi": [1, 0]}, EXIT_CONFIG, "psi: amplitude list has zero norm"),
        # no command: the parameters are the whole document
        (None, [1], EXIT_CONFIG, "top level: expected a JSON object"),
    ]

    @pytest.mark.parametrize("command,parameters,code,message", CASES)
    def test_config_exits_cleanly(self, tmp_path, capsys, command, parameters, code, message):
        doc = parameters if command is None else {"command": command, "seed": 0, "parameters": parameters}
        exit_code, out = run_doc(tmp_path, doc)
        err = capsys.readouterr().err
        assert exit_code == code
        prefix = "config error: " if code == EXIT_CONFIG else "numerical failure: "
        assert err.startswith(prefix + message), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values,parameters,prob_split",
        [
            # gap**2 once overflowed in the sample-size estimate, with a raw errno tuple
            ([0, 2e299, 1], {"p1": 0.376, "p2": 0.272, "lambda": 0.206}, "1.1736960000000007e+299"),
            # once wrote an artifact with a negative prob_split
            ([0, -1], {"p1": 0.7, "p2": 0.75, "lambda": 0.4}, "-0.7300000000000004"),
        ],
        ids=["huge", "negative"],
    )
    def test_detect_names_a_rule_whose_values_are_not_probabilities(self, tmp_path, capsys, values, parameters, prob_split):
        doc = {
            "command": "detect",
            "rule": {"kind": "custom", "values": values},
            "seed": 0,
            "parameters": {**parameters, "n_samples": 1000},
        }
        exit_code, out = run_doc(tmp_path, doc)
        assert exit_code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"numerical failure: detect: prob_split = {prob_split} lies outside [0, 1]: "
            "the rule's values are not probabilities\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "rule,parameters",
        [
            # a near-degenerate pair, and a tiny lambda: before hjw_povm took its
            # measurement from two SVDs, a member effect's top eigenvalue landed
            # past 1 on each (ROADMAP item 2)
            ({"kind": "power", "alpha": 2.0}, {"p1": 0.32973171649909216, "p2": 0.3299047737211492, "lambda": 0.303194829291645}),
            ({"kind": "piecewise_affine", "knots": [[0, 0], [0.5, 0.4], [1, 1]]}, {"p1": 0.2, "p2": 0.8, "lambda": 5e-13}),
            # |p1 - p2| = 1e-9: when steering_setup purified the barycenter
            # by eigh, which fixes its small Schmidt direction only to about
            # sqrt(eps), this one failed hjw_povm's support check by 1.008e-08
            # (3 of 20000 seeded draws)
            ({"kind": "power", "alpha": 2.0}, {"p1": 0.5043802736034718, "p2": 0.5043802746034718, "lambda": 0.9536404131285385}),
        ],
        ids=["near_degenerate", "tiny_lambda", "nearly_equal"],
    )
    def test_near_pure_experiment_writes_its_gap(self, tmp_path, rule, parameters):
        doc = {"command": "experiment", "rule": rule, "seed": 0, "parameters": parameters}
        exit_code, out = run_doc(tmp_path, doc)
        assert exit_code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        row = dict(zip(lines[-2].split(","), lines[-1].split(",")))
        analytic = signaling.jensen_gap(PhiRule.from_dict(rule), parameters["p1"], parameters["p2"], parameters["lambda"])
        assert abs(float(row["gap"]) - analytic) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_rotated_near_pure_ensemble_steers_like_its_unrotated_copy(self, tmp_path, seed):
        # k members within 1e-8 of |0>, and their copies turned by a Haar
        # unitary U. When steering_setup purified the barycenter by eigh,
        # the rotated copies' small Schmidt directions were fixed only to
        # about sqrt(eps), and the measurement missed completeness. Steering
        # commutes with U (ROADMAP item 20), so both must steer with the
        # same probabilities
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, d + 2))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        members = 1e-8 * (rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))
        members[:, 0] = 1.0
        members /= np.linalg.norm(members, axis=1)[:, None]
        probabilities = []
        for name, rows in (("unrotated", members), ("rotated", members @ u.T)):
            ensemble = {"members": [[1 / k, [[z.real, z.imag] for z in row]] for row in rows]}
            doc = {"command": "steer", "seed": 0, "parameters": {"ensemble": ensemble}, "output": {"format": "json"}}
            exit_code, out = run_doc(tmp_path, doc, name)
            assert exit_code == EXIT_OK, name
            table = json.loads(out.read_text(encoding="utf-8"))
            columns = {c: [row[i] for row in table["rows"]] for i, c in enumerate(table["columns"])}
            assert np.max(np.abs(np.array(columns["probability"][:k]) - 1 / k)) <= 1e-8
            assert min(columns["fidelity_to_target"][:k]) >= 1.0 - 1e-8
            probabilities.append(np.array(columns["probability"]))
        assert probabilities[0].shape == probabilities[1].shape
        assert np.max(np.abs(probabilities[0] - probabilities[1])) <= 1e-8

    def test_a_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        config = tmp_path / "latin1.json"
        config.write_bytes(b'{"command": "jensen", "note": "\xe9"}')
        assert main(["--config", str(config), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {config}: not UTF-8 text: ")

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_a_config_that_cannot_be_read_exits_two(self, tmp_path, capsys, name):
        config = tmp_path / name
        assert main(["--config", str(config), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {config}: cannot be read: ")

    def test_detect_alpha_range_ends_at_2_to_the_minus_53(self, tmp_path):
        # 2**-53 is the largest alpha for which 1 - alpha/2 rounds to 1
        def run(alpha):
            parameters = {"p1": 0.2, "p2": 0.7, "lambda": 0.4, "n_samples": 100, "alpha": alpha}
            doc = {"command": "detect", "rule": {"kind": "power", "alpha": 2.0}, "seed": 0, "parameters": parameters}
            return run_doc(tmp_path, doc)[0]

        assert run(2.0**-53) == EXIT_CONFIG
        assert run(float(np.nextafter(2.0**-53, 1.0))) == EXIT_OK

    @pytest.mark.parametrize("spec", [[1], "power", None, 2.0])
    def test_rule_that_is_not_an_object(self, tmp_path, capsys, spec):
        assert run_doc(tmp_path, {"command": "jensen", "rule": spec, "parameters": TWO_LEVEL})[0] == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: rule: expected a JSON object\n"

    @pytest.mark.parametrize(
        "kind,message",
        [
            ("power", "power rule needs a positive finite exponent"),
            ("piecewise_affine", "piecewise rule needs at least two knots"),
            ("custom", "custom rule needs tabulated values"),
        ],
    )
    def test_rule_without_its_parameter_names_it(self, tmp_path, capsys, kind, message):
        assert run_doc(tmp_path, {"command": "jensen", "rule": {"kind": kind}, "parameters": TWO_LEVEL})[0] == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: rule: {message}\n"

    def test_steer_ignores_a_kind_key(self, tmp_path, capsys):
        # an ensemble has no kind: a kind key is ignored like any other
        # unrecognised key, and a steered ensemble's tail must be 0
        ensemble = {"kind": "bogus", "members": [[1, [1, 0]]]}
        assert run_doc(tmp_path, {"command": "steer", "parameters": {"ensemble": ensemble}}, "bogus")[0] == EXIT_OK
        ensemble = {"kind": "truncated_countable", "members": [[0.75, [1, 0]]], "tail_weight": 0.25}
        assert run_doc(tmp_path, {"command": "steer", "parameters": {"ensemble": ensemble}})[0] == EXIT_CONFIG
        assert "ensemble.tail_weight: must be 0" in capsys.readouterr().err

    def test_quiet_keeps_the_numerical_failure_message(self, tmp_path, capsys):
        doc = {"command": "fock_converge", "seed": 0, "parameters": {"alpha": 40, "beta": 0, "n_list": [5]}}
        assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "f.csv"), "--quiet"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: fock_converge: ")

    def test_unwritable_output_path_exits_two(self, tmp_path, capsys):
        doc = {"command": "jensen", "seed": 0, "parameters": TWO_LEVEL}
        assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: output.path: ")

    @pytest.mark.parametrize("path", ["x\u0000y", "x\ud800.csv"])
    def test_output_path_that_open_refuses_exits_two(self, tmp_path, capsys, monkeypatch, path):
        # open() raises ValueError, not OSError, for a NUL byte or a lone surrogate
        monkeypatch.chdir(tmp_path)
        doc = {"command": "jensen", "seed": 0, "parameters": TWO_LEVEL, "output": {"path": path}}
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: output.path: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "rule,message",
        [
            ({"kind": "power", "alpha": "2"}, "alpha: expected numbers, got a string"),
            ({"kind": "piecewise_affine", "knots": [[0, 0], ["0.5", "0.7"], [1, 1]]}, "knots: expected numbers, got a string"),
            ({"kind": "piecewise_affine", "knots": [[0, 0], [1, 1, 5]]}, "knots: expected a list of [x, y] pairs"),
            ({"kind": "custom", "values": ["0", "0.25", "1"]}, "values: expected numbers, got a string"),
            ({"kind": "power", "alpha": [2]}, "alpha: expected numbers, got an array"),
            ({"kind": "power", "alpha": {"value": 2}}, "alpha: expected numbers, got an object"),
            ({"kind": "piecewise_affine", "knots": [[0, 0], [0.5, [2, 3]], [1, 1]]}, "knots: expected numbers, got an array"),
            ({"kind": "piecewise_affine", "knots": [[0, 0], [0.5, None], [1, 1]]}, "knots: expected numbers, got null"),
            ({"kind": "custom", "values": [0, None, 1]}, "values: expected numbers, got null"),
            ({"kind": "custom", "values": [0, [0.5], 1]}, "values: expected numbers, got an array"),
            ({"kind": "custom", "values": [0, {}, 1]}, "values: expected numbers, got an object"),
            ({"kind": "custom", "values": {"a": 1, "b": 2}}, "values: expected numbers, got an object"),
            ({"kind": "piecewise_affine", "knots": [{"x": 0, "y": 0}, {"x": 1, "y": 1}]}, "knots: expected a list of [x, y] pairs"),
            ({"kind": "piecewise_affine", "knots": {"ab": [0, 0], "cd": [1, 1]}}, "knots: expected a list of [x, y] pairs"),
            # a null parameter is a missing one
            ({"kind": "power", "alpha": None}, "power rule needs a positive finite exponent"),
        ],
    )
    def test_rule_parameter_that_is_not_a_number_names_its_key(self, tmp_path, capsys, rule, message):
        assert run_doc(tmp_path, {"command": "jensen", "rule": rule, "parameters": TWO_LEVEL})[0] == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: rule: {message}\n"


class TestFlagsAreConfigFields:
    """--seed, --out and --format replace the config's seed, output.path and
    output.format before those fields are read, and are checked like them."""

    @pytest.mark.parametrize("from_flag", [True, False])
    def test_negative_seed_exits_two_naming_the_field(self, tmp_path, capsys, from_flag):
        doc = {"command": "detect", "seed": 0 if from_flag else -1, "parameters": {**TWO_LEVEL, "n_samples": 10}}
        flags = ["--seed", "-1"] if from_flag else []
        assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "d.json"), *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: seed: must be a nonnegative integer\n"
        assert not (tmp_path / "d.json").exists()

    def test_unknown_format_exits_two_naming_the_field(self, tmp_path, capsys):
        path = write_config(tmp_path, jensen_doc(tmp_path / "j.csv"))
        assert main(["--config", str(path), "--format", "xml"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: output.format: expected csv or json, got 'xml'\n"

    def test_seed_flag_on_a_seedless_config_warns_nothing(self, tmp_path, capsys):
        out = tmp_path / "j.csv"
        doc = jensen_doc(out)
        del doc["seed"]
        assert main(["--config", str(write_config(tmp_path, doc)), "--seed", "7", "--quiet"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert "# seed=7" in out.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize(
        "command,parameters,fmt",
        [("jensen", TWO_LEVEL, "json"), ("detect", {**TWO_LEVEL, "n_samples": 10}, "csv")],
    )
    def test_default_path_follows_the_format_flag(self, tmp_path, monkeypatch, command, parameters, fmt):
        monkeypatch.chdir(tmp_path)
        doc = {"command": command, "seed": 0, "parameters": parameters}
        assert main(["--config", str(write_config(tmp_path, doc)), "--format", fmt, "--quiet"]) == EXIT_OK
        written = sorted(p.name for p in tmp_path.iterdir() if p.name != "config.json")
        assert written == [f"{command}.{fmt}"]
        text = (tmp_path / f"{command}.{fmt}").read_text(encoding="utf-8")
        if fmt == "json":
            assert json.loads(text)["metadata"]["command"] == command
        else:
            assert text.startswith("# tool_version=")

    @pytest.mark.parametrize(
        "name,doc,flags",
        [
            ("jensen.json", {"command": "jensen", "parameters": TWO_LEVEL}, ["--format", "json"]),
            ("detect.json", {"command": "detect", "parameters": {**TWO_LEVEL, "n_samples": 10}}, []),
            ("jensen.json", jensen_doc("out.csv"), ["--out", "./jensen.json"]),
            ("run.json", {"command": "jensen", "parameters": TWO_LEVEL, "output": {"path": "run.json"}}, []),
        ],
    )
    def test_output_path_naming_the_config_exits_two(self, tmp_path, monkeypatch, capsys, name, doc, flags):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, doc, name)
        before = config.read_bytes()
        assert main(["--config", name, *flags, "--quiet"]) == EXIT_CONFIG
        path = flags[-1] if "--out" in flags else name
        assert capsys.readouterr().err == f"config error: output.path: {path!r} is the config file\n"
        assert config.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_flags_reach_the_validated_config_which_is_frozen(self):
        text = json.dumps({"command": "jensen", "parameters": TWO_LEVEL})
        config = validate(text, seed=5, output_path="a.out", output_format="json")
        assert (config.seed, config.output_path, config.output_format, config.warnings) == (5, "a.out", "json", ())
        with pytest.raises(AttributeError):
            config.seed = 6


class TestLevelCap:
    """Cutoffs and the Fock index stop at MAX_CUTOFF, and an amplitude-list
    phi at the MAX_CUTOFF + 1 entries that level needs: the time, not the
    memory, of the worst config within it is the bound."""

    @pytest.mark.parametrize(
        "command,parameters,field",
        [
            ("sigma_affinity", {"r": 0.5, "n_list": [0, MAX_CUTOFF + 1]}, "n_list[1]"),
            ("sigma_affinity", {"r": 0.5, "n_list": [0, 5], "phi": {"fock": MAX_CUTOFF + 1}}, "phi.fock"),
            ("sigma_affinity", {"r": 0.5, "n_list": [10**4]}, "n_list[0]"),
            ("sigma_affinity", {"r": 0.5, "n_list": [5], "phi": [1] + [0] * (MAX_CUTOFF + 1)}, "phi"),
            ("fock_converge", {"alpha": 0.5, "beta": 1.0, "n_list": [5, 10**6]}, "n_list[1]"),
        ],
    )
    def test_past_the_cap_exits_two_naming_the_field(self, tmp_path, capsys, command, parameters, field):
        exit_code, out = run_doc(tmp_path, {"command": command, "seed": 0, "parameters": parameters})
        assert exit_code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and f"largest allowed level {MAX_CUTOFF}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,parameters",
        [
            ("sigma_affinity", {"r": 0.5, "n_list": [0, MAX_CUTOFF], "phi": {"fock": MAX_CUTOFF}}),
            ("sigma_affinity", {"r": 0.5, "n_list": [5], "phi": [1] + [0] * MAX_CUTOFF}),
            ("fock_converge", {"alpha": 0.5, "beta": 1.0, "n_list": [5, MAX_CUTOFF]}),
        ],
    )
    def test_the_cap_itself_is_accepted(self, tmp_path, command, parameters):
        exit_code, out = run_doc(tmp_path, {"command": command, "seed": 0, "parameters": parameters})
        assert exit_code == EXIT_OK
        assert out.exists()


def basis_members(dim, count):
    """``count`` equal-weight members cycling through the basis of C^dim."""
    return [[1 / count, [0] * (i % dim) + [1] + [0] * (dim - 1 - i % dim)] for i in range(count)]


class TestSizeCaps:
    """detect's n_samples, scan's grid_step and steer's member count, member
    dimension and members * dimension**2 are capped so that a config runs in
    about a second: one past each cap exits 2 naming the field, the cap
    itself runs. The config file itself is capped at MAX_CONFIG_BYTES."""

    MEMBERS_AT_DIM_CAP = MAX_STEER_ENTRIES // MAX_MEMBER_DIM**2

    @pytest.mark.parametrize(
        "command,parameters,message",
        [
            ("detect", {**TWO_LEVEL, "n_samples": MAX_SAMPLES + 1}, f"n_samples: {MAX_SAMPLES + 1} exceeds the largest allowed sample count"),
            ("scan", {"grid_step": MIN_GRID_STEP * 0.999}, f"grid_step: must lie in [{MIN_GRID_STEP}, 0.1]"),
            (
                "steer",
                {"ensemble": {"members": basis_members(MAX_MEMBER_DIM + 1, 1)}},
                f"ensemble.members: dimension {MAX_MEMBER_DIM + 1} exceeds the largest allowed {MAX_MEMBER_DIM}",
            ),
            (
                "steer",
                {"ensemble": {"members": basis_members(MAX_MEMBER_DIM, MEMBERS_AT_DIM_CAP + 1)}},
                f"ensemble.members: {MEMBERS_AT_DIM_CAP + 1} members of dimension {MAX_MEMBER_DIM} exceed",
            ),
            (
                "steer",
                {"ensemble": {"members": basis_members(2, MAX_MEMBERS + 1)}},
                f"ensemble.members: {MAX_MEMBERS + 1} exceeds the largest allowed member count {MAX_MEMBERS}",
            ),
        ],
    )
    def test_past_the_cap_exits_two_naming_the_field(self, tmp_path, capsys, command, parameters, message):
        exit_code, out = run_doc(tmp_path, {"command": command, "seed": 0, "parameters": parameters})
        assert exit_code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,parameters",
        [
            ("detect", {**TWO_LEVEL, "n_samples": MAX_SAMPLES}),
            ("scan", {"grid_step": MIN_GRID_STEP}),
            ("steer", {"ensemble": {"members": basis_members(MAX_MEMBER_DIM, MEMBERS_AT_DIM_CAP)}}),
            ("steer", {"ensemble": {"members": basis_members(2, MAX_MEMBERS)}}),
        ],
    )
    def test_the_cap_itself_is_accepted(self, tmp_path, command, parameters):
        exit_code, out = run_doc(tmp_path, {"command": command, "seed": 0, "parameters": parameters})
        assert exit_code == EXIT_OK
        assert out.exists()

    def test_the_member_count_is_checked_before_any_member(self):
        # no member is read, so none of the malformed ones is named
        doc = {"command": "steer", "parameters": {"ensemble": {"members": [["w", "x"]] * (MAX_MEMBERS + 1)}}}
        with pytest.raises(ConfigValidationError) as excinfo:
            validate(json.dumps(doc))
        assert excinfo.value.errors == [f"ensemble.members: {MAX_MEMBERS + 1} exceeds the largest allowed member count {MAX_MEMBERS}"]

    def test_a_config_past_the_byte_cap_exits_two_before_it_is_decoded(self, tmp_path, capsys):
        # padded with spaces, the cap itself still decodes and runs; one more
        # character, even in a document that is no JSON at all, is not read
        text = json.dumps({"command": "jensen", "seed": 0, "parameters": TWO_LEVEL})
        config = tmp_path / "padded.json"
        config.write_text(text + " " * (MAX_CONFIG_BYTES - len(text)), encoding="utf-8")
        out = tmp_path / "padded.csv"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK and out.exists()
        config.write_text("[" * (MAX_CONFIG_BYTES + 1), encoding="utf-8")
        out.unlink()
        assert main(["--config", str(config), "--out", str(out)]) == EXIT_CONFIG and not out.exists()
        message = f"config error: {config}: longer than the largest allowed {MAX_CONFIG_BYTES} characters\n"
        assert capsys.readouterr().err == message


def nested(leaf: str, depth: int) -> str:
    return "[" * depth + leaf + "]" * depth


class TestDeepNesting:
    """The JSON decoder recurses once per nested list or object, number
    hooks included: a config nested past its limit is a config error, not a
    RecursionError. The depth at which it fails depends on the Python
    version (about 990 levels on 3.10 and 3.11, where the decoder counts
    against ``sys.getrecursionlimit()``; from 3.12 the C recursion limit
    applies, about 1500 on 3.12.1 and 10 000 on 3.13.0), so the shapes
    that must name the nesting go 100 000 deep."""

    NESTING = "config error: nesting: lists and objects nest deeper than the JSON decoder's recursion limit\n"
    TAU = '{"command": "tau", "seed": 0, "parameters": {"psi": %s, "phi": [1, 0]}}'

    def run_text(self, tmp_path, text):
        config, out = tmp_path / "deep.json", tmp_path / "deep.csv"
        config.write_text(text, encoding="utf-8")
        code = main(["--config", str(config), "--out", str(out), "--quiet"])
        assert not out.exists()
        return code

    @pytest.mark.parametrize(
        "text",
        [
            TAU % nested("1", 100_000),
            nested("", 100_000),
            '{"command": "jensen", "seed": 0, "rule": %s1%s, "parameters": {"p1": 0.2, "p2": 0.9, "lambda": 0.3}}'
            % ('{"a": ' * 100_000, "}" * 100_000),
        ],
        ids=["tau_psi", "bare_lists", "rule_objects"],
    )
    def test_past_the_limit_exits_two_naming_the_nesting(self, tmp_path, capsys, text):
        assert self.run_text(tmp_path, text) == EXIT_CONFIG
        assert capsys.readouterr().err == self.NESTING

    def test_under_the_limit_names_the_entry(self, tmp_path, capsys):
        assert self.run_text(tmp_path, self.TAU % nested("1", 900)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: psi[0]: expected a number or [re, im] pair") and err.count("\n") == 1

    @pytest.mark.parametrize("leaf", ["1", "1.0"])
    def test_every_depth_around_the_limit_exits_two(self, tmp_path, capsys, leaf):
        # on 3.10 and 3.11 the limit falls inside this range, a few levels
        # earlier for an int leaf (the integer hook is called at the deepest
        # level) than for a float leaf; later versions decode every depth
        # here and name psi[0]. Either way: exit 2, one config error line
        for depth in range(900, 1101):
            assert self.run_text(tmp_path, self.TAU % nested(leaf, depth)) == EXIT_CONFIG, depth
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, (depth, err[:80])


class TestBooleansAreNotNumbers:
    # (command, parameters, field as named in the error); each parameter set
    # is valid with the boolean replaced by a number
    CASES = [
        ("jensen", {**TWO_LEVEL, "p1": True}, "p1"),
        ("jensen", {**TWO_LEVEL, "p2": False}, "p2"),
        ("experiment", {**TWO_LEVEL, "lambda": True}, "lambda"),
        ("detect", {**TWO_LEVEL, "n_samples": True}, "n_samples"),
        ("detect", {**TWO_LEVEL, "n_samples": 10, "alpha": True}, "alpha"),
        ("experiment", {**TWO_LEVEL, "p2": True}, "p2"),
        ("scan", {"grid_step": True}, "grid_step"),
        ("scan", {"gap_tolerance": True}, "gap_tolerance"),
        ("sigma_affinity", {"r": True, "n_list": [0, 5]}, "r"),
        ("sigma_affinity", {"r": 0.5, "n_list": [0, True]}, "n_list[1]"),
        ("sigma_affinity", {"r": 0.5, "n_list": [0, 5], "phi": {"fock": False}}, "phi.fock"),
        ("fock_converge", {"alpha": 0, "beta": 1, "n_list": [False, 5]}, "n_list[0]"),
        ("steer", {"ensemble": {"members": [[True, [1, 0]]]}}, "ensemble.members[0].weight"),
        ("steer", {"ensemble": {"members": [[1, [1, 0]]], "tail_weight": False}}, "ensemble.tail_weight"),
    ]

    @pytest.mark.parametrize("command,parameters,field", CASES)
    def test_boolean_is_a_config_error_naming_the_field(self, command, parameters, field):
        with pytest.raises(ConfigValidationError) as excinfo:
            validate(json.dumps({"command": command, "seed": 0, "parameters": parameters}))
        assert [e for e in excinfo.value.errors if e.startswith(f"{field}: ")], excinfo.value.errors

    @pytest.mark.parametrize(
        "rule,field",
        [
            ({"kind": "power", "alpha": True}, "alpha"),
            ({"kind": "piecewise_affine", "knots": [[0, 0], [1, True]]}, "knots"),
            ({"kind": "custom", "values": [0, True]}, "values"),
        ],
    )
    def test_boolean_in_a_rule_is_a_config_error_naming_the_field(self, tmp_path, capsys, rule, field):
        assert run_doc(tmp_path, {"command": "jensen", "rule": rule, "parameters": TWO_LEVEL})[0] == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: rule: {field}: expected numbers, got a boolean\n"

    def test_boolean_seed(self):
        with pytest.raises(ConfigValidationError, match="seed: must be a nonnegative integer"):
            validate(json.dumps({"command": "jensen", "seed": True, "parameters": TWO_LEVEL}))

    def test_amplitude_lists_still_accept_booleans(self):
        config = validate(json.dumps({"command": "tau", "seed": 0, "parameters": {"psi": [True, 0], "phi": [0, 1]}}))
        assert config.args["psi"].amplitudes.tolist() == [1, 0]
