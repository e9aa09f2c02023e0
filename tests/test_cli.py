import argparse
import json
import sys

import numpy as np
import pytest

from bornlab import cli, linalg, rigidity, signaling, steering, transition
from bornlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_CUTOFF,
    MAX_MEMBER_DIM,
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
        assert "tau=0.5" in capsys.readouterr().out
        body = (tmp_path / "tau.csv").read_text(encoding="utf-8")
        assert "closed_form,0.5" in body
        assert "optimized,0.5" in body

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

    def test_numerical_failure_exits_three_with_artifact(self, tmp_path, capsys):
        inv = 2**-0.5
        out = tmp_path / "tau.csv"
        doc = {
            "command": "tau",
            "seed": 0,
            "parameters": {"psi": [inv, inv], "phi": [1.0, 0.0], "max_iters": 1},
            "output": {"path": str(out), "format": "csv"},
        }
        assert main(["--config", str(write_config(tmp_path, doc))]) == EXIT_NUMERICAL
        assert "non-convergence" in out.read_text(encoding="utf-8")
        assert "numerical failure" in capsys.readouterr().err


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
    """Members that convert together are parsed as one array; any other
    list takes the per-member route, so every error still names its member."""

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

    def test_both_routes_give_the_same_unit_rows(self):
        states = [haar_random_state(32, seed).amplitudes for seed in range(8)]
        pairs = [[1 / 8, [[z.real, z.imag] for z in s]] for s in states]
        # one real-number member sends every member down the per-member route
        mixed = [*pairs, [0.0, [1.0] + [0.0] * 31]]
        one = validate(json.dumps({"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": pairs}}}))
        each = validate(json.dumps({"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": mixed}}}))
        rows, per_member = one.args["ensemble"].amplitudes, each.args["ensemble"].amplitudes[:8]
        assert np.allclose(rows, per_member, rtol=0.0, atol=2.3e-16)
        assert np.allclose(rows, states, rtol=0.0, atol=1e-15)


class TestParseOnce:
    @pytest.mark.parametrize("form", ["pairs", "mixed"])
    def test_steer_constructions_do_not_grow_with_members(self, tmp_path, monkeypatch, form):
        # the members are parsed into one array and steered as one product:
        # only the barycenter is a checked value, for 32 members as for 64
        # (mixed forms take the per-member parse, which builds no state either)
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
        assert counts[0] == counts[1] == {"DensityMatrix": 1}

    def test_parameters_are_left_as_given(self):
        # amplitude lists become states once; scalars keep their JSON type,
        # and a default is filled in only for a field that is absent
        params = {"psi": [1.0, 0.0], "phi": [[0.6, 0.0], [0.0, 0.8]], "max_iters": 7}
        config = validate(json.dumps({"command": "tau", "seed": 0, "parameters": params}))
        assert sorted(config.args) == ["max_iters", "phi", "psi"]
        assert config.args["phi"].amplitudes.tolist() == [0.6 + 0j, 0.8j]
        assert config.args["max_iters"] == 7
        config = validate(json.dumps({"command": "detect", "seed": 0, "parameters": {"p1": 0, "p2": 1, "lambda": 0.5, "n_samples": 9}}))
        assert config.args == {"p1": 0, "p2": 1, "lam": 0.5, "n_samples": 9, "alpha": 0.05}
        assert [type(config.args[k]) for k in ("p1", "p2", "lam")] == [int, int, float]

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

        for module in (cli, signaling, steering):
            monkeypatch.setattr(module, "barycenter", recording)
        return handed_out

    def test_steer_forms_one_barycenter(self, tmp_path, monkeypatch):
        # purify and hjw_povm share the ensemble's barycenter: one product
        # over the 64 members, in one DensityMatrix that both receive
        members = [
            [1 / 64, [[z.real, z.imag] for z in haar_random_state(32, seed).amplitudes]]
            for seed in range(64)
        ]
        handed_out = self.record_barycenters(monkeypatch)
        doc = {"command": "steer", "seed": 0, "parameters": {"ensemble": {"members": members}}}
        exit_code, out = run_doc(tmp_path, doc)
        assert exit_code == EXIT_OK
        assert len(handed_out) == 2 and handed_out[0] is handed_out[1]
        assert len(out.read_text(encoding="utf-8").splitlines()) > 64

    def test_experiment_forms_the_mixture_barycenter_once(self, tmp_path, monkeypatch):
        # omega and the split ensemble are one Ensemble, whose cached
        # barycenter hjw_povm reuses
        handed_out = self.record_barycenters(monkeypatch)
        doc = {"command": "experiment", "seed": 0, "parameters": {"p1": 0.2, "p2": 0.7, "lambda": 0.4}}
        exit_code, _ = run_doc(tmp_path, doc)
        assert exit_code == EXIT_OK
        assert len(handed_out) == 2 and handed_out[0] is handed_out[1]

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
    each ends in exit 2 naming the field, or exit 3 naming the command."""

    CASES = [
        ("steer", {"ensemble": {"members": [[0.5, [1, 0]], [0.4, [0, 1]]]}}, EXIT_CONFIG, "ensemble: weights plus tail sum to 0.9"),
        ("steer", {"ensemble": {"members": [[0.5, [1, 0]], [0.5, [0, 1, 0]]]}}, EXIT_CONFIG, "ensemble: ensemble members have mismatched"),
        (
            "steer",
            {"ensemble": {"members": [[0.3, [1, 0, 0]], [0.21, [0, 1, 0]], [0.147, [0, 0, 1]]], "tail_weight": 0.343}},
            EXIT_CONFIG,
            "ensemble.tail_weight: must be 0",
        ),
        ("tau", {"psi": [1] * 17, "phi": [1] + [0] * 16}, EXIT_CONFIG, "psi/phi: 17 amplitudes exceed the optimizer's maximum dimension 16"),
        ("sigma_affinity", {"r": 0.5, "n_list": [0, 5, 10], "phi": [1, 0, 0]}, EXIT_CONFIG, "phi: 3 amplitudes"),
        ("fock_converge", {"alpha": 40, "beta": 0, "n_list": [5, 10]}, EXIT_NUMERICAL, "fock_converge: coherent amplitude alpha"),
        # past ~1.34e154 the float square |alpha|^2 overflows
        ("fock_converge", {"alpha": 1.4e154, "beta": 0, "n_list": [1]}, EXIT_NUMERICAL, "fock_converge: coherent amplitude alpha"),
        ("fock_converge", {"alpha": 0, "beta": [0, 1.4e154], "n_list": [1]}, EXIT_NUMERICAL, "fock_converge: coherent amplitude beta"),
        # the known near-degenerate hjw_povm failure (ROADMAP item 2): a
        # member effect's top eigenvalue lands 3.1e-9 above 1
        (
            "experiment",
            {"p1": 0.32973171649909216, "p2": 0.3299047737211492, "lambda": 0.303194829291645},
            EXIT_NUMERICAL,
            "experiment: effect spectrum [0.0, 1.0000000030812737] outside [0, 1]",
        ),
        ("detect", {**TWO_LEVEL, "n_samples": True}, EXIT_CONFIG, "n_samples: must be a positive integer"),
        ("sigma_affinity", {"r": 0.5, "n_list": [0, 5], "phi": {"fock": True}}, EXIT_CONFIG, "phi.fock: must be a nonnegative integer"),
        ("detect", {**TWO_LEVEL, "n_samples": 10**15}, EXIT_CONFIG, "n_samples: 1000000000000000 exceeds"),
        # at alpha = 1e-16, 1 - alpha/2 rounds to 1
        ("detect", {**TWO_LEVEL, "n_samples": 10, "alpha": 1e-16}, EXIT_CONFIG, "alpha: must lie strictly between 2**-53 and 1"),
        ("scan", {"grid_step": 1e-15}, EXIT_CONFIG, "grid_step: must lie in [0.0002, 0.1]"),
        ("steer", {"ensemble": {"members": [[1, [1] + [0] * 99_999]]}}, EXIT_CONFIG, "ensemble.members: dimension 100000 exceeds"),
    ]

    @pytest.mark.parametrize("command,parameters,code,message", CASES)
    def test_config_exits_cleanly(self, tmp_path, capsys, command, parameters, code, message):
        exit_code, out = run_doc(tmp_path, {"command": command, "seed": 0, "parameters": parameters})
        err = capsys.readouterr().err
        assert exit_code == code
        prefix = "config error: " if code == EXIT_CONFIG else "numerical failure: "
        assert err.startswith(prefix + message), err
        assert "Traceback" not in err
        assert not out.exists()

    def test_experiment_at_a_tiny_lambda_exits_three(self, tmp_path, capsys):
        # the small-lambda face of the same hjw_povm failure (ROADMAP item 2)
        rule = {"kind": "piecewise_affine", "knots": [[0, 0], [0.5, 0.4], [1, 1]]}
        doc = {"command": "experiment", "rule": rule, "seed": 0, "parameters": {"p1": 0.2, "p2": 0.8, "lambda": 5e-13}}
        exit_code, out = run_doc(tmp_path, doc)
        assert exit_code == EXIT_NUMERICAL and not out.exists()
        assert capsys.readouterr().err.startswith("numerical failure: experiment: effect spectrum [0.0, 1.000")

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
        # the ensemble's kind follows from its tail weight; a kind key is
        # ignored like any other unrecognised key
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
    """detect's n_samples, scan's grid_step and steer's member dimension and
    members * dimension**2 are capped so that a config runs in about a
    second: one past each cap exits 2 naming the field, the cap itself runs."""

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
        ],
    )
    def test_the_cap_itself_is_accepted(self, tmp_path, command, parameters):
        exit_code, out = run_doc(tmp_path, {"command": command, "seed": 0, "parameters": parameters})
        assert exit_code == EXIT_OK
        assert out.exists()


class TestBooleansAreNotNumbers:
    # (command, parameters, field as named in the error); each parameter set
    # is valid with the boolean replaced by a number
    CASES = [
        ("jensen", {**TWO_LEVEL, "p1": True}, "p1"),
        ("jensen", {**TWO_LEVEL, "p2": False}, "p2"),
        ("experiment", {**TWO_LEVEL, "lambda": True}, "lambda"),
        ("detect", {**TWO_LEVEL, "n_samples": True}, "n_samples"),
        ("detect", {**TWO_LEVEL, "n_samples": 10, "alpha": True}, "alpha"),
        ("tau", {"psi": [1, 0], "phi": [0, 1], "max_iters": True}, "max_iters"),
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


# one valid config per command, small enough that a mutant of it runs fast
FUZZ_BASES = {
    "tau": {"psi": [0.6, [0.0, 0.8]], "phi": [[1, 0], [0, 1]], "max_iters": 50},
    "steer": {"ensemble": {"members": [[0.5, [1, 0]], [0.25, [0.6, 0.8]], [0.25, [0, 1]]]}},
    "jensen": {"p1": 0.2, "p2": 0.9, "lambda": 0.3},
    "experiment": {"p1": 0.1, "p2": 0.7, "lambda": 0.6},
    "detect": {"p1": 0.2, "p2": 0.9, "lambda": 0.3, "n_samples": 500, "alpha": 0.05},
    "scan": {"grid_step": 0.05, "gap_tolerance": 1e-10},
    "fock_converge": {"alpha": [0.5, 0.25], "beta": 1.0, "n_list": [2, 8, 20]},
    "sigma_affinity": {"r": 0.4, "n_list": [0, 3, 9], "phi": {"fock": 1}},
}
FUZZ_RULES = [
    {"kind": "identity"},
    {"kind": "power", "alpha": 2.0},
    {"kind": "piecewise_affine", "knots": [[0, 0], [0.5, 0.3], [1, 1]]},
    {"kind": "custom", "values": [0, 0.2, 1]},
]
# Replacement values. No number lies in (0, 0.01), so a grid step stays
# >= 0.01; cutoffs, Fock indices and sample counts stay <= 60 unless they
# are too large for any array (10**19), and lists stay <= 16 entries.
FUZZ_VALUES = [-1, 0, 0.5, 1, 2, 7, 60, 1e300, -1e300, 10**19, True, False, None, "x", [], {}, [1], {"kind": "x"}]


def fuzz_paths(node, prefix=()):
    """Every (container, key) position in a config document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from fuzz_paths(child, prefix + (key,))


def mutate(doc, rng):
    paths = list(fuzz_paths(doc))
    path = paths[rng.integers(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    action = rng.integers(4)
    if action == 0:
        del parent[key]
    elif action == 1 and isinstance(value, list) and value:
        # a shorter or a longer list, the latter by repeating entries
        length = int(rng.integers(0, min(2 * len(value), 16) + 1))
        parent[key] = [json.loads(json.dumps(value[i % len(value)])) for i in range(length)]
    elif action == 2 and isinstance(value, dict):
        parent[key] = [value]
    else:
        parent[key] = FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]


class TestConfigFuzz:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", sorted(FUZZ_BASES))
    def test_mutated_configs_exit_zero_two_or_three(self, tmp_path, capsys, command):
        rng = linalg.make_rng(20260, stream=sorted(FUZZ_BASES).index(command))
        codes = []
        for case in range(40):
            doc = {
                "command": command,
                "seed": 1,
                "rule": FUZZ_RULES[case % len(FUZZ_RULES)],
                "parameters": FUZZ_BASES[command],
                "output": {"format": "json" if case % 2 else "csv"},
            }
            doc = json.loads(json.dumps(doc))
            for _ in range(1 + rng.integers(2)):
                mutate(doc, rng)
            code, _ = run_doc(tmp_path, doc, f"fuzz{case}")
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), (doc, err)
            assert "Traceback" not in err
            if code == EXIT_CONFIG:
                assert err.startswith("config error: ") or err.startswith("config: "), (doc, err)
            elif code == EXIT_NUMERICAL:
                assert f"numerical failure: {command}: " in err, (doc, err)
            codes.append(code)
        # the mutants reach the handlers as well as the checks
        assert EXIT_CONFIG in codes and EXIT_OK in codes
