import hashlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
