"""The README's examples run as written and give the values its comments
state."""

import ast
from pathlib import Path

import numpy as np

from bornlab.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"

# the commented value of each bare expression in the quick start, in order
QUICK_START_VALUES = [0.5, 0.5, 0.25, 0.0, (0.0, 1.0, 0.5)]


def code_block(heading: str, language: str) -> str:
    """The first ``language`` code block after ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_quick_start_gives_its_commented_values():
    namespace: dict = {}
    values = []
    for statement in ast.parse(code_block("## Python quick start", "python")).body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace))
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), str(README), "exec"), namespace)
    assert len(values) == len(QUICK_START_VALUES)
    for got, want in zip(values, QUICK_START_VALUES):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)


def test_example_config_runs(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(code_block("## CLI", "json"), encoding="utf-8")
    out = tmp_path / "experiment.csv"
    assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    assert out.read_text(encoding="utf-8").startswith("# tool_version=")
