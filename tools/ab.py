#!/usr/bin/env python3
"""Paired A/B runs of the benchmark on two source trees, with a sign test.

BASE and HEAD are each a directory, where one exists at that path, or else
a revision of this repository (read with ``git archive``). Each side is
copied once into a temporary directory, without ``.git``, ``__pycache__`` or
``perfbench/.work``, and byte-compiled there, so that neither side's imports
count compilation in ``setup_s`` or ``peak_rss_mb``. Pair i then runs

    python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0

in each copy, one run at a time: BASE first when i is even, HEAD first when
i is odd. The workloads, the run length and the metrics are read from the
base copy's ``BENCHMARK.json``:

    python3 tools/ab.py 0dbf107 . --workload qubit_round --pairs 10 --out BENCH_topic.json

For each workload and end-to-end metric it prints each side's median and
quartiles, HEAD's wins and the ties, the change of the median in %, the exact
two-sided sign-test p over the untied pairs, and one verdict:

- ``gain`` when p <= 0.05, HEAD wins at least nine tenths of all pairs
  (a tie is no win), and HEAD's median is better than BASE's, in the
  metric's ``better`` direction, by more than the distance between BASE's
  quartiles;
- ``worse`` when HEAD's median is worse than BASE's by more than the
  metric's ``bound``, taken as a fraction of BASE's median;
- ``not_shown`` otherwise.

``--out`` writes the record: the two sides (revisions resolved to commits),
the command, every run's result line and ``# environment`` line, and the
summary. A run that exits non-zero, reports ``"correct": false`` or fails an
op makes the tool exit 1 once every run is done and the record is written;
the verdicts do not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIGNIFICANCE = 0.05


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Summary and verdict of one metric over paired runs; ``base[i]`` and
    ``head[i]`` are the two sides of pair i."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (b - h) for b, h in zip(base, head)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    p = sign_test_p(wins, losses)
    b, h = spread(base), spread(head)
    improvement = sign * (b["median"] - h["median"])
    if p <= SIGNIFICANCE and 10 * wins >= 9 * len(gains) and improvement > b["q3"] - b["q1"]:
        verdict = "gain"
    elif -improvement > bound * abs(b["median"]):
        verdict = "worse"
    else:
        verdict = "not_shown"
    return {
        "base": b,
        "head": h,
        "pairs": len(gains),
        "head_wins": wins,
        "ties": len(gains) - wins - losses,
        "median_change_pct": 100.0 * (h["median"] / b["median"] - 1.0) if b["median"] else None,
        "sign_test_p": p,
        "verdict": verdict,
    }


def materialize(spec: str, dest: Path) -> dict:
    """Copy a directory, or extract a revision, into ``dest`` and byte-compile
    it; returns how the side was named and resolved."""
    source = Path(spec)
    if source.is_dir():
        def ignore(path: str, names: list[str]) -> set[str]:
            skip = {".git", "__pycache__"}
            if Path(path).resolve() == source.resolve() / "perfbench":
                skip.add(".work")
            return skip.intersection(names)

        shutil.copytree(source, dest, ignore=ignore)
        side = {"spec": spec, "directory": True}
    else:
        resolved = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}"],
                                  capture_output=True, text=True)
        if resolved.returncode:
            raise ValueError(f"{spec!r} is neither a directory nor a revision of {ROOT}")
        commit = resolved.stdout.strip()
        dest.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            raise subprocess.CalledProcessError(archive.returncode, archive.args)
        side = {"spec": spec, "commit": commit}
    # compileall writes bytecode whatever PYTHONDONTWRITEBYTECODE says
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True, stdout=subprocess.DEVNULL)
    return side


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its exit code, result line and
    ``# environment`` line, and whether it went wrong."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = {"exit_code": proc.returncode, "result": None, "environment": None}
    for line in lines:
        if line.startswith("# environment "):
            record["environment"] = json.loads(line[len("# environment "):])
    if lines and not lines[-1].startswith("#"):
        try:
            record["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    result = record["result"]
    record["ok"] = proc.returncode == 0 and isinstance(result, dict) and result.get("correct") is True \
        and result.get("failed") == 0
    if not record["ok"]:
        record["stderr_tail"] = proc.stderr.splitlines()[-20:]
    return record


def metric_value(run: dict, metric: str) -> float | None:
    try:
        return float(run["result"]["metrics"][metric]["value"])
    except (KeyError, TypeError, ValueError):
        return None


def summarize(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    summary = {}
    for workload in workloads:
        pairs: dict[int, dict] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        summary[workload] = {}
        for metric in metrics:
            name = metric["name"]
            values = [(metric_value(p.get("base", {}), name), metric_value(p.get("head", {}), name))
                      for _, p in sorted(pairs.items())]
            values = [(b, h) for b, h in values if b is not None and h is not None]
            if values:
                base, head = map(list, zip(*values))
                summary[workload][name] = compare(base, head, metric["better"], metric["bound"])
    return summary


def table(summary: dict) -> str:
    rows = [("workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins/ties/pairs",
             "change %", "p", "verdict")]
    for workload, by_metric in summary.items():
        for name, s in by_metric.items():
            b, h = s["base"], s["head"]
            change = s["median_change_pct"]
            rows.append((
                workload, name,
                f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]",
                f"{h['median']:.4g} [{h['q1']:.4g}, {h['q3']:.4g}]",
                f"{s['head_wins']}/{s['ties']}/{s['pairs']}",
                "-" if change is None else f"{change:+.1f}",
                f"{s['sign_test_p']:.3g}",
                s["verdict"],
            ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="directory, or revision of this repository")
    parser.add_argument("head", help="directory, or revision of this repository")
    parser.add_argument("--workload", nargs="+", action="extend",
                        help="workloads to run (default: every workload of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed-base", type=int, default=1, help="pair i runs seed SEED_BASE + i")
    parser.add_argument("--out", type=Path, help="where to write the JSON record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        try:
            sides = {name: materialize(spec, trees[name]) for name, spec in (("base", args.base), ("head", args.head))}
        except (OSError, ValueError, subprocess.CalledProcessError) as exc:
            print(f"ab: cannot prepare a side: {exc}", file=sys.stderr)
            return 2
        bench = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        known = [w["name"] for w in bench["workloads"]]
        workloads = list(dict.fromkeys(args.workload or known))
        unknown = sorted(set(workloads) - set(known))
        if unknown:
            parser.error(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json has {', '.join(known)}")
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds

        runs = []
        for workload in workloads:
            for i in range(args.pairs):
                seed = args.seed_base + i
                for position, side in enumerate(("base", "head") if i % 2 == 0 else ("head", "base")):
                    run = {"workload": workload, "pair": i, "seed": seed, "side": side, "position_in_pair": position,
                           **run_once(trees[side], workload, seed, seconds)}
                    runs.append(run)
                    status = "ok" if run["ok"] else f"FAILED (exit {run['exit_code']})"
                    print(f"ab: {workload} pair {i + 1}/{args.pairs} seed {seed} {side}: {status}", file=sys.stderr)

    summary = summarize(runs, workloads, bench["end_to_end"])
    if args.out:
        record = {
            "base": sides["base"],
            "head": sides["head"],
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed_base}+i --seconds {seconds:g} --trace 0",
            "pairs": args.pairs,
            "order": "pair i runs base first when i is even, head first when i is odd",
            "runs": runs,
            "summary": summary,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(table(summary))
    failed = [r for r in runs if not r["ok"]]
    for run in failed:
        print(f"ab: failed run: {run['workload']} pair {run['pair'] + 1} {run['side']} (exit {run['exit_code']})",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
