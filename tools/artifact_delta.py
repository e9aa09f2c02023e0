#!/usr/bin/env python3
"""Where two artifact trees differ, and by how much.

Compares two directories of bornlab artifacts, such as two
``tools/artifact_digest.py --keep DIR`` runs of different source trees:

    python3 tools/artifact_digest.py --tree ../parent --keep /tmp/a > /dev/null
    python3 tools/artifact_digest.py --keep /tmp/b > /dev/null
    python3 tools/artifact_delta.py /tmp/a /tmp/b

Files are matched by their path under each root; configs (``*.config.json``)
are skipped, since they name their own output paths. For each file whose
bytes differ it prints the file, then one line per CSV column or JSON leaf
that differs: the largest |delta| over the column's rows when both sides are
numbers, with the largest relative |delta| / max(|a|, |b|) beside it, or the
first differing pair of values otherwise. A last table gives both largest
deltas per column or leaf name over all files. Exits 0 when the
trees hold the same bytes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple


def _csv_cells(data: bytes) -> dict[str, list[str]]:
    """Each column's cells, and each ``# key=value`` metadata line as a
    one-cell column named ``# key``."""
    lines = data.decode("utf-8").splitlines()
    cells = {f"# {key}": [value] for key, _, value in (line[2:].partition("=") for line in lines if line.startswith("# "))}
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if rows:
        header, body = rows[0], rows[1:]
        for i, name in enumerate(header):
            cells[name] = [row[i] if i < len(row) else "" for row in body]
    return cells


def _json_cells(data: bytes) -> dict[str, list]:
    """Each leaf of the document, as a one-value column named by its path."""
    cells: dict[str, list] = {}

    def walk(value, path: str) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        else:
            cells[path] = [value]

    walk(json.loads(data.decode("utf-8")), "")
    return cells


def _number(value) -> float | None:
    """A finite number from a JSON number or a CSV cell, else None."""
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


class Delta(NamedTuple):
    """The largest |a - b| and the largest |a - b| / max(|a|, |b|) over a
    column's differing pairs of numbers."""

    absolute: float
    relative: float

    def merge(self, other: "Delta") -> "Delta":
        return Delta(max(self.absolute, other.absolute), max(self.relative, other.relative))


def column_deltas(a: dict[str, list], b: dict[str, list]) -> dict[str, Delta | str]:
    """Per differing column: its largest deltas if every differing pair of
    cells is numeric, else a text note of the first non-numeric difference."""
    out: dict[str, Delta | str] = {}
    for name in sorted(a.keys() | b.keys()):
        left, right = a.get(name), b.get(name)
        if left is None or right is None:
            out[name] = "only in " + ("the first" if right is None else "the second")
            continue
        if len(left) != len(right):
            out[name] = f"{len(left)} rows against {len(right)}"
            continue
        deltas, note = [], None
        for x, y in zip(left, right):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                note = f"{x!r} -> {y!r}"
                break
            gap = abs(fx - fy)
            deltas.append(Delta(gap, gap / max(abs(fx), abs(fy)) if gap else 0.0))
        if note is not None:
            out[name] = note
        elif deltas:
            out[name] = functools.reduce(Delta.merge, deltas)
    return out


def compare(root_a: Path, root_b: Path) -> list[tuple[str, dict[str, Delta | str]]]:
    """(relative path, column deltas) for every artifact that differs."""
    files = {
        p.relative_to(root).as_posix()
        for root in (root_a, root_b)
        for p in root.rglob("*")
        if p.is_file() and not p.name.endswith(".config.json")
    }
    changed = []
    for rel in sorted(files):
        pa, pb = root_a / rel, root_b / rel
        if not (pa.is_file() and pb.is_file()):
            changed.append((rel, {"(file)": "only in " + ("the first" if pa.is_file() else "the second")}))
            continue
        da, db = pa.read_bytes(), pb.read_bytes()
        if da == db:
            continue
        read = _json_cells if rel.endswith(".json") else _csv_cells
        changed.append((rel, column_deltas(read(da), read(db)) or {"(bytes)": "differ, values equal"}))
    return changed


def _show(delta: Delta | str) -> str:
    return f"|delta| {delta.absolute:.3g}, relative {delta.relative:.3g}" if isinstance(delta, Delta) else delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    changed = compare(args.first, args.second)
    largest: dict[str, Delta] = {}
    text: set[str] = set()
    for rel, deltas in changed:
        print(rel)
        for name, delta in deltas.items():
            print(f"  {name}: {_show(delta)}")
            if isinstance(delta, Delta):
                largest[name] = largest[name].merge(delta) if name in largest else delta
            else:
                text.add(name)
    if changed:
        print(f"{len(changed)} files differ; largest per column or leaf:")
        for name in sorted(largest.keys() | text):
            print(f"  {name}: {'text differs' if name in text else _show(largest[name])}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
