#!/usr/bin/env python3
"""SHA-256 of every benchmark artifact, one line per CLI call.

Writes the configs of every benchmark workload at seeds 1, 2 and 3 with the
benchmark runner's own ``prepare`` (``perfbench/run.py``), runs each through
``bornlab.cli.main`` imported by the runner's ``load_program`` (so from this
source tree and nowhere else), and prints
``<sha256>  <workload>/<seed>/<call>`` lines in a fixed order. Two trees, or
two processes on one tree, write the same artifacts exactly when their
outputs are equal:

    python3 tools/artifact_digest.py > a.txt
    (cd ../other-tree && python3 tools/artifact_digest.py) > b.txt
    diff a.txt b.txt

A call that exits non-zero prints ``exit-<code>`` in place of the digest,
and the script then exits 1 after printing every line.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

# the benchmark directory is read, never written: no bytecode cache there
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    cli = run.load_program()
    failed = False
    with tempfile.TemporaryDirectory(prefix="artifact-digest-") as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for op in run.prepare(workload, seed, Path(tmp) / workload / str(seed)):
                    for call, config, artifact in op:
                        artifact.unlink(missing_ok=True)
                        code = cli.main(["--config", str(config), "--quiet"])
                        failed |= code != 0
                        digest = hashlib.sha256(artifact.read_bytes()).hexdigest() if code == 0 else f"exit-{code}"
                        print(f"{digest}  {workload}/{seed}/{call.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
