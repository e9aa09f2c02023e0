#!/usr/bin/env python3
"""SHA-256 of every benchmark artifact, one line per CLI call, each checked.

Writes the configs of every benchmark workload at seeds 1, 2 and 3 with the
benchmark runner's own ``prepare`` (``perfbench/run.py``), runs each through
``bornlab.cli.main`` imported by the runner's ``load_program`` (so from that
source tree and nowhere else), runs the call's own check from
``perfbench/workloads.py`` on the artifact, and prints
``<sha256>  <workload>/<seed>/<call>`` lines in a fixed order. Two trees, or
two processes on one tree, write the same artifacts exactly when their
outputs are equal:

    python3 tools/artifact_digest.py > a.txt
    python3 tools/artifact_digest.py --tree ../other-tree > b.txt
    diff a.txt b.txt

``--tree ROOT`` digests the source tree at ROOT with that tree's own
``perfbench``; ``--keep DIR`` keeps the artifacts under
``DIR/<workload>/<seed>/`` for ``tools/artifact_delta.py``.

A call that exits non-zero prints ``exit-<code>`` in place of the digest,
and one whose artifact fails its check prints ``check-failed`` (the check's
message goes to stderr); the script then exits 1 after printing every line.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)


def digest_line(call, code: int, data: bytes | None) -> tuple[str, bool]:
    """The digest column for one call, and whether the call failed."""
    if code != 0:
        return f"exit-{code}", True
    try:
        call.check(data)
    except (AssertionError, KeyError, IndexError, TypeError, ValueError) as exc:
        print(f"artifact_digest: {call.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return "check-failed", True
    return hashlib.sha256(data).hexdigest(), False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="root of the source tree to digest (default: this one)")
    parser.add_argument("--keep", type=Path, help="directory to keep the artifacts in")
    args = parser.parse_args(argv)
    # the benchmark directory is read, never written: no bytecode cache there
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.tree.resolve() / "perfbench"))
    import run
    import workloads

    cli = run.load_program()
    failed = False
    with tempfile.TemporaryDirectory(prefix="artifact-digest-") as tmp:
        root = args.keep if args.keep is not None else Path(tmp)
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for op in run.prepare(workload, seed, root / workload / str(seed)):
                    for call, config, artifact in op:
                        artifact.unlink(missing_ok=True)
                        code = cli.main(["--config", str(config), "--quiet"])
                        digest, bad = digest_line(call, code, artifact.read_bytes() if code == 0 else None)
                        failed |= bad
                        print(f"{digest}  {workload}/{seed}/{call.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
