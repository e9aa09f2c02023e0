#!/usr/bin/env python3
"""Reference per-layer timings, called directly rather than through the CLI.

    python3 perfbench/layers.py
    OPENBLAS_NUM_THREADS=1 python3 perfbench/layers.py

Times constructor validation (a DensityMatrix of the barycenter), ``purify``,
``hjw_povm`` and ``steer`` for a full-rank ensemble of 2d Haar-random
members at d in {2, 4, 8, 16, 32, 64}, and ``scan_gaps`` of power(2) at grid
steps 0.01, 0.001 and 0.0005. Each figure is the median of repeats that
together take at least half a second. Prints a markdown table.
"""

from __future__ import annotations

import json
import statistics
import time

from run import environment, load_program

load_program()

from bornlab.linalg import DensityMatrix, haar_random_state, purify  # noqa: E402
from bornlab.rigidity import scan_gaps  # noqa: E402
from bornlab.rules import PhiRule  # noqa: E402
from bornlab.steering import Ensemble, barycenter, hjw_povm, steer  # noqa: E402

DIMS = (2, 4, 8, 16, 32, 64)
STEPS = (0.01, 0.001, 0.0005)


def median_ms(fn, budget_s: float = 0.5, min_repeats: int = 5) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_repeats or time.perf_counter() - start < budget_s:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def main() -> None:
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print()
    print("| d | DensityMatrix(...) ms | purify ms | hjw_povm ms | steer ms |")
    print("| --- | --- | --- | --- | --- |")
    for d in DIMS:
        members = tuple((1.0 / (2 * d), haar_random_state(d, 1000 * d + i)) for i in range(2 * d))
        ensemble = Ensemble(members=members)
        omega = barycenter(ensemble)
        psi = purify(omega)
        povm = hjw_povm(psi, ensemble)
        row = [
            median_ms(lambda: DensityMatrix(omega.matrix)),
            median_ms(lambda: purify(omega)),
            median_ms(lambda: hjw_povm(psi, ensemble)),
            median_ms(lambda: steer(psi, povm)),
        ]
        print(f"| {d} | " + " | ".join(f"{v:.3f}" for v in row) + " |")
    print()
    print("| scan_gaps power(2), grid step | ms |")
    print("| --- | --- |")
    rule = PhiRule.power(2.0)
    for step in STEPS:
        print(f"| {step:g} | {median_ms(lambda: scan_gaps(rule, step)):.1f} |")


if __name__ == "__main__":
    main()
