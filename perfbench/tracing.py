"""Per-layer tracing of bornlab from outside the program.

``Tracer.install`` replaces each traced function under every name a caller
can look it up by (``bornlab.cli.hjw_povm`` as well as
``bornlab.steering.hjw_povm``), and the constructors of the linalg types and
of ``PhiRule`` on their classes. A wrapped call records a span (name, start,
end, parent); some also add to counters. Spans stay in memory until
``take``, which turns them into self times: a span's duration minus the part
covered by its child spans. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

# name of the self-time metric -> (module, attribute) of the traced callable
SPANS = {
    "linalg.construct": [("bornlab.linalg", f"{cls}.__init__") for cls in ("StateVector", "DensityMatrix", "Effect", "Povm", "BipartiteState")],
    "linalg.purify": [("bornlab.linalg", "purify")],
    "linalg.psd_sqrt": [("bornlab.linalg", "psd_sqrt")],
    "steering.hjw_povm": [("bornlab.steering", "hjw_povm")],
    "steering.steer": [("bornlab.steering", "steer")],
    "steering.barycenter": [("bornlab.steering", "barycenter")],
    "rigidity.scan_gaps": [("bornlab.rigidity", "scan_gaps")],
    "rigidity.certify_self": [("bornlab.rigidity", "certify_identity")],
    "rules.rule_build": [("bornlab.rules", "PhiRule.__init__")],
    # PhiRule.__call__ is the same function as PhiRule.eval, so both names
    # are rebound by the one entry
    "rules.eval": [("bornlab.rules", "PhiRule.eval")],
    "transition.tau_optimized": [("bornlab.transition", "tau_optimized")],
    "signaling.build_scenario": [("bornlab.signaling", "build_two_level_scenario")],
    "signaling.experiment": [("bornlab.signaling", "run_steering_experiment")],
    "signaling.detectability": [("bornlab.signaling", "detectability")],
    "fock.truncation": [("bornlab.fock", "truncation_convergence")],
    "fock.sigma_affinity": [("bornlab.fock", "sigma_affinity_convergence")],
    "cli.validate": [("bornlab.cli", "validate")],
    "cli.run_self": [("bornlab.cli", "run")],
    "cli.main_self": [("bornlab.cli", "main")],
}


def _scan_pairs(args, kwargs) -> int:
    step = kwargs.get("grid_step", args[1] if len(args) > 1 else 0.01)
    n = int(round(1.0 / step))
    return n * (n + 1) // 2 * 3


# counter -> (span name, how much one call adds, from (args, kwargs, result))
COUNTS = {
    "linalg.constructions": ("linalg.construct", lambda a, k, r: 1),
    "steering.outcomes": ("steering.steer", lambda a, k, r: len(r)),
    "rigidity.scan_calls": ("rigidity.scan_gaps", lambda a, k, r: 1),
    "rigidity.pairs": ("rigidity.scan_gaps", lambda a, k, r: _scan_pairs(a, k)),
    "rules.eval_points": ("rules.eval", lambda a, k, r: int(np.size(a[1] if len(a) > 1 else k["p"]))),
    "transition.tau_optimized_iters": ("transition.tau_optimized", lambda a, k, r: r.iterations),
}

# counted on every call made while a traced span is open, without a span
COUNT_ONLY = {
    "linalg.eig_calls": [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh")],
    "transition.tau_closed_calls": [("bornlab.transition", "tau_closed")],
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list = []

    def _span(self, name: str, fn, counters):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            for counter, amount in counters:
                counts[counter] += amount(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapper, owners) -> None:
        """Point every name bound to ``original`` in ``owners`` at ``wrapper``."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "bornlab" or name.startswith("bornlab.")]
        for name, targets in SPANS.items():
            counters = [(c, amount) for c, (span, amount) in COUNTS.items() if span == name]
            for module, path in targets:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                wrapper = self._span(name, original, counters)
                self._replace(original, wrapper, [owner] if isinstance(owner, type) else modules)
        for name, targets in COUNT_ONLY.items():
            for module, path in targets:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                self._replace(original, self._count(name, original), [owner, *modules])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> dict[str, float]:
        """Self seconds per span name since the last call; clears the spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        self.spans.clear()
        return totals

