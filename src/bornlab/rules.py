"""Candidate probability distortions and generalized probability rules.

A rule maps the transition probability through a distortion Phi: [0,1] ->
[0,1] that fixes the endpoints; the undistorted rule is the identity.
Rules extend from pure states to ensembles by weighting member
probabilities, with the declared truncation tail reported as an error bar
rather than renormalized away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import StateVector
from .steering import Ensemble
from .transition import tau_closed

ENDPOINT_ATOL = 1e-12
DEFAULT_MONOTONE_GRID_STEP = 1e-3
DEFAULT_TABLE_POINTS = 1025


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    boundary_ok: bool
    monotone_ok: bool
    first_violation: float | None = None
    message: str = ""


def _require_finite_slopes(xs, ys, what: str) -> None:
    """Linear interpolation divides each rise by its run; a slope that
    overflows gives inf or NaN between finite values."""
    with np.errstate(over="ignore"):
        slopes = np.diff(ys) / np.diff(xs)
    if not np.isfinite(slopes).all():
        raise ValueError(f"{what} values rise too steeply: an interpolation slope overflows")


def _reject_booleans(field: str, values) -> None:
    """JSON true/false arrive as Python bools, which float() reads as 1 and
    0; a rule parameter must be written as a number."""
    if bool in map(type, values):
        raise ValueError(f"{field}: expected numbers, got a boolean")


@dataclass(frozen=True)
class PhiRule:
    """A probability distortion with admissibility metadata.

    Kinds: ``identity``; ``power`` with exponent ``alpha``;
    ``piecewise_affine`` through sorted ``knots``; ``custom`` given by
    ``table`` values on a uniform grid over [0, 1] with linear
    interpolation. ``admissible`` caches the endpoint and monotonicity
    check at construction; inadmissible rules remain constructible so they
    can be scanned and rejected.
    """

    kind: str
    alpha: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None
    table: np.ndarray | None = None
    admissible: bool = field(init=False, default=False)

    def __post_init__(self):
        try:
            self._normalize_parameters()
        except OverflowError as exc:
            # an integer past the float range passes the comparisons and
            # fails only when float() converts it
            raise ValueError(f"{self.kind} rule parameter too large for a float: {exc}") from exc
        report = check_admissibility(self, DEFAULT_MONOTONE_GRID_STEP)
        object.__setattr__(self, "admissible", report.passed)

    def _normalize_parameters(self) -> None:
        """Check the kind's parameters and store them as floats."""
        if self.kind == "identity":
            pass
        elif self.kind == "power":
            _reject_booleans("alpha", [self.alpha])
            if self.alpha is None or not 0 < self.alpha < math.inf:
                raise ValueError("power rule needs a positive finite exponent")
            object.__setattr__(self, "alpha", float(self.alpha))
        elif self.kind == "piecewise_affine":
            if not self.knots or len(self.knots) < 2:
                raise ValueError("piecewise rule needs at least two knots")
            knots = tuple((float(x), float(y)) for x, y in self.knots)
            _reject_booleans("knots", (v for knot in self.knots for v in knot))
            if not all(math.isfinite(v) for knot in knots for v in knot):
                raise ValueError("knot coordinates must be finite")
            xs = [x for x, _ in knots]
            if xs != sorted(xs) or len(set(xs)) != len(xs):
                raise ValueError("knot abscissae must be strictly increasing")
            if abs(xs[0]) > ENDPOINT_ATOL or abs(xs[-1] - 1.0) > ENDPOINT_ATOL:
                raise ValueError("knots must span [0, 1]")
            _require_finite_slopes(xs, [y for _, y in knots], "knot")
            object.__setattr__(self, "knots", knots)
        elif self.kind == "custom":
            if self.table is None:
                raise ValueError("custom rule needs tabulated values")
            table = np.asarray(self.table, dtype=float)
            if table.ndim != 1 or table.size < 2:
                raise ValueError("custom table must be a 1-D array of >= 2 values")
            _reject_booleans("values", self.table)
            if not np.isfinite(table).all():
                raise ValueError("custom table values must be finite")
            _require_finite_slopes(np.linspace(0.0, 1.0, table.size), table, "custom table")
            table = table.copy()
            table.setflags(write=False)
            object.__setattr__(self, "table", table)
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity() -> "PhiRule":
        return PhiRule(kind="identity")

    @staticmethod
    def power(alpha: float) -> "PhiRule":
        return PhiRule(kind="power", alpha=alpha)

    @staticmethod
    def piecewise_affine(knots) -> "PhiRule":
        return PhiRule(kind="piecewise_affine", knots=tuple(knots))

    @staticmethod
    def custom(values) -> "PhiRule":
        return PhiRule(kind="custom", table=values)

    @staticmethod
    def tabulate(fn: Callable[[np.ndarray], np.ndarray], points: int = DEFAULT_TABLE_POINTS) -> "PhiRule":
        """Sample a function on a uniform grid into a custom rule."""
        grid = np.linspace(0.0, 1.0, points)
        return PhiRule.custom(np.asarray(fn(grid), dtype=float))

    # -- evaluation --------------------------------------------------------

    def eval(self, p):
        """Vectorized evaluation on values in [0, 1]."""
        p = np.asarray(p, dtype=float)
        if self.kind == "identity":
            out = p.copy()
        elif self.kind == "power":
            out = np.power(p, self.alpha)
        elif self.kind == "piecewise_affine":
            xs = np.array([x for x, _ in self.knots])
            ys = np.array([y for _, y in self.knots])
            out = np.interp(p, xs, ys)
        else:
            grid = np.linspace(0.0, 1.0, self.table.size)
            out = np.interp(p, grid, self.table)
        return out if out.ndim else float(out)

    __call__ = eval

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "power":
            return f"power({self.alpha:g})"
        if self.kind == "piecewise_affine":
            return f"piecewise_affine({len(self.knots)} knots)"
        return f"custom({self.table.size} points)"

    # -- serialization (scenario config format) -----------------------------

    def to_dict(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "power":
            return {"kind": "power", "alpha": self.alpha}
        if self.kind == "piecewise_affine":
            return {"kind": "piecewise_affine", "knots": [list(k) for k in self.knots]}
        return {"kind": "custom", "values": self.table.tolist()}

    @staticmethod
    def from_dict(spec: dict) -> "PhiRule":
        kind = spec.get("kind")
        if kind == "identity":
            return PhiRule.identity()
        if kind == "power":
            return PhiRule.power(spec["alpha"])
        if kind == "piecewise_affine":
            return PhiRule.piecewise_affine(spec["knots"])
        if kind == "custom":
            return PhiRule.custom(spec["values"])
        raise ValueError(f"unknown rule kind {kind!r}")


def check_admissibility(rule: PhiRule, grid_step: float = DEFAULT_MONOTONE_GRID_STEP) -> AdmissibilityReport:
    """Verify endpoint conditions and monotonicity on a finite grid.

    The grid check is a guardrail, not a proof; all built-in families are
    smooth enough that a 1e-3 grid resolves any genuine violation.
    """
    if not 0.0 < grid_step <= 0.1:
        raise ValueError("grid_step must lie in (0, 0.1]")
    grid = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    values = np.asarray(rule.eval(grid), dtype=float)
    boundary_ok = abs(values[0]) <= ENDPOINT_ATOL and abs(values[-1] - 1.0) <= ENDPOINT_ATOL
    drops = np.nonzero(np.diff(values) < -ENDPOINT_ATOL)[0]
    monotone_ok = drops.size == 0
    first_violation = None
    message = "pass"
    if not boundary_ok:
        first_violation = 0.0 if abs(values[0]) > ENDPOINT_ATOL else 1.0
        message = f"endpoint value {values[0] if first_violation == 0.0 else values[-1]:.6g} at {first_violation:g}"
    elif not monotone_ok:
        first_violation = float(grid[drops[0]])
        message = f"decreasing step at {first_violation:.6g}"
    return AdmissibilityReport(
        passed=boundary_ok and monotone_ok,
        boundary_ok=boundary_ok,
        monotone_ok=monotone_ok,
        first_violation=first_violation,
        message=message,
    )


def phi_eval(rule: PhiRule, p: float) -> float:
    """Evaluate the distortion at a single probability."""
    if not -ENDPOINT_ATOL <= p <= 1.0 + ENDPOINT_ATOL:
        raise ValueError(f"probability {p} outside [0, 1]")
    return float(rule.eval(min(1.0, max(0.0, float(p)))))


def prob_pure(rule: PhiRule, psi: StateVector, phi: StateVector) -> float:
    """Outcome probability for a pure preparation: Phi of the transition
    probability."""
    return phi_eval(rule, tau_closed(psi, phi).value)


@dataclass(frozen=True)
class EnsembleProbability:
    """Mixture probability with per-member breakdown and declared tail bound.

    ``value`` omits the truncated tail entirely; since any admissible
    distortion is bounded by 1, the omission is at most
    ``truncation_tail_bound``.
    """

    value: float
    per_member: tuple[tuple[float, float], ...]
    truncation_tail_bound: float


def prob_ensemble(rule: PhiRule, ensemble: Ensemble, phi: StateVector) -> EnsembleProbability:
    """Probability under an ensemble preparation: weighted member
    probabilities, tail reported as an error bar."""
    if ensemble.members and ensemble.members[0][1].dim != phi.dim:
        raise ValueError("ensemble and effect target dimensions differ")
    per_member = tuple(
        (weight, prob_pure(rule, member, phi)) for weight, member in ensemble.members
    )
    value = float(sum(w * p for w, p in per_member))
    return EnsembleProbability(
        value=value,
        per_member=per_member,
        truncation_tail_bound=float(ensemble.tail_weight),
    )


def builtin_rules() -> dict[str, PhiRule]:
    """The rule families exercised throughout the test surface."""
    return {
        "identity": PhiRule.identity(),
        "power(2)": PhiRule.power(2.0),
        "power(0.5)": PhiRule.power(0.5),
        "power(1.2)": PhiRule.power(1.2),
    }
