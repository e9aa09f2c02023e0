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
from typing import Callable, NamedTuple

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


def _exponent(alpha):
    _reject_booleans("alpha", [alpha])
    if alpha is None or not 0 < alpha < math.inf:
        raise ValueError("power rule needs a positive finite exponent")
    return float(alpha), float(alpha)


def _knots(knots):
    raw = () if knots is None else tuple(knots)
    if len(raw) < 2:
        raise ValueError("piecewise rule needs at least two knots")
    knots = tuple((float(x), float(y)) for x, y in raw)
    _reject_booleans("knots", (v for knot in raw for v in knot))
    if not all(math.isfinite(v) for knot in knots for v in knot):
        raise ValueError("knot coordinates must be finite")
    xs, ys = (list(column) for column in zip(*knots))
    if xs != sorted(xs) or len(set(xs)) != len(xs):
        raise ValueError("knot abscissae must be strictly increasing")
    if abs(xs[0]) > ENDPOINT_ATOL or abs(xs[-1] - 1.0) > ENDPOINT_ATOL:
        raise ValueError("knots must span [0, 1]")
    _require_finite_slopes(xs, ys, "knot")
    return knots, (np.array(xs), np.array(ys))


def _table(values):
    if values is None:
        raise ValueError("custom rule needs tabulated values")
    table = np.array(values, dtype=float)
    if table.ndim != 1 or table.size < 2:
        raise ValueError("custom table must be a 1-D array of >= 2 values")
    _reject_booleans("values", values)
    if not np.isfinite(table).all():
        raise ValueError("custom table values must be finite")
    grid = np.linspace(0.0, 1.0, table.size)
    _require_finite_slopes(grid, table, "custom table")
    table.setflags(write=False)
    return table, (grid, table)


class _Kind(NamedTuple):
    """A rule kind: the PhiRule field holding its parameter and the
    parameter's key in a rule spec (None for identity), the check that
    returns (stored parameter, evaluation form), and the describe() label."""

    field: str | None
    key: str | None
    normalize: Callable
    label: Callable[[PhiRule], str]


_KINDS = {
    "identity": _Kind(None, None, lambda _: (None, 1.0), lambda r: "identity"),
    "power": _Kind("alpha", "alpha", _exponent, lambda r: f"power({r.alpha:g})"),
    "piecewise_affine": _Kind("knots", "knots", _knots, lambda r: f"piecewise_affine({len(r.knots)} knots)"),
    "custom": _Kind("table", "values", _table, lambda r: f"custom({r.table.size} points)"),
}


def _lookup(kind) -> _Kind:
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown rule kind {kind!r}")
    return _KINDS[kind]


@dataclass(frozen=True)
class PhiRule:
    """A probability distortion with admissibility metadata.

    Kinds: ``identity``; ``power`` with exponent ``alpha``;
    ``piecewise_affine`` through sorted ``knots``; ``custom`` given by
    ``table`` values on a uniform grid over [0, 1] with linear
    interpolation; each evaluates as ``np.power`` (identity: exponent 1) or
    as ``np.interp`` through nodes fixed at construction. ``admissible``
    caches the endpoint and monotonicity check at construction;
    inadmissible rules remain constructible so they can be scanned and
    rejected. Two rules are equal, and hash alike, when they have the same
    kind and bitwise-equal parameters.
    """

    kind: str
    alpha: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None
    table: np.ndarray | None = None
    admissible: bool = field(init=False, default=False)
    # the exponent for np.power, or the (xs, ys) nodes for np.interp
    _form: float | tuple[np.ndarray, np.ndarray] = field(init=False, default=1.0, repr=False, compare=False)

    def __post_init__(self):
        kind = _lookup(self.kind)
        try:
            value, form = kind.normalize(getattr(self, kind.field) if kind.field else None)
        except OverflowError as exc:
            # an integer past the float range passes the comparisons and
            # fails only when float() converts it
            raise ValueError(f"{self.kind} rule parameter too large for a float: {exc}") from exc
        if kind.field:
            object.__setattr__(self, kind.field, value)
        object.__setattr__(self, "_form", form)
        report = check_admissibility(self, DEFAULT_MONOTONE_GRID_STEP)
        object.__setattr__(self, "admissible", report.passed)

    # the generated __eq__ and __hash__ would compare and hash the table
    # array itself, which raises
    def _key(self) -> tuple:
        field = _KINDS[self.kind].field
        return self.kind, field and np.asarray(getattr(self, field), dtype=float).tobytes()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity() -> "PhiRule":
        return PhiRule(kind="identity")

    @staticmethod
    def power(alpha: float) -> "PhiRule":
        return PhiRule(kind="power", alpha=alpha)

    @staticmethod
    def piecewise_affine(knots) -> "PhiRule":
        return PhiRule(kind="piecewise_affine", knots=knots)

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
        form = self._form
        out = np.interp(p, *form) if isinstance(form, tuple) else np.power(p, form)
        return out if out.ndim else float(out)

    __call__ = eval

    def describe(self) -> str:
        return _KINDS[self.kind].label(self)

    # -- serialization (scenario config format) -----------------------------

    def to_dict(self) -> dict:
        kind = _KINDS[self.kind]
        return {"kind": self.kind} | ({kind.key: np.asarray(getattr(self, kind.field)).tolist()} if kind.key else {})

    @staticmethod
    def from_dict(spec: dict) -> "PhiRule":
        kind = spec.get("kind")
        entry = _lookup(kind)
        return PhiRule(kind, **({entry.field: spec[entry.key]} if entry.key else {}))


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
