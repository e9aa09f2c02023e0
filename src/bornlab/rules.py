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
MONOTONE_GRID_STEP = 1e-3


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    boundary_ok: bool
    monotone_ok: bool
    first_violation: float | None = None


def _require_finite_slopes(xs, ys, what: str) -> None:
    """Linear interpolation divides each rise by its run; a slope that
    overflows gives inf or NaN between finite values."""
    with np.errstate(over="ignore"):
        slopes = np.diff(ys) / np.diff(xs)
    if not np.isfinite(slopes).all():
        raise ValueError(f"{what} values rise too steeply: an interpolation slope overflows")


def _reject_non_numbers(field: str, values) -> None:
    """float() reads JSON true/false, which arrive as Python bools, as 1 and
    0 (and so it reads numpy booleans), a string such as "0.5" as a number,
    and null as NaN; a rule parameter must be written as a number. An array
    of a numeric dtype or a list of ints and floats passes without a look at
    each entry; otherwise the first entry that is not a number is named by
    its JSON type. A JSON object in place of the list is named as one,
    not by its keys."""
    if isinstance(values, dict):
        raise ValueError(f"{field}: expected numbers, got an object")
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf" or set(map(type, values)) <= {int, float}:
        return
    nouns = {
        (bool, np.bool_): "a boolean", str: "a string", type(None): "null", (list, tuple): "an array", dict: "an object",
    }
    for value in values:
        for kind, noun in nouns.items():
            if isinstance(value, kind):
                raise ValueError(f"{field}: expected numbers, got {noun}")


def _no_parameter(param):
    if param is not None:
        raise ValueError("identity rule takes no parameter")
    return None, 1.0


def _exponent(alpha):
    if alpha is not None:
        _reject_non_numbers("alpha", [alpha])
    if alpha is None or not 0 < alpha < math.inf:
        raise ValueError("power rule needs a positive finite exponent")
    return float(alpha), float(alpha)


def _knots(knots):
    try:
        entries = [] if knots is None else list(knots)
        # a JSON object would be unpacked by its keys
        if isinstance(knots, dict) or any(isinstance(entry, dict) for entry in entries):
            raise TypeError
        pairs = tuple((x, y) for x, y in entries)
    except (TypeError, ValueError):
        raise ValueError("knots: expected a list of [x, y] pairs") from None
    if len(pairs) < 2:
        raise ValueError("piecewise rule needs at least two knots")
    _reject_non_numbers("knots", [v for pair in pairs for v in pair])
    knots = tuple((float(x), float(y)) for x, y in pairs)
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
    if not np.iterable(values):
        raise ValueError("custom rule needs tabulated values")
    _reject_non_numbers("values", values)
    table = np.array(values, dtype=float)
    if table.ndim != 1 or table.size < 2:
        raise ValueError("custom table must be a 1-D array of >= 2 values")
    if not np.isfinite(table).all():
        raise ValueError("custom table values must be finite")
    grid = np.linspace(0.0, 1.0, table.size)
    _require_finite_slopes(grid, table, "custom table")
    table.setflags(write=False)
    return table, (grid, table)


class _Kind(NamedTuple):
    """A rule kind: its parameter's key in a rule spec (None for identity),
    the check that returns (stored parameter, evaluation form), and the
    describe() label."""

    key: str | None
    normalize: Callable
    label: Callable[[PhiRule], str]


_KINDS = {
    "identity": _Kind(None, _no_parameter, lambda r: "identity"),
    "power": _Kind("alpha", _exponent, lambda r: f"power({r.param:g})"),
    "piecewise_affine": _Kind("knots", _knots, lambda r: f"piecewise_affine({len(r.param)} knots)"),
    "custom": _Kind("values", _table, lambda r: f"custom({r.param.size} points)"),
}


def _lookup(kind) -> _Kind:
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown rule kind {kind!r}")
    return _KINDS[kind]


@dataclass(frozen=True)
class PhiRule:
    """A probability distortion.

    ``param`` holds the kind's one parameter: None for ``identity``, the
    exponent for ``power``, the sorted (x, y) knots for
    ``piecewise_affine``, and for ``custom`` the values on a uniform grid
    over [0, 1] with linear interpolation. Each evaluates as ``np.power``
    (identity: exponent 1) or as ``np.interp`` through nodes fixed at
    construction. Inadmissible rules (see ``check_admissibility``) are
    constructible so they can be scanned and rejected. Two rules are
    equal, and hash alike, when they have the same kind and bitwise-equal
    parameters.
    """

    kind: str
    param: float | tuple[tuple[float, float], ...] | np.ndarray | None = None
    # the exponent for np.power, or the (xs, ys) nodes for np.interp
    _form: float | tuple[np.ndarray, np.ndarray] = field(init=False, default=1.0, repr=False, compare=False)

    def __post_init__(self):
        try:
            param, form = _lookup(self.kind).normalize(self.param)
        except OverflowError as exc:
            # an integer past the float range passes the comparisons and
            # fails only when float() converts it
            raise ValueError(f"{self.kind} rule parameter too large for a float: {exc}") from exc
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "_form", form)

    # the generated __eq__ and __hash__ would compare and hash the table
    # array itself, which raises
    def _key(self) -> tuple:
        return self.kind, None if self.param is None else np.asarray(self.param, dtype=float).tobytes()

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
        return PhiRule(kind="power", param=alpha)

    @staticmethod
    def piecewise_affine(knots) -> "PhiRule":
        return PhiRule(kind="piecewise_affine", param=knots)

    @staticmethod
    def custom(values) -> "PhiRule":
        return PhiRule(kind="custom", param=values)

    # -- evaluation --------------------------------------------------------

    def eval(self, p):
        """Vectorized evaluation on values in [0, 1]."""
        p = np.asarray(p, dtype=float)
        form = self._form
        out = np.interp(p, *form) if isinstance(form, tuple) else np.power(p, form)
        return out if out.ndim else float(out)

    __call__ = eval

    def slope_bounds(self, starts):
        """Arrays lo, hi with lo[k] <= Phi' <= hi[k] on [starts[k], 1], for
        starts in [0, 1]: the suffix extremes of the node slopes for an
        interpolated rule, alpha * a^(alpha - 1) and alpha for a power (hi
        is inf at a = 0 when alpha < 1), and (1, 1) for the identity."""
        starts = np.asarray(starts, dtype=float)
        form = self._form
        if not isinstance(form, tuple):
            with np.errstate(divide="ignore"):
                edge = form * np.power(starts, form - 1.0)
            tip = np.full_like(edge, form)
            return (edge, tip) if form >= 1.0 else (tip, edge)
        xs, ys = form
        slopes = np.diff(ys) / np.diff(xs)
        # np.interp holds the end values outside [xs[0], xs[-1]], so Phi' is
        # 0 where piecewise knots stop within ENDPOINT_ATOL of 0 or 1
        if xs[0] > 0.0:
            xs, slopes = np.r_[0.0, xs], np.r_[0.0, slopes]
        if xs[-1] < 1.0:
            slopes = np.r_[slopes, 0.0]
        segment = np.minimum(np.searchsorted(xs, starts, side="right") - 1, slopes.size - 1)
        lo = np.minimum.accumulate(slopes[::-1])[::-1]
        hi = np.maximum.accumulate(slopes[::-1])[::-1]
        return lo[segment], hi[segment]

    def describe(self) -> str:
        return _KINDS[self.kind].label(self)

    # -- serialization (scenario config format) -----------------------------

    def to_dict(self) -> dict:
        key = _KINDS[self.kind].key
        return {"kind": self.kind} | ({key: np.asarray(self.param).tolist()} if key else {})

    @staticmethod
    def from_dict(spec: dict) -> "PhiRule":
        kind = spec.get("kind")
        key = _lookup(kind).key
        return PhiRule(kind, spec.get(key) if key else None)


def check_admissibility(rule: PhiRule) -> AdmissibilityReport:
    """Verify endpoint conditions and monotonicity on a finite grid.

    The grid check is a guardrail, not a proof; all built-in families are
    smooth enough that a 1e-3 grid resolves any genuine violation.
    """
    grid = np.linspace(0.0, 1.0, int(round(1.0 / MONOTONE_GRID_STEP)) + 1)
    values = np.asarray(rule.eval(grid), dtype=float)
    boundary_ok = abs(values[0]) <= ENDPOINT_ATOL and abs(values[-1] - 1.0) <= ENDPOINT_ATOL
    drops = np.nonzero(np.diff(values) < -ENDPOINT_ATOL)[0]
    monotone_ok = drops.size == 0
    first_violation = None
    if not boundary_ok:
        first_violation = 0.0 if abs(values[0]) > ENDPOINT_ATOL else 1.0
    elif not monotone_ok:
        first_violation = float(grid[drops[0]])
    return AdmissibilityReport(
        passed=boundary_ok and monotone_ok,
        boundary_ok=boundary_ok,
        monotone_ok=monotone_ok,
        first_violation=first_violation,
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
    if ensemble.dim != phi.dim:
        raise ValueError("ensemble and effect target dimensions differ")
    per_member = tuple(
        (weight, prob_pure(rule, StateVector(amplitudes), phi))
        for weight, amplitudes in zip(ensemble.weights.tolist(), ensemble.amplitudes)
    )
    value = math.fsum(w * p for w, p in per_member)
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
