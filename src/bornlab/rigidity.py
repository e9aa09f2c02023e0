"""Grid certification that only the identity distortion closes every
Jensen gap.

A distortion whose Jensen gaps all vanish on a fine grid has uniformly
small second differences there, and a function with pinned endpoints and
small second differences cannot stray far from the straight line: summing
midpoint-gap bounds along bisection chains gives the explicit deviation
bound ``tol * n^2 / 4`` at grid resolution 1/n. The scan therefore turns a
gap tolerance into a quantified identity certificate, and any rejection
carries the witnessing triple, which is precisely a steering experiment
that would signal.

The scan is exact but evaluates only the pairs that could hold the
maximum (Piyavskii 1972; Shubert 1972). If Phi' lies in [lo, hi] on
[p1, p2], the gap at weight lambda is lambda (1 - lambda) (p2 - p1) times
the difference of two mean slopes of Phi, so its size is at most
lambda (1 - lambda) (p2 - p1) (hi - lo). Where hi = lo, Phi is affine and
every gap is exactly 0, so such pairs are never evaluated. The pairs are
walked in blocks of rows, row 0 first, each block under every weight; a
pair whose bound, plus a rounding margin, stays below the largest gap
found so far is never evaluated either, so every later block prunes
against the largest gap of the pairs (0, p2) at least. A tie goes to the
first weight, then to the first pair in row-major order. Every reported
field is the one the exhaustive scan gives, except that a rule whose
computed gaps all sit at rounding level reports the exact 0 of its affine
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import PhiRule

SCAN_LAMBDAS = (0.25, 0.5, 0.75)
CURVATURE_ATOL = 1e-12
# entries of one row block of the pair scan, which bounds its memory
_BLOCK_PAIRS = 8192


@dataclass(frozen=True)
class RigidityReport:
    """Scan summary for one distortion on one grid."""

    rule_id: str
    grid_step: float
    lambdas: tuple[float, ...]
    max_gap: float
    max_gap_witness: tuple[float, float, float]
    max_identity_deviation: float
    max_identity_deviation_at: float
    convexity_intervals: tuple[tuple[float, float, str], ...]
    affine_residual: float


@dataclass(frozen=True)
class CertificationResult:
    """Certification verdict with the failure witness when rejected.

    ``witness`` is the gap-maximizing triple (p1, p2, lambda) when the gap
    condition fails, else the grid point of largest identity deviation,
    else None.
    """

    certified: bool
    witness: tuple[float, float, float] | float | None
    max_gap: float
    max_identity_deviation: float
    gap_tolerance: float
    deviation_bound: float
    derivation: str
    report: RigidityReport


def _convexity_intervals(grid: np.ndarray, values: np.ndarray) -> tuple[tuple[float, float, str], ...]:
    """Maximal runs where interior second differences keep one strict sign."""
    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    # signs[k + 1] is the sign of second[k]; the 0 at each end gives every
    # run two edges. The run of second differences [a, b) spans the grid
    # points a..b+1
    signs = np.zeros(second.size + 2, dtype=np.int8)
    signs[1:-1][second > CURVATURE_ATOL] = 1
    signs[1:-1][second < -CURVATURE_ATOL] = -1
    edges = np.flatnonzero(np.diff(signs))
    starts, stops = edges[:-1], edges[1:]
    curved = signs[starts + 1] != 0
    starts, stops = starts[curved], stops[curved]
    marks = ["+" if s > 0 else "-" for s in signs[starts + 1].tolist()]
    return tuple(zip(grid[starts].tolist(), grid[stops + 1].tolist(), marks))


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Consecutive row ranges [start, stop) of the pairs i < j <= n, row 0
    first as a block of its own. A later block's rectangle, its rows by the
    columns start+1..n, holds at most ``_BLOCK_PAIRS`` entries, or one row
    when a single row is wider."""
    blocks = [(0, 1)]
    start = 1
    while start < n:
        stop = min(n, start + max(1, _BLOCK_PAIRS // (n - start)))
        blocks.append((start, stop))
        start = stop
    return blocks


def scan_gaps(rule: PhiRule, grid_step: float = 0.01) -> RigidityReport:
    """Evaluate Jensen gaps over every grid pair p1 < p2 and the scan
    mixing weights, plus curvature and identity-deviation summaries.

    The pairs are walked in blocks of consecutive rows, and each block
    under every mixing weight in turn: rows i of a block against the
    columns j > start of the block, with the entries j <= i masked out.
    Row 0 is the first block, then each later block holds at most
    ``_BLOCK_PAIRS`` entries (one row when a row is wider), so memory is
    O(n + _BLOCK_PAIRS) whatever ``grid_step`` is. ``max_gap`` is the
    largest absolute gap. Its witness is the first pair, in row-major
    (p1, p2) order, that reaches it for the first mixing weight in
    ``SCAN_LAMBDAS`` order that does: a block replaces the witness on a
    larger gap, or on an equal one at an earlier weight, since a later
    block may reach the maximum at a weight before the witness's. A rule
    keeps its values and slopes finite, so no gap is NaN.
    ``affine_residual`` measures the distance to the straight line through
    the rule's own endpoint values, which for an admissible rule is the
    identity line.

    With [lo_b, hi_b] = ``rule.slope_bounds`` on [grid[start], 1], every
    pair of block b has gap <= lambda (1 - lambda) (grid[j] - grid[start])
    spread_b + margin_b, where spread_b = hi_b - lo_b and

        margin_b = 64 eps (1 + max |Phi(grid)| + max(|lo_b|, |hi_b|)).

    The margin covers rounding: a computed Phi differs from the exact one
    by a few eps (|Phi| + |slope|), and |Phi| on the block's columns is at
    most max |Phi(grid)| + max(|lo_b|, |hi_b|); the rounded mix point moves
    at most a few eps, which moves Phi by a few eps max(|lo_b|, |hi_b|);
    the weighted sum, the subtraction and the column cut below round by a
    few eps of the same terms.

    The scan starts from the gap 0 at the first triple (0, grid[1],
    SCAN_LAMBDAS[0]). A block with spread_b = 0 lies where Phi is affine,
    so each of its exact gaps is 0 and it is never evaluated. Every other
    block prunes against ``max_gap``: while max_gap > margin_b, the leading
    columns with grid[j] - grid[start] < (max_gap - margin_b) /
    (lambda (1 - lambda) spread_b) are skipped, and the whole block when
    that cut passes n. ``max_gap`` is a gap the scan attains (or the exact
    0 of an affine pair), so a skipped pair is strictly below it and can
    neither be the maximum nor tie with it. Row 0 goes first, so the later
    blocks prune against the largest gap of the pairs (0, p2) at least.
    The report is the exhaustive scan's, bit for bit, except that affine
    blocks count as exact 0 where the exhaustive scan may report their
    rounding noise, which shows only when every computed gap stays below
    margin_b.

    Time is n^2 only in the worst case: a rule whose gaps all sit at
    rounding level without Phi being affine on a block, such as a
    piecewise rule with a 1e-15 kink, is never pruned. The identity costs
    its grid.
    """
    if not 0.0 < grid_step <= 0.1:
        raise ValueError("grid_step must lie in (0, 0.1]")
    n = int(round(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, n + 1)
    values = np.asarray(rule.eval(grid), dtype=float)

    blocks = _row_blocks(n)
    lo, hi = rule.slope_bounds(grid[[start for start, _ in blocks]])
    spreads = (hi - lo).tolist()
    scale = 1.0 + np.max(np.abs(values)) + np.maximum(np.abs(lo), np.abs(hi))
    margins = (64.0 * np.finfo(float).eps * scale).tolist()
    max_gap, witness = 0.0, (0.0, float(grid[1]), SCAN_LAMBDAS[0])
    for (start, stop), spread, margin in zip(blocks, spreads, margins):
        if spread == 0.0:
            continue
        p1, v1 = grid[start:stop, None], values[start:stop, None]
        for lam in SCAN_LAMBDAS:
            first = start + 1
            if max_gap > margin:
                reach = (max_gap - margin) / (lam * (1.0 - lam) * spread)
                first = max(first, int(np.searchsorted(grid, grid[start] + reach)))
                if first > n:
                    continue
            mix = lam * p1 + (1.0 - lam) * grid[first:]
            gaps = np.abs(lam * v1 + (1.0 - lam) * values[first:] - np.asarray(rule.eval(mix), dtype=float))
            # entry (t, c) is the pair (start + t, first + c); first + c <= start + t is no pair
            gaps[np.arange(start, stop)[:, None] >= np.arange(first, n + 1)] = -np.inf
            k = int(np.argmax(gaps))
            gap = float(gaps.flat[k])
            if gap > max_gap or (gap == max_gap and lam < witness[2]):
                t, c = divmod(k, n + 1 - first)
                max_gap = gap
                witness = (float(grid[start + t]), float(grid[first + c]), lam)

    deviation = np.abs(values - grid)
    dev_at = int(np.argmax(deviation))
    chord = values[0] + (values[-1] - values[0]) * grid
    return RigidityReport(
        rule_id=rule.describe(),
        grid_step=float(grid_step),
        lambdas=SCAN_LAMBDAS,
        max_gap=max_gap,
        max_gap_witness=witness,
        max_identity_deviation=float(deviation[dev_at]),
        max_identity_deviation_at=float(grid[dev_at]),
        convexity_intervals=_convexity_intervals(grid, values),
        affine_residual=float(np.max(np.abs(values - chord))),
    )


def certify_identity(
    rule: PhiRule,
    gap_tolerance: float = 1e-10,
    grid_step: float = 0.01,
) -> CertificationResult:
    """Accept the rule as the identity, or reject with a signaling witness.

    Certification requires both the scan's max gap below ``gap_tolerance``
    and the identity deviation below the propagated bound; the returned
    witness for a rejection is directly usable as a steering scenario.

    The bound: each interior grid point is the midpoint of its neighbors, so
    a gap below tol = ``gap_tolerance`` bounds the discrete second difference
    by 2 tol; summed from both pinned endpoints over n = 1/grid_step steps,
    |Phi(p) - p| <= tol k (n - k) <= tol n^2 / 4. ValueError unless
    ``gap_tolerance`` > 0 (a NaN fails), raised before the scan.
    """
    if not gap_tolerance > 0:
        raise ValueError("gap_tolerance must be positive")
    report = scan_gaps(rule, grid_step)
    n = int(round(1.0 / grid_step))
    bound = gap_tolerance * n * n / 4.0
    gap_ok = report.max_gap <= gap_tolerance
    dev_ok = report.max_identity_deviation <= bound
    witness: tuple[float, float, float] | float | None = None
    if not gap_ok:
        witness = report.max_gap_witness
    elif not dev_ok:
        witness = report.max_identity_deviation_at
    derivation = (
        f"midpoint gaps <= {gap_tolerance:g} bound second differences by {2 * gap_tolerance:g}; "
        f"accumulated from pinned endpoints over n={n} steps: |Phi(p)-p| <= tol*n^2/4 = {bound:g}"
    )
    return CertificationResult(
        certified=bool(gap_ok and dev_ok),
        witness=witness,
        max_gap=report.max_gap,
        max_identity_deviation=report.max_identity_deviation,
        gap_tolerance=float(gap_tolerance),
        deviation_bound=bound,
        derivation=derivation,
        report=report,
    )
