"""Numerical probes of a Gagliardo-Nirenberg-type interpolation inequality.

The steepness-weighted ratio

    ||phi||_q / (||grad phi||_2 * L^{-alpha}(||grad phi||_2^2)),

with alpha = 1/q - (n-2)/(2n), is evaluated on radial profiles; its
boundedness over families with a common steepness-integral budget is the
inequality under test.  The dimension n is always that of the grid the
profiles live on (``RadialGrid.n``); no function takes it separately.

Family scans drive the ratio across dilated and rescaled copies of a
template profile and report boundedness and sharpness probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import DecayEnvelope
from .errors import InputError, NumericError
from .radial import RadialGrid, grad_l2_norm, lq_quasinorm, steepness_integral
from .steepness import SteepnessFunction

__all__ = [
    "FamilySpec",
    "FamilyScan",
    "ScanRow",
    "family_scan",
]


def _alpha(q: float, n: int) -> float:
    """Exponent 1/q - (n-2)/(2n) of the steepness weight in dimension n.

    Positive exactly when q stays below the critical exponent 2n/(n-2)_+,
    which the steepness-weighted ratio requires.
    """
    if q <= 0:
        raise InputError(f"q must be positive, got {q}")
    alpha = 1.0 / q - (n - 2.0) / (2.0 * n)
    if alpha <= 0:
        raise InputError(f"q = {q} must stay below the critical exponent "
                         f"2n/(n-2) = {2*n/(n-2)} in dimension n = {n}")
    return alpha


@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter family of radial bump profiles.

    Each member is the array ``scale * envelope.floor(grid.nodes / width)``,
    which ``family_scan`` samples on its grid, for a closed-form decay
    envelope: scale * c0 * exp(-alpha (r/width)^beta) for ``"StretchedExp"``,
    scale * c0 * exp(-alpha exp(beta (r/width)^gamma)) for ``"DoubleExp"``.
    ``scales`` and ``widths`` are zipped into members; a singleton list is
    broadcast against the other.
    """

    envelope: DecayEnvelope
    scales: Sequence[float] = (1.0,)
    widths: Sequence[float] = (1.0,)

    def __post_init__(self):
        if any(s <= 0 for s in self.scales) or any(w <= 0 for w in self.widths):
            raise InputError("scales and widths must be positive")
        if len(self.scales) != len(self.widths) and 1 not in (len(self.scales), len(self.widths)):
            raise InputError("scales and widths must have equal length or be singletons")

    def members(self):
        scales, widths = list(self.scales), list(self.widths)
        if len(scales) == 1:
            scales = scales * len(widths)
        if len(widths) == 1:
            widths = widths * len(scales)
        return list(zip(scales, widths))


@dataclass(frozen=True)
class ScanRow:
    member_id: str
    scale: float
    width: float
    grad_norm: float
    lq_norm: float
    budget: float
    budget_flagged: bool
    budget_ok: bool
    ratio: float


@dataclass(frozen=True)
class FamilyScan:
    """Scan table (sorted by gradient norm) plus boundedness summary."""

    rows: tuple
    ratio_max: float
    ratio_min: float
    loglog_slope: float
    K: float
    alpha_scale: float = 1.0

    @property
    def monotone_increasing(self) -> bool:
        ratios = [row.ratio for row in self.rows]
        return all(b > a for a, b in zip(ratios, ratios[1:]))

    @property
    def grad_span(self) -> float:
        grads = [row.grad_norm for row in self.rows]
        return max(grads) / min(grads)

    def summary(self) -> dict:
        return {
            "members": len(self.rows),
            "K": self.K,
            "alpha_scale": self.alpha_scale,
            "ratio_max": self.ratio_max,
            "ratio_min": self.ratio_min,
            "ratio_spread": self.ratio_max / self.ratio_min,
            "grad_span": self.grad_span,
            "loglog_slope": self.loglog_slope,
            "monotone_increasing": self.monotone_increasing,
            # members whose steepness integral has a suspect truncation tail
            "tail_flagged": [row.member_id for row in self.rows if row.budget_flagged],
        }


def family_scan(fam: FamilySpec, grid: RadialGrid, q: float, L: SteepnessFunction,
                K: Optional[float] = None, alpha_scale: float = 1.0) -> FamilyScan:
    """Evaluate the steepness-weighted ratio across a family on one grid.

    alpha is taken in the grid's dimension.  Members must be resolvable on
    the grid (width <= R/5).  Without a budget K, it defaults to 1.05x the
    largest member budget so the precondition is non-vacuous but
    satisfiable.  Budget violations are recorded per member, not fatal; a
    member whose gradient norm is 0 (its ratio undefined) raises InputError,
    and one whose ratio is not a positive finite double (a norm or the weight
    L^{-alpha} that overflows, an L^q norm of 0) raises NumericError.
    """
    alpha = _alpha(q, grid.n) * alpha_scale
    members = fam.members()
    if not members:
        raise InputError("family has no members")
    if max(w for _, w in members) > grid.R / 5.0:
        raise InputError("widest member is not resolvable: need width <= R/5")

    profiles = [s * fam.envelope.floor(grid.nodes / w) for s, w in members]
    budgets = [steepness_integral(grid, values, L) for values in profiles]
    K = K if K is not None else 1.05 * max(b.value for b in budgets)

    rows = []
    for (scale, width), values, budget in zip(members, profiles, budgets):
        member_id = f"s{scale:g}_w{width:g}"
        try:
            with np.errstate(over="ignore"):  # a gradient norm that overflows reads inf
                grad, lq = grad_l2_norm(grid, values), lq_quasinorm(grid, values, q)
        except NumericError as exc:  # the L^q norm is not a finite double
            raise NumericError(f"member {member_id}: its ratio is not a positive finite "
                               f"double ({exc})") from None
        if not grad > 0.0:
            raise InputError(f"member {member_id}: gradient norm is {grad:g}, "
                             "so its ratio is undefined")
        try:
            ratio = lq / (grad * L.value(grad * grad) ** (-alpha))
        except (OverflowError, ZeroDivisionError):  # the weight overflows, or L is 0
            ratio = math.nan
        if not 0.0 < ratio < math.inf:
            raise NumericError(f"member {member_id}: its ratio is not a positive finite "
                               f"double (L^q norm {lq:g}, gradient norm {grad:g})")
        rows.append(ScanRow(member_id, scale, width, grad, lq, budget.value,
                            budget.tail_flagged, budget.value <= K, ratio))
    rows.sort(key=lambda row: row.grad_norm)

    ratios = np.array([row.ratio for row in rows])
    grads = np.array([row.grad_norm for row in rows])
    if len(rows) > 1:
        slope = float(np.polyfit(np.log(grads), np.log(ratios), 1)[0])
    else:
        slope = 0.0
    return FamilyScan(tuple(rows), float(ratios.max()), float(ratios.min()),
                      slope, K, alpha_scale)
