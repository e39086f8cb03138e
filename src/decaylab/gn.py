"""Numerical probes of a Gagliardo-Nirenberg-type interpolation inequality.

The steepness-weighted ratio

    ||phi||_q / (||grad phi||_2 * L^{-alpha}(||grad phi||_2^2)),

with alpha = 1/q - (n-2)/(2n), is evaluated on radial profiles; its
boundedness over families with a common steepness-integral budget is the
inequality under test.  The dimension n is always that of the grid the
profiles live on (``RadialGrid.n``); no function takes it separately.

A family scan drives the ratio across dilated and rescaled copies of a
template profile and reports its boundedness and, from the same norms at a
multiple of alpha, the probe of alpha's sharpness.
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
    ``scales`` and ``widths`` are zipped into members, each named
    ``s<scale>_w<width>`` at ``%g``; a singleton list is broadcast against
    the other, and a family of no members or of two members of one name is
    refused.
    """

    envelope: DecayEnvelope
    scales: Sequence[float] = (1.0,)
    widths: Sequence[float] = (1.0,)

    def __post_init__(self):
        if any(s <= 0 for s in self.scales) or any(w <= 0 for w in self.widths):
            raise InputError("scales and widths must be positive")
        if len(self.scales) != len(self.widths) and 1 not in (len(self.scales), len(self.widths)):
            raise InputError("scales and widths must have equal length or be singletons")
        names = [name for name, _, _ in self.members()]
        if not names:
            raise InputError("scales and widths give no members")
        twice = [name for k, name in enumerate(names) if name in names[:k]]
        if twice:  # two rows of one name, and a fit through repeated points
            raise InputError(f"member {twice[0]} is named twice")

    def members(self):
        """(member_id, scale, width) of each member."""
        scales, widths = list(self.scales), list(self.widths)
        if len(scales) == 1:
            scales = scales * len(widths)
        if len(widths) == 1:
            widths = widths * len(scales)
        return [(f"s{s:g}_w{w:g}", s, w) for s, w in zip(scales, widths)]

    def check_resolvable(self, grid: RadialGrid):
        """Raise InputError unless every member has width <= R/5 on the grid."""
        if max(self.widths) > grid.R / 5.0:
            raise InputError(f"widest member (width {max(self.widths):g}) is not "
                             f"resolvable on R = {grid.R:g}: need width <= R/5")


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
    probe_ratio: Optional[float] = None  # the ratio at sharpness_scale * alpha


@dataclass(frozen=True)
class FamilyScan:
    """Scan table (sorted by gradient norm), its budget K and the scale on
    alpha of the rows' probe_ratio (None without a probe)."""

    rows: tuple
    K: float
    sharpness_scale: Optional[float] = None

    def _ratio_record(self, field: str, alpha_scale: float) -> dict:
        """What the ratio column ``field`` says, at alpha_scale * alpha."""
        ratios = np.array([getattr(row, field) for row in self.rows])
        logs = np.log([row.grad_norm for row in self.rows]), np.log(ratios)
        slope = float(np.polyfit(*logs, 1)[0]) if len(ratios) > 1 else 0.0
        ratio_max, ratio_min = float(ratios.max()), float(ratios.min())
        return dict(alpha_scale=alpha_scale, ratio_max=ratio_max, ratio_min=ratio_min,
                    ratio_spread=ratio_max / ratio_min, loglog_slope=slope,
                    monotone_increasing=all(b > a for a, b in zip(ratios, ratios[1:])))

    def summary(self) -> dict:
        """The ``scan`` record and, with a probe, the ``probe`` record, which
        holds only what depends on alpha."""
        grads = [row.grad_norm for row in self.rows]
        doc = {"scan": {
            "members": len(self.rows),
            "K": self.K,
            **self._ratio_record("ratio", 1.0),
            "grad_span": max(grads) / min(grads),
            # members whose steepness integral has a suspect truncation tail
            "tail_flagged": [row.member_id for row in self.rows if row.budget_flagged],
        }}
        if self.sharpness_scale is not None:
            doc["probe"] = self._ratio_record("probe_ratio", float(self.sharpness_scale))
        return doc


def family_scan(fam: FamilySpec, grid: RadialGrid, q: float, L: SteepnessFunction,
                K: Optional[float] = None,
                sharpness_scale: Optional[float] = None) -> FamilyScan:
    """Evaluate the steepness-weighted ratio across a family on one grid.

    alpha is taken in the grid's dimension.  Members must be resolvable on
    the grid (``FamilySpec.check_resolvable``).  Without a budget K, it
    defaults to 1.05x the largest member budget so the precondition is
    non-vacuous but satisfiable.  Each member's norms are evaluated once; with a
    sharpness_scale, its probe_ratio is the same ratio at sharpness_scale *
    alpha.  Budget violations are recorded per member, not fatal; a member
    whose gradient norm is 0 (its ratio undefined) raises InputError, and one
    with a ratio that is not a positive finite double (a norm or the weight
    L^{-alpha} that overflows, an L^q norm of 0) raises NumericError.
    """
    alpha = _alpha(q, grid.n)
    alphas = [alpha] if sharpness_scale is None else [alpha, alpha * sharpness_scale]
    fam.check_resolvable(grid)
    members = fam.members()

    profiles = [s * fam.envelope.floor(grid.nodes / w) for _, s, w in members]
    budgets = [steepness_integral(grid, values, L) for values in profiles]
    K = K if K is not None else 1.05 * max(b.value for b in budgets)

    rows = []
    for (member_id, scale, width), values, budget in zip(members, profiles, budgets):
        try:
            with np.errstate(over="ignore"):  # a gradient norm that overflows reads inf
                grad, lq = grad_l2_norm(grid, values), lq_quasinorm(grid, values, q)
        except NumericError as exc:  # the L^q norm is not a finite double
            raise NumericError(f"member {member_id}: its ratio is not a positive finite "
                               f"double ({exc})") from None
        if not grad > 0.0:
            raise InputError(f"member {member_id}: gradient norm is {grad:g}, "
                             "so its ratio is undefined")
        ratios = []
        for a in alphas:  # the ratio, then the probe's
            try:
                ratios.append(lq / (grad * L.value(grad * grad) ** (-a)))
            except (OverflowError, ZeroDivisionError):  # the weight overflows, or L is 0
                ratios.append(math.nan)
        if not all(0.0 < ratio < math.inf for ratio in ratios):
            raise NumericError(f"member {member_id}: its ratio is not a positive finite "
                               f"double (L^q norm {lq:g}, gradient norm {grad:g})")
        rows.append(ScanRow(member_id, scale, width, grad, lq, budget.value,
                            budget.tail_flagged, budget.value <= K, *ratios))
    rows.sort(key=lambda row: row.grad_norm)
    return FamilyScan(tuple(rows), K, sharpness_scale)
