"""Numerical probes of Gagliardo-Nirenberg-type interpolation inequalities.

Two ratio functionals are evaluated on radial profiles:

* the classical interpolation ratio  ||phi||_q / (||phi||_r^theta ||grad phi||_2^{1-theta}),
* the steepness-weighted ratio       ||phi||_q / (||grad phi||_2 * L^{-alpha}(||grad phi||_2^2))
  with alpha = 1/q - (n-2)/(2n), whose boundedness over families with a
  common steepness-integral budget is the inequality under test.

Family scans drive the steepness-weighted ratio across dilated and rescaled
copies of a template profile and report boundedness and sharpness probes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import DecayEnvelope
from .errors import BudgetError, InputError
from .radial import RadialGrid, RadialProfile, grad_l2_norm, lq_quasinorm, steepness_integral
from .steepness import SteepnessFunction

__all__ = [
    "GNRequest",
    "FamilySpec",
    "FamilyScan",
    "ScanRow",
    "classical_gn_ratio",
    "steepness_gn_ratio",
    "family_scan",
]


@dataclass(frozen=True)
class GNRequest:
    """Exponents and budget for one inequality evaluation.

    ``n`` is the ambient dimension, ``q`` the target Lebesgue exponent.  The
    classical mode additionally needs (r, theta); the steepness-weighted mode
    needs (L, K).
    """

    n: int
    q: float
    L: Optional[SteepnessFunction] = None
    K: Optional[float] = None
    r: Optional[float] = None
    theta: Optional[float] = None

    def __post_init__(self):
        if self.q <= 0:
            raise InputError(f"q must be positive, got {self.q}")

    @property
    def alpha(self) -> float:
        """Exponent 1/q - (n-2)/(2n) of the steepness weight.

        Positive exactly when q stays below the critical exponent
        2n/(n-2)_+, which the steepness-weighted mode requires.
        """
        return 1.0 / self.q - (self.n - 2.0) / (2.0 * self.n)

    def require_subcritical(self):
        if self.alpha <= 0:
            raise InputError(
                f"q = {self.q} must stay below the critical exponent "
                f"2n/(n-2) = {2*self.n/(self.n-2)} in dimension n = {self.n}")


def classical_gn_ratio(phi: RadialProfile, req: GNRequest) -> float:
    """||phi||_q / (||phi||_r^theta * ||grad phi||_2^{1-theta}).

    Validates the exponent relation 1/q = theta/r + (1-theta)(1/2 - 1/n).
    """
    if req.r is None or req.theta is None:
        raise InputError("classical mode needs r and theta")
    if not (1.0 <= req.r < req.q):
        raise InputError(f"need 1 <= r < q, got r={req.r}, q={req.q}")
    if not (0.0 <= req.theta <= 1.0):
        raise InputError(f"theta must lie in [0, 1], got {req.theta}")
    lhs = 1.0 / req.q
    rhs = req.theta / req.r + (1.0 - req.theta) * (0.5 - 1.0 / req.n)
    if abs(lhs - rhs) > 1e-12:
        raise InputError(
            f"exponent relation violated: 1/q = {lhs} vs theta/r + (1-theta)(1/2 - 1/n) = {rhs}")
    num = lq_quasinorm(phi, req.q)
    norm_r = lq_quasinorm(phi, req.r)
    grad = grad_l2_norm(phi)
    denom = norm_r ** req.theta * grad ** (1.0 - req.theta)
    if denom == 0.0:
        raise InputError("trivial profile: zero denominator")
    return num / denom


def _weighted_ratio(lq: float, grad: float, L: SteepnessFunction, alpha: float) -> float:
    """lq / (grad * L^{-alpha}(grad^2)), for steepness_gn_ratio and family_scan."""
    return lq / (grad * L.value(grad * grad) ** (-alpha))


def steepness_gn_ratio(phi: RadialProfile, req: GNRequest,
                       alpha_scale: float = 1.0) -> float:
    """Candidate constant ||phi||_q / (||grad phi||_2 * L^{-alpha}(||grad phi||_2^2)).

    Precondition: the steepness integral of phi stays within the budget K.
    ``alpha_scale`` perturbs the exponent for sharpness probes.
    """
    if req.L is None or req.K is None:
        raise InputError("steepness-weighted mode needs L and K")
    req.require_subcritical()
    budget = steepness_integral(phi, req.L)
    if budget.value > req.K:
        raise BudgetError(
            f"steepness integral {budget.value:.6g} exceeds budget K = {req.K:.6g}")
    grad = grad_l2_norm(phi)
    if grad == 0.0:
        raise InputError("trivial profile: zero gradient norm")
    return _weighted_ratio(lq_quasinorm(phi, req.q), grad, req.L, req.alpha * alpha_scale)


@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter family of radial bump profiles.

    Each member is ``scale * envelope.floor(r / width)`` for the closed-form
    decay envelope built from ``kind``, ``c0``, ``alpha``, ``beta`` and
    ``gamma``: scale * c0 * exp(-alpha (r/width)^beta) for ``"StretchedExp"``,
    scale * c0 * exp(-alpha exp(beta (r/width)^gamma)) for ``"DoubleExp"``.
    ``scales`` and ``widths`` are zipped into members; a singleton list is
    broadcast against the other.
    """

    kind: str
    c0: float
    alpha: float
    beta: float
    gamma: Optional[float] = None
    scales: Sequence[float] = (1.0,)
    widths: Sequence[float] = (1.0,)
    envelope: DecayEnvelope = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "envelope", DecayEnvelope(
            self.kind, c0=self.c0, alpha=self.alpha, beta=self.beta, gamma=self.gamma))
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

    def profile(self, grid: RadialGrid, scale: float, width: float) -> RadialProfile:
        return RadialProfile.sample(grid, lambda r: scale * self.envelope.floor(r / width))


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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["member_id", "width", "scale", "grad_norm", "lq_norm",
                         "budget", "ratio"])
        for row in self.rows:
            writer.writerow([row.member_id, f"{row.width:.17g}", f"{row.scale:.17g}",
                             f"{row.grad_norm:.17g}", f"{row.lq_norm:.17g}",
                             f"{row.budget:.17g}", f"{row.ratio:.17g}"])
        return buf.getvalue()

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
        }


def family_scan(fam: FamilySpec, req: GNRequest, grid: RadialGrid,
                alpha_scale: float = 1.0) -> FamilyScan:
    """Evaluate the steepness-weighted ratio across a family.

    Members must be resolvable on the grid (width <= R/5).  When the request
    carries no budget, K defaults to 1.05x the largest member budget so the
    precondition is non-vacuous but satisfiable.  Budget violations are
    recorded per member, not fatal.
    """
    if req.L is None:
        raise InputError("family scans need a steepness function on the request")
    req.require_subcritical()
    members = fam.members()
    if not members:
        raise InputError("family has no members")
    if max(w for _, w in members) > grid.R / 5.0:
        raise InputError("widest member is not resolvable: need width <= R/5")

    profiles = [fam.profile(grid, s, w) for s, w in members]
    budgets = [steepness_integral(p, req.L) for p in profiles]
    K = req.K if req.K is not None else 1.05 * max(b.value for b in budgets)
    alpha = req.alpha * alpha_scale

    rows = []
    for (scale, width), prof, budget in zip(members, profiles, budgets):
        grad = grad_l2_norm(prof)
        lq = lq_quasinorm(prof, req.q)
        ok = budget.value <= K
        ratio = _weighted_ratio(lq, grad, req.L, alpha) if grad > 0 else math.nan
        rows.append(ScanRow(f"s{scale:g}_w{width:g}", scale, width, grad, lq,
                            budget.value, budget.tail_flagged, ok, ratio))
    rows.sort(key=lambda row: row.grad_norm)

    ratios = np.array([row.ratio for row in rows])
    grads = np.array([row.grad_norm for row in rows])
    if len(rows) > 1:
        slope = float(np.polyfit(np.log(grads), np.log(ratios), 1)[0])
    else:
        slope = 0.0
    return FamilyScan(tuple(rows), float(ratios.max()), float(ratios.min()),
                      slope, K, alpha_scale)
