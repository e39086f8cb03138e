"""Steepness functions and their analytic side conditions.

A steepness function L is a bounded, nondecreasing, continuous function on
[0, infinity) that vanishes slowly at 0.  Integrability of L(u) over R^n then
encodes exponential-type spatial decay of u.  Three families are provided:

* ``power_law``:      L(s) = s^r on all of [0, infinity),
* ``log_type``:       L(s) = ln^{-kappa}(M/s) below s0 = M/2, constant above,
* ``double_log_type``: L(s) = ln^{-kappa} ln(M/s) below a cutoff s0, constant above.

The log-type families satisfy the near-multiplicativity condition

    L(s) <= (1 + a*lambda) * L(s^{1+lambda})   for s in (0, s0), lambda in (0, lambda0),

with an explicit constant ``a``; the checks in this module probe that
condition and its differential consequences on user-supplied grids.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "SteepnessFunction",
    "HypothesisReport",
    "ConvexityReport",
    "check_near_multiplicativity",
    "check_ratio_bound",
    "check_convexity_condition",
    "solve_transcendental",
]

# Arguments below this are collapsed onto the s = 0 branch to dodge underflow
# in the interior logarithms.
_UNDERFLOW_FLOOR = 1e-300

REPORT_TOL = 1e-12
CALIBRATION_POINTS = 13     # grid of the transcendental bound's constant,
CALIBRATION_DECADES = 6.0   # geometric from delta0 down over this many decades


@dataclass(frozen=True)
class SteepnessFunction:
    """One steepness function with frozen parameters.

    Use the ``power_law`` / ``log_type`` / ``double_log_type`` constructors;
    they validate parameters and fill in the derived constants (cutoff ``s0``
    and the near-multiplicativity pair ``a``, ``lambda0``).
    """

    kind: str
    kappa: float = math.nan
    M: float = math.nan
    s0: float = math.inf
    a: float = math.nan
    lambda0: float = math.nan
    r: float = math.nan

    # -- constructors ------------------------------------------------------

    @classmethod
    def power_law(cls, r: float) -> "SteepnessFunction":
        if r <= 0:
            raise InputError(f"power exponent must be positive, got {r}")
        return cls(kind="PowerLaw", r=float(r), s0=math.inf)

    @classmethod
    def log_type(cls, kappa: float, M: float, lambda0: float = 1.0) -> "SteepnessFunction":
        """L(s) = ln^{-kappa}(M/s) for 0 < s < M/2, frozen at its s = M/2 value above.

        The constant ``a`` makes the near-multiplicativity inequality hold for
        every lambda in (0, lambda0): a = kappa when kappa <= 1, otherwise
        a = ((1+lambda0)^kappa - 1)/lambda0.
        """
        if kappa <= 0:
            raise InputError(f"kappa must be positive, got {kappa}")
        if M < 2:
            raise InputError(f"log_type requires M >= 2, got {M}")
        if lambda0 <= 0:
            raise InputError(f"lambda0 must be positive, got {lambda0}")
        if kappa <= 1.0:
            a = kappa
        else:
            a = ((1.0 + lambda0) ** kappa - 1.0) / lambda0
        return cls(kind="LogType", kappa=float(kappa), M=float(M), s0=M / 2.0,
                   a=float(a), lambda0=float(lambda0))

    @classmethod
    def double_log_type(cls, kappa: float, M: float, s0: float = 1.0,
                        lambda0: float = 1.0) -> "SteepnessFunction":
        """L(s) = ln^{-kappa} ln(M/s) for 0 < s < s0, frozen above.

        Requires M > e and 1 <= s0 < M/e.  The constant ``a`` is the smallest
        one satisfying the sufficient condition
        (1 + ln(1+lambda)/c1)^kappa <= 1 + a*lambda with c1 = ln ln(M/s0):
        when kappa <= 1 + c1 that map is concave in lambda and a = kappa/c1 is
        exact; otherwise the supremum of its secant slopes is taken on a dense
        lambda grid (with a one-ppm guard for between-grid points).
        """
        if kappa <= 0:
            raise InputError(f"kappa must be positive, got {kappa}")
        if M <= math.e:
            raise InputError(f"double_log_type requires M > e, got {M}")
        if not (1.0 <= s0 < M / math.e):
            raise InputError(f"double_log_type requires 1 <= s0 < M/e, got s0={s0}")
        if lambda0 <= 0:
            raise InputError(f"lambda0 must be positive, got {lambda0}")
        c1 = math.log(math.log(M / s0))
        if kappa <= 1.0 + c1:
            a = kappa / c1
        else:
            lam = np.geomspace(1e-8, lambda0, 2048)
            secants = ((1.0 + np.log1p(lam) / c1) ** kappa - 1.0) / lam
            a = float(secants.max()) * (1.0 + 1e-6)
        return cls(kind="DoubleLogType", kappa=float(kappa), M=float(M), s0=float(s0),
                   a=float(a), lambda0=float(lambda0))

    # -- evaluation --------------------------------------------------------

    def value(self, s):
        """Evaluate L at ``s`` (scalar or array), total on s >= 0."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0):
            raise InputError("steepness functions are defined on s >= 0 only")
        if self.kind == "PowerLaw":
            out = s_arr ** self.r
        elif self.kind in ("LogType", "DoubleLogType"):
            g = np.log(self.M / np.minimum(np.maximum(s_arr, _UNDERFLOW_FLOOR), self.s0))
            if self.kind == "DoubleLogType":
                g = np.log(g)
            out = np.where(s_arr < _UNDERFLOW_FLOOR, 0.0, g ** (-self.kappa))
        else:  # pragma: no cover - constructors forbid this
            raise InputError(f"unknown steepness kind {self.kind!r}")
        if np.isscalar(s) or s_arr.ndim == 0:
            return float(out)
        return out

    def _require_smooth_branch(self, s) -> np.ndarray:
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0) or np.any(s_arr >= self.s0):
            raise InputError(
                f"derivatives are defined on the smooth branch (0, {self.s0}) only")
        return s_arr

    def deriv1(self, s):
        """dL/ds on the smooth branch 0 < s < s0."""
        s_arr = self._require_smooth_branch(s)
        if self.kind == "PowerLaw":
            out = self.r * s_arr ** (self.r - 1.0)
        elif self.kind == "LogType":
            g = np.log(self.M / s_arr)
            out = (self.kappa / s_arr) * g ** (-self.kappa - 1.0)
        else:
            g = np.log(self.M / s_arr)
            out = self.kappa / (s_arr * g) * np.log(g) ** (-self.kappa - 1.0)
        return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out

    def deriv2(self, s):
        """d^2 L/ds^2 on the smooth branch 0 < s < s0."""
        s_arr = self._require_smooth_branch(s)
        k = self.kappa
        if self.kind == "PowerLaw":
            out = self.r * (self.r - 1.0) * s_arr ** (self.r - 2.0)
        elif self.kind == "LogType":
            g = np.log(self.M / s_arr)
            out = (k / s_arr**2) * g ** (-k - 1.0) * ((k + 1.0) / g - 1.0)
        else:
            g = np.log(self.M / s_arr)
            lg = np.log(g)
            out = (k / (s_arr**2 * g)) * lg ** (-k - 1.0) * (
                -1.0 + 1.0 / g + (k + 1.0) / (g * lg))
        return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for key in ("kappa", "M", "s0", "a", "lambda0", "r"):
            val = getattr(self, key)
            if not math.isnan(val) and not (key == "s0" and math.isinf(val)):
                doc[key] = val
        return doc

    @classmethod
    def _constructor(cls, kind: str):
        make = {"PowerLaw": cls.power_law, "LogType": cls.log_type,
                "DoubleLogType": cls.double_log_type}.get(kind)
        if make is None:
            raise InputError(f"unknown steepness kind {kind!r}")
        return make

    @classmethod
    def fields(cls, kind: str) -> dict:
        """The fields of a gauge kind, the parameters of its constructor, each
        with its default (None when required)."""
        return {name: None if par.default is par.empty else par.default
                for name, par in inspect.signature(cls._constructor(kind)).parameters.items()}

    @classmethod
    def from_json(cls, doc: dict) -> "SteepnessFunction":
        """The gauge of a ``to_json`` document; keys that are not fields of its
        kind (the derived ``a``, say) are ignored."""
        kind = doc.get("kind")
        return cls._constructor(kind)(**{key: doc[key] for key in cls.fields(kind)
                                         if key in doc})


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of a grid check of one analytic inequality.

    ``max_violation`` is a dimensionless relative excess (negative or zero
    when the inequality holds everywhere with margin); ``passed`` means it
    does not exceed REPORT_TOL.
    """

    max_violation: float
    worst_s: float
    worst_lambda: float
    passed: bool


@dataclass(frozen=True)
class ConvexityReport:
    """Both differential conditions behind the descent property.

    ``weak``: s L''(s) >= -((3p + q0 - 2)/(p + q0)) L'(s);
    ``strong``: d/ds (s L'(s)) >= 0, which implies the weak one for p >= 1.
    """

    weak: HypothesisReport
    strong: HypothesisReport

    @property
    def passed(self) -> bool:
        return self.weak.passed and self.strong.passed


def _worst(viol: np.ndarray, s: np.ndarray) -> HypothesisReport:
    """The largest violation on a one-dimensional grid s, and where it occurs."""
    i = int(np.argmax(viol))
    return HypothesisReport(float(viol[i]), float(s[i]), math.nan, float(viol[i]) <= REPORT_TOL)


def _as_grid(grid, name: str) -> np.ndarray:
    arr = np.asarray(grid, dtype=float).ravel()
    if arr.size == 0:
        raise InputError(f"{name} must be non-empty")
    return arr


def _log_value(L: SteepnessFunction, s: np.ndarray) -> np.ndarray:
    """ln L(s), finite where L(s) underflows; -inf on the s = 0 branch of ``value``."""
    if L.kind == "PowerLaw":
        return L.r * np.log(s)
    g = np.log(L.M / np.minimum(np.maximum(s, _UNDERFLOW_FLOOR), L.s0))
    if L.kind == "DoubleLogType":
        g = np.log(g)
    np.multiply(np.log(g, out=g), -L.kappa, out=g)
    g[s < _UNDERFLOW_FLOOR] = -np.inf
    return g


def check_near_multiplicativity(L: SteepnessFunction, lambda0: float, a: float,
                                s_grid, lambda_grid) -> HypothesisReport:
    """Check L(s) <= (1 + a*lambda) L(s^{1+lambda}) over a product grid.

    Requires s_grid inside (0, s0) and lambda_grid inside (0, lambda0).  The
    reported violation is max over the grid of L(s)/((1+a*lambda) L(s^{1+lambda})) - 1,
    taken from the logarithms of both sides, so a gauge whose values underflow
    is still judged.
    """
    s = _as_grid(s_grid, "s_grid")
    lam = _as_grid(lambda_grid, "lambda_grid")
    if np.any(s <= 0) or np.any(s >= L.s0):
        raise InputError("s_grid must lie inside (0, s0)")
    if np.any(lam <= 0) or np.any(lam >= lambda0):
        raise InputError("lambda_grid must lie inside (0, lambda0)")
    ln_powered = _log_value(L, s[:, None] ** (1.0 + lam[None, :]))
    viol = np.expm1(_log_value(L, s)[:, None] - np.log1p(a * lam[None, :]) - ln_powered)
    flat = int(np.argmax(viol))
    i, j = np.unravel_index(flat, viol.shape)
    worst = float(viol[i, j])
    return HypothesisReport(worst, float(s[i]), float(lam[j]), worst <= REPORT_TOL)


def check_ratio_bound(L: SteepnessFunction, a: float, s_grid) -> HypothesisReport:
    """Check the superalgebraic-growth bound s L'(s)/L(s) <= a / ln(1/s).

    The grid must lie in (0, min(s0, 1)); points >= 1 make the right side
    nonpositive and are rejected.  s L'/L is r, kappa/g or kappa/(g ln g) with
    g = ln(M/s), in closed form, so it stays finite where L underflows.
    """
    s = _as_grid(s_grid, "s_grid")
    if np.any(s >= 1.0):
        raise InputError("grid points must be < 1 (ln(1/s) <= 0 otherwise)")
    if np.any(s <= 0) or np.any(s >= L.s0):
        raise InputError("s_grid must lie inside (0, min(s0, 1))")
    if L.kind == "PowerLaw":
        lhs = L.r
    else:
        g = np.log(L.M / s)
        lhs = L.kappa / g if L.kind == "LogType" else L.kappa / (g * np.log(g))
    # lhs ln(1/s) / a rather than lhs / (a / ln(1/s)): a steep gauge's a
    # (2^kappa - 1 at kappa = 1000) would overflow the quotient
    return _worst(lhs * np.log(1.0 / s) / a - 1.0, s)


def check_convexity_condition(L: SteepnessFunction, p: float, q0: float,
                              s_grid) -> ConvexityReport:
    """Check both descent conditions on a grid inside the smooth branch.

    Both gaps are divided by L' > 0, which leaves t = s L''/L' in closed form:
    r - 1, (kappa + 1)/g - 1 or -1 + 1/g + (kappa + 1)/(g ln g) with
    g = ln(M/s).  So every grid point is judged, also where L' and L''
    underflow or overflow.  Violations are normalized by the magnitude of
    the participating terms, so the report stays dimensionless.
    """
    if p < 1:
        raise InputError(f"p >= 1 required, got {p}")
    if q0 <= 0:
        raise InputError(f"q0 > 0 required, got {q0}")
    s = _as_grid(s_grid, "s_grid")
    if np.any(s <= 0) or np.any(s >= L.s0):
        raise InputError("s_grid must lie inside (0, s0)")
    if L.kind == "PowerLaw":
        t = np.full_like(s, L.r - 1.0)
    else:
        g = np.log(L.M / s)
        if L.kind == "LogType":
            t = (L.kappa + 1.0) / g - 1.0
        else:
            t = -1.0 + 1.0 / g + (L.kappa + 1.0) / (g * np.log(g))
    coeff = (3.0 * p + q0 - 2.0) / (p + q0)     # >= 1 for p >= 1

    weak = _worst(-(t + coeff) / (np.abs(t) + coeff), s)    # s L'' + coeff L' >= 0
    strong = _worst(-(1.0 + t) / (1.0 + np.abs(t)), s)      # d/ds (s L') >= 0
    return ConvexityReport(weak, strong)


# -- transcendental bound ---------------------------------------------------

def _mass(L: SteepnessFunction, beta: float, gamma: float, eta: float) -> float:
    return eta ** beta * L.value(eta) ** gamma


def _solve_eta(L: SteepnessFunction, beta: float, gamma: float, delta: float) -> float:
    """Largest eta with eta^beta L^gamma(eta) <= delta, by bisection.

    The map is nondecreasing in eta (both factors are), so this is the
    crossing point of an increasing function.
    """
    lo = min(delta, 1e-4)
    for _ in range(2000):
        if _mass(L, beta, gamma, lo) <= delta:
            break
        lo *= 0.25
    else:
        raise NumericError("could not bracket the transcendental bound from below")
    hi = max(1.0, 2.0 * lo)
    for _ in range(200):
        if _mass(L, beta, gamma, hi) > delta:
            break
        hi *= 4.0
    else:
        raise NumericError("could not bracket the transcendental bound from above")
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if _mass(L, beta, gamma, mid) <= delta:
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=128)
def _transcendental_calibration(L: SteepnessFunction, beta: float, gamma: float,
                               delta0: float):
    """Calibrate C so that eta(delta) <= C delta^{1/beta} L^{-gamma/beta}(delta).

    The calibration grid is geometric from delta0 down over CALIBRATION_DECADES
    decades; C is the largest observed ratio, inflated by 1e-9 to absorb
    floating-point ties at the calibration points.  Returns (C, grid).
    """
    grid = np.geomspace(delta0, delta0 * 10.0 ** (-CALIBRATION_DECADES), CALIBRATION_POINTS)
    ratios = []
    for d in grid:
        eta = _solve_eta(L, beta, gamma, float(d))
        ratios.append(eta / (d ** (1.0 / beta) * L.value(float(d)) ** (-gamma / beta)))
    C = float(max(ratios)) * (1.0 + 1e-9)
    return C, grid


def solve_transcendental(L: SteepnessFunction, beta: float, gamma: float,
                         delta: float, delta0: float):
    """Solve eta^beta L^gamma(eta) <= delta two ways and return both.

    Returns ``(eta_bruteforce, eta_bound)`` where the first is the bisection
    answer and the second the calibrated closed form
    C * delta^{1/beta} * L^{-gamma/beta}(delta); the constant C is calibrated
    once per (L, beta, gamma, delta0) and cached.
    """
    lam0 = L.lambda0 if not math.isnan(L.lambda0) else math.inf
    if beta <= 1.0 / (1.0 + lam0):
        raise InputError(f"beta must exceed 1/(1+lambda0) = {1.0/(1.0+lam0)}")
    if gamma <= 0:
        raise InputError("gamma must be positive")
    if not (0 < delta <= delta0):
        raise InputError("delta must lie in (0, delta0]")
    eta_bf = _solve_eta(L, beta, gamma, delta)
    C, _ = _transcendental_calibration(L, beta, gamma, delta0)
    eta_bound = C * delta ** (1.0 / beta) * L.value(delta) ** (-gamma / beta)
    return eta_bf, eta_bound
