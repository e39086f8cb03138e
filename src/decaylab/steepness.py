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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "SteepnessFunction",
    "HypothesisReport",
    "check_near_multiplicativity",
    "check_ratio_bound",
    "check_convexity_condition",
    "POWER_LAW_FAILURES",
    "solve_transcendental",
]

REPORT_TOL = 1e-12


def _bisect(holds, lo: float, hi: float) -> float:
    """The boundary between lo, where ``holds`` is true, and hi, where it is
    not: halve [lo, hi] until no double lies strictly inside, and return lo."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
        mid = 0.5 * (lo + hi)
    return lo


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

    def __post_init__(self):
        if math.isinf(self.a):
            raise InputError(f"the near-multiplicativity constant a overflows a double at "
                             f"kappa = {self.kappa:g}, lambda0 = {self.lambda0:g}")

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
        try:
            a = kappa if kappa <= 1.0 else ((1.0 + lambda0) ** kappa - 1.0) / lambda0
        except OverflowError:  # refused by __post_init__
            a = math.inf
        return cls(kind="LogType", kappa=float(kappa), M=float(M), s0=M / 2.0,
                   a=float(a), lambda0=float(lambda0))

    @classmethod
    def double_log_type(cls, kappa: float, M: float, s0: float = 1.0,
                        lambda0: float = 1.0) -> "SteepnessFunction":
        """L(s) = ln^{-kappa} ln(M/s) for 0 < s < s0, frozen above.

        Requires M > e and 1 <= s0 < M/e.  The constant ``a`` is the smallest
        one satisfying the sufficient condition g(lambda) <= 1 + a*lambda,
        g = (1 + ln(1+lambda)/c1)^kappa with c1 = ln ln(M/s0): the supremum
        over (0, lambda0) of the secant slope (g - 1)/lambda.  g is convex
        while ln(1+lambda) < kappa - 1 - c1 and concave after, so the slope
        rises while lambda g' - (g - 1) > 0 and falls after: its supremum is
        its value at the root of lambda g' = g - 1, or at lambda0 if that
        comes first.  When kappa <= 1 + c1, g is concave throughout and the
        supremum is the slope g'(0) = kappa/c1.
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

        def rising(lam):  # lambda g' > g - 1, both sides divided by g, which may overflow
            u = math.log1p(lam)
            return kappa * lam / ((1.0 + lam) * (c1 + u)) > 1.0 - math.exp(
                -kappa * math.log1p(u / c1))
        excess = kappa - 1.0 - c1  # g is convex while ln(1+lambda) < excess
        if excess <= 0.0:
            a = kappa / c1
        else:
            lam = lambda0 if rising(lambda0) else _bisect(rising, math.expm1(excess), lambda0)
            try:
                a = math.expm1(kappa * math.log1p(math.log1p(lam) / c1)) / lam
            except OverflowError:  # refused by __post_init__
                a = math.inf
        return cls(kind="DoubleLogType", kappa=float(kappa), M=float(M), s0=float(s0),
                   a=float(a), lambda0=float(lambda0))

    # -- evaluation --------------------------------------------------------

    def log_value(self, ln_s):
        """ln L at ln s (scalar or array), the one formula of each kind:
        r ln s, -kappa ln(ln M - ln s) or -kappa ln ln(ln M - ln s), with ln s
        clamped at ln s0.  It stays finite where s underflows a double, and is
        -inf at ln s = -inf, where L is 0."""
        ln_s = np.minimum(ln_s, math.log(self.s0))
        if self.kind == "PowerLaw":
            return self.r * ln_s
        g = math.log(self.M) - ln_s
        if self.kind == "DoubleLogType":
            g = np.log(g)
        return -self.kappa * np.log(g)

    def value(self, s):
        """Evaluate L at ``s`` (scalar or array), total on s >= 0: s^r for
        PowerLaw, exp(log_value(ln s)) for the log kinds."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0):
            raise InputError("steepness functions are defined on s >= 0 only")
        if self.kind == "PowerLaw":
            out = s_arr ** self.r
        else:
            with np.errstate(divide="ignore"):  # ln 0 = -inf, where L is 0
                out = np.exp(self.log_value(np.log(s_arr)))
        if np.isscalar(s) or s_arr.ndim == 0:
            return float(out)
        return out

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


def _worst(viol: np.ndarray, s: np.ndarray) -> HypothesisReport:
    """The largest violation on a one-dimensional grid s, and where it occurs."""
    i = int(np.argmax(viol))
    return HypothesisReport(float(viol[i]), float(s[i]), math.nan, float(viol[i]) <= REPORT_TOL)


def _as_grid(grid, name: str) -> np.ndarray:
    arr = np.asarray(grid, dtype=float).ravel()
    if arr.size == 0:
        raise InputError(f"{name} must be non-empty")
    return arr


# s^r meets neither condition, whatever the constant a: why each one fails
POWER_LAW_FAILURES = {
    "near_multiplicativity": "L(s)/L(s^(1+lambda)) = s^(-r lambda) is unbounded as s -> 0",
    "ratio_bound": "s L'(s)/L(s) = r, while a/ln(1/s) -> 0 as s -> 0",
}


def _refuse_power_law(L: SteepnessFunction, check: str):
    if L.kind == "PowerLaw":  # no grid can judge a condition that fails at any a
        raise InputError(f"PowerLaw fails {check} at any a: {POWER_LAW_FAILURES[check]}")


def check_near_multiplicativity(L: SteepnessFunction, s_grid, lambda_grid) -> HypothesisReport:
    """Check L(s) <= (1 + a*lambda) L(s^{1+lambda}) over a product grid, a and lambda0 L's.

    Requires a log-type L, s_grid inside (0, s0) and lambda_grid inside (0, lambda0).
    The reported violation is max over the grid of L(s)/((1+a*lambda) L(s^{1+lambda})) - 1,
    taken from the logarithms of both sides, ln L(s^{1+lambda}) from (1+lambda) ln s,
    so a gauge whose values underflow, or a power s^{1+lambda} that underflows, is judged.
    """
    _refuse_power_law(L, "near_multiplicativity")
    s = _as_grid(s_grid, "s_grid")
    lam = _as_grid(lambda_grid, "lambda_grid")
    if np.any(s <= 0) or np.any(s >= L.s0):
        raise InputError("s_grid must lie inside (0, s0)")
    if np.any(lam <= 0) or np.any(lam >= L.lambda0):
        raise InputError("lambda_grid must lie inside (0, lambda0)")
    ln_s = np.log(s)
    ln_powered = L.log_value(ln_s[:, None] * (1.0 + lam[None, :]))
    viol = np.expm1(L.log_value(ln_s)[:, None] - np.log1p(L.a * lam[None, :]) - ln_powered)
    i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
    worst = float(viol[i, j])
    return HypothesisReport(worst, float(s[i]), float(lam[j]), worst <= REPORT_TOL)


def check_ratio_bound(L: SteepnessFunction, s_grid) -> HypothesisReport:
    """Check the superalgebraic-growth bound s L'(s)/L(s) <= a / ln(1/s), a being L's.

    Requires a log-type L and a grid in (0, min(s0, 1)); points >= 1 make the
    right side nonpositive and are rejected.  s L'/L is kappa/g or kappa/(g ln g)
    with g = ln(M/s), in closed form, so it stays finite where L underflows.
    """
    _refuse_power_law(L, "ratio_bound")
    s = _as_grid(s_grid, "s_grid")
    if np.any(s >= 1.0):
        raise InputError("grid points must be < 1 (ln(1/s) <= 0 otherwise)")
    if np.any(s <= 0) or np.any(s >= L.s0):
        raise InputError("s_grid must lie inside (0, min(s0, 1))")
    g = np.log(L.M / s)
    lhs = L.kappa / g if L.kind == "LogType" else L.kappa / (g * np.log(g))
    # lhs ln(1/s) / a rather than lhs / (a / ln(1/s)): a steep gauge's a
    # (2^kappa - 1 at kappa = 1000) would overflow the quotient
    return _worst(lhs * np.log(1.0 / s) / L.a - 1.0, s)


def check_convexity_condition(L: SteepnessFunction, s_grid) -> HypothesisReport:
    """Check d/ds (s L'(s)) >= 0 on a grid inside the smooth branch.  It implies
    the descent condition s L'' >= -((3p + q - 2)/(p + q)) L' of every p >= 1, q > 0,
    whose coefficient is at least 1.  The gap is divided by L' > 0, which leaves
    t = s L''/L' in closed form: r - 1, (kappa + 1)/g - 1 or -1 + 1/g + (kappa + 1)/(g ln g)
    with g = ln(M/s), so every point is judged, also where L' and L'' underflow or
    overflow.  The violation is normalized by |t| + 1, so it stays dimensionless.
    """
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
    return _worst(-(1.0 + t) / (1.0 + np.abs(t)), s)


# -- transcendental bound ---------------------------------------------------

def _solve_eta(L: SteepnessFunction, beta: float, gamma: float, delta: float) -> float:
    """Largest eta with eta^beta L^gamma(eta) <= delta, to one ulp: the map is
    nondecreasing in eta (both factors are) and 0 at eta = 0.  The bracket
    steps ln eta by ln 4, so it ends also where eta underflows to 0."""
    def fits(eta):
        return eta ** beta * L.value(eta) ** gamma <= delta
    step = math.log(4.0)
    lo = math.log(min(delta, 1e-4))
    while not fits(math.exp(lo)):
        lo -= step
    hi = lo + step  # the last guess that did not fit, if lo is not the first
    while fits(math.exp(hi)):
        if hi > math.log(1e120):
            raise NumericError("could not bracket the transcendental bound from above")
        hi += step
    return _bisect(fits, math.exp(lo), math.exp(hi))


def solve_transcendental(L: SteepnessFunction, beta: float, gamma: float,
                         delta: float, delta0: float):
    """Solve eta^beta L^gamma(eta) <= delta two ways: return the bisection
    answer and the bound C delta^{1/beta} L^{-gamma/beta}(delta), C the supremum
    over (0, delta0] of ratio(delta) = eta(delta) / (delta^{1/beta} L^{-gamma/beta}(delta)).

    PowerLaw, L = s^r: ratio = delta^e, e = 1/(beta + r gamma) - (1 - r gamma)/beta,
    so C = delta0^e; e < 0 is refused, the ratio being unbounded.
    LogType, L = ln^{-kappa}(M/s): with X = ln(M/eta) the constraint reads
    ln(1/delta) = beta X + kappa gamma ln X - beta ln M, and
    ratio = f(X)^{kappa gamma/beta} with f = X / (beta X + (1 - beta) ln M + kappa gamma ln X).
    The sign of f' is that of (1 - beta) ln M + kappa gamma (ln X - 1), which
    increases in X: f falls and then rises, or only rises.  X grows as delta
    falls to 0, and f -> 1/beta.  So C = max(ratio(delta0), beta^{-kappa gamma/beta}),
    which needs delta0 and eta(delta0) on the log branch (0, s0).
    DoubleLogType is refused: no C is derived for it.  So is a delta at which
    eta or the bound is not a positive normal double.
    """
    def log_form(d):  # ln(d^{1/beta} L^{-gamma/beta}(d))
        return (math.log(d) - gamma * float(L.log_value(math.log(d)))) / beta
    lam0 = L.lambda0 if not math.isnan(L.lambda0) else math.inf
    if beta <= 1.0 / (1.0 + lam0):
        raise InputError(f"beta must exceed 1/(1+lambda0) = {1.0/(1.0+lam0)}")
    if gamma <= 0:
        raise InputError("gamma must be positive")
    if not (0 < delta <= delta0):
        raise InputError("delta must lie in (0, delta0]")
    if L.kind == "PowerLaw":
        e = 1.0 / (beta + L.r * gamma) - (1.0 - L.r * gamma) / beta
        if e < 0:
            raise InputError(f"PowerLaw: the ratio delta^{e:.4g} is unbounded as delta -> 0")
        ln_C = e * math.log(delta0)
    elif L.kind == "LogType":
        eta0 = _solve_eta(L, beta, gamma, delta0) if delta0 < L.s0 else math.inf
        if not eta0 < L.s0:
            raise InputError(f"delta0 = {delta0:g} and eta(delta0) = {eta0:.6g} must lie "
                             f"below s0 = {L.s0:g}")
        if eta0 < sys.float_info.min:  # and so is eta(delta) <= eta(delta0)
            raise InputError(f"delta0 = {delta0:g} underflows: eta = {eta0:.3g}")
        ln_C = max(math.log(eta0) - log_form(delta0), -L.kappa * gamma / beta * math.log(beta))
    else:
        raise InputError(f"the transcendental bound has no derived constant for {L.kind}")
    eta_bf = _solve_eta(L, beta, gamma, delta)
    with np.errstate(over="ignore"):
        eta_bound = float(np.exp(ln_C + log_form(delta)))
    if not (sys.float_info.min <= eta_bf and sys.float_info.min <= eta_bound < math.inf):
        raise InputError(f"delta = {delta:g} underflows: eta = {eta_bf:.3g}, "
                         f"bound = {eta_bound:.3g}")
    return eta_bf, eta_bound
