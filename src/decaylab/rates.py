"""Decay-rate fitting and calibrated bound persistence checks.

The asymptotic models are t^{-1/p} times a slowly varying correction:

* ``PureAlgebraic``     v(t) = C t^{-p_fit},
* ``LogCorrected``      v(t) = C t^{-1/p} ln^sigma(t),
* ``LogLogCorrected``   v(t) = C t^{-1/p} (ln ln t)^sigma.

Fits are ordinary least squares in logarithmic coordinates, so rescaling the
series only moves the prefactor.  All bound checks follow one methodology:
the non-constructive constant of an inequality is calibrated at the start of
the observation window (or on its first decade) and the inequality must then
persist over the remaining decades within a fixed ratio slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .bounds import DecayEnvelope, lower_bound_curve
from .errors import InputError
from .evolution import EvolutionRun
from .steepness import SteepnessFunction

__all__ = [
    "RateFit",
    "fit_decay",
    "BoundCheck",
    "upper_bound_curve",
    "upper_bound_check",
    "lower_bound_persistence",
    "BaselineReport",
    "baseline_check",
    "SandwichVerdict",
    "sandwich_report",
]

RATIO_SLACK = 0.1
EXPONENT_SLACK = 0.1
MIN_WINDOW_DECADES = 1.5
# Envelope headroom for the near-algebraic baseline: over a 3-decade window a
# slowly varying correction as strong as ln^{1.8} t gains about this factor
# against t^{0.1}, so a tighter constant would reject genuine solutions.
BASELINE_HEADROOM = 5.0


@dataclass(frozen=True)
class RateFit:
    model: str
    p_fit: float
    sigma: float
    C_fit: float
    rms_residual: float
    t_window: tuple
    n_points: int

    def to_json(self) -> dict:
        return asdict(self)


def _window(times, values, t_lo, t_hi):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if np.any(np.diff(t) <= 0):
        raise InputError("times must be strictly increasing")
    if np.any(v[t > 0] <= 0):
        raise InputError("series values must be positive")
    hi = t[-1] if t_hi is None else t_hi
    mask = (t >= t_lo) & (t <= hi)
    if mask.sum() < 3:
        raise InputError(f"window [{t_lo}, {hi}] holds fewer than 3 samples")
    return t[mask], v[mask]


def fit_decay(times, values, p: float, model: str,
              window: tuple = (10.0, None)) -> RateFit:
    """Least-squares fit of a decay model over a (log-)window of the series.

    LogCorrected regresses ln(t^{1/p} v) on ln ln t; LogLogCorrected on
    ln ln ln t; PureAlgebraic regresses ln v on ln t and reports the algebraic
    exponent.  Windows shorter than 1.5 decades are refused: the corrections
    are not identifiable there.
    """
    t, v = _window(times, values, window[0], window[1])
    decades = math.log10(t[-1] / t[0])
    if decades < MIN_WINDOW_DECADES:
        raise InputError(
            f"window spans {decades:.2f} decades < {MIN_WINDOW_DECADES}; "
            "rate fits need a longer horizon")
    if model == "PureAlgebraic":
        x = np.log(t)
        y = np.log(v)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        return RateFit("PureAlgebraic", float(-slope), 0.0, float(math.exp(intercept)),
                       float(np.sqrt(np.mean(resid**2))), (float(t[0]), float(t[-1])),
                       int(t.size))
    if model == "LogCorrected":
        if t[0] <= 1.0:
            raise InputError("LogCorrected needs t > 1")
        x = np.log(np.log(t))
    elif model == "LogLogCorrected":
        if t[0] <= math.e:
            raise InputError("LogLogCorrected needs t > e")
        x = np.log(np.log(np.log(t)))
    else:
        raise InputError(f"unknown model {model!r}")
    y = np.log(t ** (1.0 / p) * v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(model, 1.0 / p, float(slope), float(math.exp(intercept)),
                   float(np.sqrt(np.mean(resid**2))), (float(t[0]), float(t[-1])),
                   int(t.size))


@dataclass(frozen=True)
class BoundCheck:
    worst_ratio: float
    worst_t: float
    C: float
    t0: float
    slack: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def upper_bound_curve(L: SteepnessFunction, p: float, n: int, C: float,
                      t_grid) -> np.ndarray:
    """C * t^{-1/p} * L(1/t)^{-2/(np)} on the given times."""
    t = np.asarray(t_grid, dtype=float)
    return C * t ** (-1.0 / p) * L.value(1.0 / t) ** (-2.0 / (n * p))


def _persistence(t, v, curve, direction: str, slack: float,
                 calibration_decades: float = 1.0) -> BoundCheck:
    """Calibrate the curve's constant, then track the worst ratio against v.

    ``upper``: C = v/curve at the first sample, and v <= (1+slack) C curve is
    required strictly after it.  ``lower``: C is the minimum of v/curve over
    the window's first ``calibration_decades``, and C curve <= (1+slack) v is
    required over the whole window.
    """
    if direction == "upper":
        C = v[0] / curve[0]
        ratios = v[1:] / (C * curve[1:])
        first = 1
    else:
        cal = t <= t[0] * 10.0 ** calibration_decades
        C = np.min(v[cal] / curve[cal])
        ratios = C * curve / v
        first = 0
    k = int(np.argmax(ratios))
    return BoundCheck(float(ratios[k]), float(t[k + first]), float(C), float(t[0]),
                      slack, bool(ratios[k] <= 1.0 + slack))


def upper_bound_check(times, values, L: SteepnessFunction, p: float, n: int,
                      t0: float = 10.0, t_hi: Optional[float] = None,
                      slack: float = RATIO_SLACK) -> BoundCheck:
    """Persistence of v(t) <= C t^{-1/p} L^{-2/(np)}(1/t) after calibration at t0."""
    t, v = _window(times, values, t0, t_hi)
    return _persistence(t, v, upper_bound_curve(L, p, n, 1.0, t), "upper", slack)


def lower_bound_persistence(times, values, env: DecayEnvelope, p: float,
                            c1: Optional[float] = None, t0: float = 10.0,
                            t_hi: Optional[float] = None,
                            calibration_decades: float = 1.0,
                            slack: float = RATIO_SLACK) -> BoundCheck:
    """Calibrate the lower curve on the window's first decade, then require
    C*curve <= (1+slack) * v over the whole window."""
    c1 = 1.0 / (2.0 * p) if c1 is None else c1
    t, v = _window(times, values, t0, t_hi)
    return _persistence(t, v, lower_bound_curve(env, p, c1, 1.0, t), "lower", slack,
                        calibration_decades)


@dataclass(frozen=True)
class BaselineReport:
    """Near-algebraic baseline: envelope obedience and compensated growth.

    (i) v(t) <= C t^{-1/p+delta} with C calibrated at the window start times
    a documented headroom (the delta-envelope cannot separate logarithmic
    corrections from t^delta over a few decades, so this is a sanity bound);
    (ii) t^{1/p} v(t) must be nondecreasing over the window's final decade,
    the actual signature of slowly-varying corrections.
    """

    envelope_worst_ratio: float
    envelope_passed: bool
    headroom: float
    increasing_tail: bool
    delta: float

    @property
    def passed(self) -> bool:
        return self.envelope_passed and self.increasing_tail

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["passed"] = self.passed
        return doc


def baseline_check(times, values, p: float, delta: float = 0.1,
                   t0: float = 10.0, t_hi: Optional[float] = None,
                   headroom: float = BASELINE_HEADROOM) -> BaselineReport:
    t, v = _window(times, values, t0, t_hi)
    if math.log10(t[-1] / t[0]) < 2.0:
        raise InputError("baseline check needs a window of at least 2 decades")
    compensated = v * t ** (1.0 / p - delta)
    C = headroom * compensated[0]
    worst = float(compensated.max() / C)

    tail = t >= t[-1] / 10.0
    growth = v[tail] * t[tail] ** (1.0 / p)
    increasing = bool(np.all(np.diff(growth) >= -1e-8 * growth[:-1]))
    return BaselineReport(worst, worst <= 1.0, headroom, increasing, delta)


@dataclass(frozen=True)
class SandwichVerdict:
    """Combined two-sided rate verdict for one run."""

    fit: RateFit
    upper: BoundCheck
    lower: BoundCheck
    sigma_target: float
    sigma_window: tuple
    sigma_ok: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "fit": self.fit.to_json(),
            "upper": self.upper.to_json(),
            "lower": self.lower.to_json(),
            "sigma_target": self.sigma_target,
            "sigma_window": list(self.sigma_window),
            "sigma_ok": self.sigma_ok,
            "pass": self.passed,
        }


def sandwich_report(run: EvolutionRun, env: DecayEnvelope, L: SteepnessFunction,
                    p: float, n: int, delta: float,
                    window: tuple = (10.0, None), c1: Optional[float] = None,
                    slack: float = RATIO_SLACK) -> SandwichVerdict:
    """Fit the sup-norm series and check both calibrated bounds.

    The steepness exponent must match the envelope: kappa = n/beta + n p delta/2
    for stretched-exponential envelopes (gamma replaces beta for doubly
    exponential ones).  The fitted correction exponent must land in
    [target - 0.1, target + delta + 0.1] with target 2/(p beta) or 2/(p gamma).
    """
    if env.kind == "StretchedExp":
        shape, model, wanted_kind = env.beta, "LogCorrected", "LogType"
    else:
        shape, model, wanted_kind = env.gamma, "LogLogCorrected", "DoubleLogType"
    kappa_expected = n / shape + n * p * delta / 2.0
    if L.kind != wanted_kind:
        raise InputError(
            f"steepness kind {L.kind} inconsistent with envelope kind {env.kind}")
    if abs(L.kappa - kappa_expected) > 1e-9:
        raise InputError(
            f"steepness exponent kappa = {L.kappa} inconsistent with envelope: "
            f"expected n/shape + n*p*delta/2 = {kappa_expected}")

    t = run.times
    v = run.series["sup_norm"]
    fit = fit_decay(t, v, p, model, window)
    upper = upper_bound_check(t, v, L, p, n, t0=window[0], t_hi=window[1], slack=slack)
    lower = lower_bound_persistence(t, v, env, p, c1=c1, t0=window[0],
                                    t_hi=window[1], slack=slack)
    target = 2.0 / (p * shape)
    lo = target - EXPONENT_SLACK
    hi = target + delta + EXPONENT_SLACK
    sigma_ok = lo <= fit.sigma <= hi
    return SandwichVerdict(fit, upper, lower, target, (lo, hi), sigma_ok,
                           bool(sigma_ok and upper.passed and lower.passed))
