"""Decay-rate fitting and calibrated bound persistence checks.

The asymptotic models are t^{-1/p} times a slowly varying correction:

* ``LogCorrected``      v(t) = C t^{-1/p} ln^sigma(t),
* ``LogLogCorrected``   v(t) = C t^{-1/p} (ln ln t)^sigma.

Fits are ordinary least squares in logarithmic coordinates, so rescaling the
series only moves the prefactor.  All bound checks follow one methodology:
the non-constructive constant of an inequality is calibrated at the start of
the observation window (or on its first decade) and the inequality must then
persist over the remaining decades within a fixed ratio slack.  The window is
selected once, by ``rate_window``; every check takes its (t, v) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .bounds import DecayEnvelope, lower_bound_curve
from .errors import InputError
from .evolution import EvolutionRun
from .steepness import SteepnessFunction

__all__ = [
    "RateFit",
    "rate_window",
    "fit_decay",
    "BoundCheck",
    "upper_bound_curve",
    "upper_bound_check",
    "lower_bound_persistence",
    "rate_model",
    "BaselineReport",
    "baseline_tail",
    "baseline_check",
    "SandwichVerdict",
    "sandwich_report",
]

RATIO_SLACK = 0.1
EXPONENT_SLACK = 0.1
MIN_WINDOW_DECADES = 2.0   # every rate window spans at least this many decades
CALIBRATION_DECADES = 1.0   # a lower curve's constant is calibrated on these first decades
GAUGE_M = 4.0   # M of every rate gauge (rate_model)
BASELINE_DELTA = 0.1
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


def rate_window(times, window: tuple, model: str) -> np.ndarray:
    """The mask of the snapshots in window = [t_lo, t_hi] (t_hi None: the last time).

    Every rate check and curve reads this one slice.  It holds at least 3
    snapshots, spans MIN_WINDOW_DECADES decades, where the slowly varying
    corrections are identifiable, and starts above t = 1 (LogCorrected) or
    t = e (LogLogCorrected), where the model's iterated logarithm is positive.
    """
    starts = {"LogCorrected": 1.0, "LogLogCorrected": math.e}
    if model not in starts:
        raise InputError(f"unknown model {model!r}")
    t = np.asarray(times, dtype=float)
    if np.any(np.diff(t) <= 0):
        raise InputError("times must be strictly increasing")
    t_lo, t_hi = window
    hi = t[-1] if t_hi is None else t_hi
    mask = (t >= t_lo) & (t <= hi)
    if mask.sum() < 3:
        raise InputError(f"window [{t_lo}, {hi}] holds fewer than 3 samples")
    first, last = t[mask][[0, -1]]
    if first <= starts[model]:
        raise InputError(f"window [{t_lo}, {hi}] must start above t = {starts[model]:g}")
    if math.log10(last / first) < MIN_WINDOW_DECADES:
        raise InputError(f"window [{t_lo}, {hi}] spans {math.log10(last / first):.2f} "
                         f"decades < {MIN_WINDOW_DECADES:g}; {model} needs a longer horizon")
    return mask


def fit_decay(t, v, p: float, model: str) -> RateFit:
    """Least-squares fit of a decay model to the series v on the window times t.

    LogCorrected regresses ln(t^{1/p} v) on ln ln t; LogLogCorrected on
    ln ln ln t.  The times are a window that ``rate_window`` accepted for the
    model.
    """
    t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
    if model not in ("LogCorrected", "LogLogCorrected"):
        raise InputError(f"unknown model {model!r}")
    if np.any(v <= 0):
        raise InputError("series values must be positive")
    x = np.log(np.log(t)) if model == "LogCorrected" else np.log(np.log(np.log(t)))
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


def upper_bound_curve(L: SteepnessFunction, p: float, n: int, C: float,
                      t_grid) -> np.ndarray:
    """C * t^{-1/p} * L(1/t)^{-2/(np)} on the given times."""
    t = np.asarray(t_grid, dtype=float)
    return C * t ** (-1.0 / p) * L.value(1.0 / t) ** (-2.0 / (n * p))


def _persistence(t, v, curve, direction: str) -> BoundCheck:
    """Calibrate the curve's constant, then track the worst ratio against v.

    ``upper``: C = v/curve at the first sample, and v <= (1+RATIO_SLACK) C curve
    is required strictly after it.  ``lower``: C is the minimum of v/curve over
    the window's first CALIBRATION_DECADES, and C curve <= (1+RATIO_SLACK) v is
    required over the whole window.
    """
    if direction == "upper":
        C = v[0] / curve[0]
        ratios = v[1:] / (C * curve[1:])
        first = 1
    else:
        cal = t <= t[0] * 10.0 ** CALIBRATION_DECADES
        C = np.min(v[cal] / curve[cal])
        ratios = C * curve / v
        first = 0
    k = int(np.argmax(ratios))
    return BoundCheck(float(ratios[k]), float(t[k + first]), float(C), float(t[0]),
                      RATIO_SLACK, bool(ratios[k] <= 1.0 + RATIO_SLACK))


def upper_bound_check(t, v, L: SteepnessFunction, p: float, n: int) -> BoundCheck:
    """Persistence of v(t) <= C t^{-1/p} L^{-2/(np)}(1/t) after calibration at
    the window's first time t[0]."""
    return _persistence(t, v, upper_bound_curve(L, p, n, 1.0, t), "upper")


def lower_bound_persistence(t, v, env: DecayEnvelope, p: float) -> BoundCheck:
    """Calibrate the lower curve (c1 = lower_c1(p)) on the window's first decade,
    then require C*curve <= (1+RATIO_SLACK) * v over the whole window."""
    return _persistence(t, v, lower_bound_curve(env, p, 1.0, t), "lower")


@dataclass(frozen=True)
class BaselineReport:
    """Near-algebraic baseline: envelope obedience and compensated growth.

    (i) v(t) <= C t^{-1/p+delta} with delta = BASELINE_DELTA and C calibrated
    at the window start times BASELINE_HEADROOM (the delta-envelope cannot
    separate logarithmic corrections from t^delta over a few decades, so this
    is a sanity bound);
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


def baseline_tail(t) -> np.ndarray:
    """The mask of the window times t in its last decade, where the baseline
    requires t^{1/p} v to be nondecreasing; fewer than 2 would make that vacuous."""
    tail = t >= t[-1] / 10.0
    if tail.sum() < 2:
        raise InputError(f"the last decade [{t[-1] / 10.0:g}, {t[-1]:g}] holds "
                         f"{tail.sum()} snapshot; the baseline's tail check needs 2")
    return tail


def baseline_check(t, v, p: float) -> BaselineReport:
    compensated = v * t ** (1.0 / p - BASELINE_DELTA)
    C = BASELINE_HEADROOM * compensated[0]
    worst = float(compensated.max() / C)

    tail = baseline_tail(t)
    growth = v[tail] * t[tail] ** (1.0 / p)
    increasing = bool(np.all(np.diff(growth) >= -1e-8 * growth[:-1]))
    return BaselineReport(worst, worst <= 1.0, BASELINE_HEADROOM, increasing, BASELINE_DELTA)


@dataclass(frozen=True)
class SandwichVerdict:
    """Combined two-sided rate verdict for one run.

    ``sigma_time_term`` bounds the time error of ``fit.sigma``, and
    ``time_error_window`` is the largest relative time error of a snapshot in
    the window (``sandwich_report``).
    """

    fit: RateFit
    upper: BoundCheck
    lower: BoundCheck
    sigma_target: float
    sigma_window: tuple
    sigma_time_term: float
    time_error_window: float
    sigma_ok: bool
    passed: bool

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc


def rate_model(env: DecayEnvelope, p: float, n: int, delta: float) -> tuple:
    """The envelope's shape exponent, fit model and upper-bound gauge L.

    L is log-type (doubly log-type for a DoubleExp envelope, whose gamma
    replaces beta) with M = GAUGE_M and kappa = n/shape + n p delta/2, so its
    exponent 2 kappa/(np) is the sharp 2/(p shape) plus delta.  delta must be
    positive: at kappa <= n/shape the integral of L(u0) diverges.
    """
    if not delta > 0:
        raise InputError(f"delta must be positive, got {delta}")
    if env.kind == "StretchedExp":
        shape, model, gauge = env.beta, "LogCorrected", SteepnessFunction.log_type
    else:
        shape, model, gauge = env.gamma, "LogLogCorrected", SteepnessFunction.double_log_type
    return shape, model, gauge(n / shape + n * p * delta / 2.0, GAUGE_M)


def sandwich_report(run: EvolutionRun, env: DecayEnvelope, delta: float,
                    window: tuple, be_sup) -> SandwichVerdict:
    """Fit the run's sup-norm series and check both calibrated bounds on the
    snapshots of ``rate_window``.

    The upper bound's gauge is the one ``rate_model`` derives.  The fitted
    correction exponent must land in [target - 0.1, target + delta + 0.1]
    with target 2/(p beta) or 2/(p gamma), and so must sigma plus or minus its
    time term, or the verdict fails closed.  The time term is |sigma - sigma_2|,
    sigma_2 being fitted on ``be_sup``, the sup-norm series at ``run.times`` of
    the run's level one order below it: for a run of ``evolution``, the
    second-order 2 * half - full of the same three passes
    (``EvolutionRun.second_order_sup``).  It estimates sigma_2's error, and the
    third-order sigma's error is of higher order, so for small steps it bounds
    the latter (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.9).
    """
    p, n = run.spec.p, run.grid.n
    shape, model, L = rate_model(env, p, n, delta)
    in_window = rate_window(run.times, window, model)
    t, v = run.times[in_window], run.series["sup_norm"][in_window]
    fit = fit_decay(t, v, p, model)
    time_term = abs(fit.sigma - fit_decay(t, np.asarray(be_sup)[in_window], p, model).sigma)
    upper = upper_bound_check(t, v, L, p, n)
    lower = lower_bound_persistence(t, v, env, p)
    target = 2.0 / (p * shape)
    lo = target - EXPONENT_SLACK
    hi = target + delta + EXPONENT_SLACK
    sigma_ok = lo <= fit.sigma - time_term and fit.sigma + time_term <= hi
    time_error = float(np.asarray(run.stats["snapshot_time_error"])[in_window].max())
    return SandwichVerdict(fit, upper, lower, target, (lo, hi), time_term, time_error,
                           sigma_ok, bool(sigma_ok and upper.passed and lower.passed))
