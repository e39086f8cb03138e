"""Radial grids, quadrature, norms and the radial Laplacian stencil.

Everything operates on radially symmetric functions sampled on a uniform grid
in [0, R] with an ambient dimension n.  Integrals over R^n reduce to weighted
one-dimensional integrals with the surface factor omega_n = n |B_1|; composite
trapezoid quadrature is used with the r^{n-1} weight folded into the
integrand, and the r = 0 node carries the exact weight 0 for n >= 2, also
under an infinite integrand there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InputError, NumericError
from .steepness import SteepnessFunction

__all__ = [
    "RadialGrid",
    "RadialProfile",
    "WeightedIntegral",
    "lq_quasinorm",
    "grad_l2_norm",
    "steepness_integral",
    "laplacian_stencil",
]

# Truncation-tail heuristic: flag when the boundary integrand level, spread
# over an annulus of width R, would contribute more than this fraction.
TAIL_REL_THRESHOLD = 1e-8


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid 0 = r_0 < ... < r_{m-1} = R in ambient dimension n."""

    n: int
    R: float
    m: int

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise InputError(f"dimension must be a positive integer, got {self.n}")
        if self.R <= 0:
            raise InputError(f"outer radius must be positive, got {self.R}")
        if self.m < 3:
            raise InputError(f"need at least 3 nodes, got {self.m}")

    @property
    def h(self) -> float:
        return self.R / (self.m - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.R, self.m)

    @cached_property
    def omega_n(self) -> float:
        """Surface factor n |B_1| (= area of the unit sphere S^{n-1})."""
        return self.n * unit_ball_volume(self.n)

    @cached_property
    def _trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.m, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w

    def volume_integral(self, integrand: np.ndarray) -> float:
        """omega_n * integral of r^{n-1} * integrand(r) dr by trapezoid."""
        with np.errstate(invalid="ignore"):  # 0 * inf at r = 0, set to 0 below
            vals = self.nodes ** (self.n - 1) * integrand
        if self.n > 1:
            vals[0] = 0.0
        return self.omega_n * float(self._trapezoid_weights @ vals)


@dataclass(frozen=True)
class RadialProfile:
    """A radial function sampled on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.m,):
            raise InputError(
                f"values must have shape ({self.grid.m},), got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def sample(cls, grid: RadialGrid, fn: Callable) -> "RadialProfile":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))


@dataclass(frozen=True)
class WeightedIntegral:
    """Value of a truncated volume integral plus a tail-adequacy flag.

    ``tail_flagged`` means the boundary level of the integrand, spread over an
    annulus of the same radial extent as the domain, is not negligible
    relative to the computed value: the truncation radius is suspect.
    """

    value: float
    tail_flagged: bool


def lq_quasinorm(profile: RadialProfile, q: float) -> float:
    """(omega_n int_0^R r^{n-1} |phi|^q dr)^{1/q}; quasi-norm for q < 1."""
    if q <= 0:
        raise InputError(f"q must be positive, got {q}")
    with np.errstate(over="ignore"):  # an integrand that overflows is refused below
        integral = profile.grid.volume_integral(np.abs(profile.values) ** q)
    if not math.isfinite(integral):
        raise NumericError(f"the L^q quasi-norm at q = {q:g} is not finite: its integral "
                           f"is {integral:g}")
    try:
        return integral ** (1.0 / q)
    except OverflowError:
        raise NumericError(f"the L^q quasi-norm overflows a double at q = {q:g}") from None


def radial_derivative(profile: RadialProfile) -> np.ndarray:
    """Centered differences; phi'(0) = 0 by symmetry, one-sided at r = R."""
    u = profile.values
    h = profile.grid.h
    d = np.empty_like(u)
    d[0] = 0.0
    d[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    d[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return d


def grad_l2_norm(profile: RadialProfile) -> float:
    """L^2 norm of the (radial) gradient."""
    d = radial_derivative(profile)
    return math.sqrt(profile.grid.volume_integral(d * d))


def steepness_integral(profile: RadialProfile, L: SteepnessFunction) -> WeightedIntegral:
    """omega_n int_0^R r^{n-1} L(phi(r)) dr with a truncation-tail flag."""
    if np.any(profile.values < 0):
        raise InputError("steepness integrals require a nonnegative profile")
    grid = profile.grid
    with np.errstate(over="ignore"):  # an integrand that overflows is refused below
        value = grid.volume_integral(L.value(profile.values))
    if not math.isfinite(value):
        raise NumericError(f"the steepness integral of the {L.kind} gauge is not finite: "
                           f"{value:g}")
    boundary_level = L.value(float(profile.values[-1]))
    tail_estimate = boundary_level * grid.omega_n * grid.R ** grid.n
    flagged = tail_estimate > TAIL_REL_THRESHOLD * value if value > 0 else tail_estimate > 0
    return WeightedIntegral(value, bool(flagged))


def laplacian_stencil(grid: RadialGrid):
    """(center, inv_h2, lower, upper) of Lap_h phi = phi'' + (n-1)/r phi' on grid.

    (Lap_h phi)_0 = center (phi_1 - phi_0), the symmetric limit with center = 2n/h^2;
    (Lap_h phi)_i = lower_i phi_{i-1} - 2 inv_h2 phi_i + upper_i phi_{i+1} inside.
    """
    h, n, r = grid.h, grid.n, grid.nodes
    inv_h2 = 1.0 / h**2
    drift = (n - 1) / (2.0 * h * r[1:-1])
    return 2.0 * n * inv_h2, inv_h2, inv_h2 - drift, inv_h2 + drift
