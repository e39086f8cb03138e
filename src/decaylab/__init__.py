"""decaylab: steepness-weighted interpolation inequalities and decay rates
of the degenerate diffusion u_t = u^p Lap(u), probed numerically.

Modules:

* ``steepness``  - the slowly-varying gauge functions L, their analytic checks
  and the transcendental bound
* ``radial``     - grids, quadrature, norms, the radial Laplacian stencil
* ``gn``         - family scans of the steepness-weighted interpolation ratio
* ``evolution``  - regularized Dirichlet evolutions and the minimal-solution ladder
* ``bounds``     - steady states, separated subsolutions, decay envelopes
* ``rates``      - decay-rate fits and calibrated bound persistence
* ``cli``        - JSON-config experiment orchestration
* ``errors``     - the exceptions behind the CLI's exit codes
"""

__version__ = "0.1.0"
