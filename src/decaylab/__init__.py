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
"""

from .errors import DecayLabError, InputError, LadderError, NumericError, SchemeError
from .steepness import (ConvexityReport, HypothesisReport, SteepnessFunction,
                        check_convexity_condition, check_near_multiplicativity,
                        check_ratio_bound, solve_transcendental)
from .radial import (RadialGrid, RadialProfile, WeightedIntegral, grad_l2_norm,
                     lq_quasinorm, steepness_integral)
from .gn import FamilySpec, FamilyScan, family_scan
from .evolution import (ApproxParams, EvolutionRun, LadderResult, ProblemSpec,
                        evolve, ladder_params, linfty_from_lq_check, lyapunov_series,
                        minimal_solution_ladder, observer_lq, observer_lyapunov,
                        semiconvexity_check)
from .bounds import (DecayEnvelope, SteadyState, SubsolutionReport,
                     SubsolutionSpec, build_subsolution, evaluate_steady_state,
                     logistic_exact, logistic_residual, lower_bound_curve,
                     solve_steady_state, steady_state_residual, subsolution_check)
from .rates import (BaselineReport, BoundCheck, RateFit, SandwichVerdict,
                    baseline_check, fit_decay, lower_bound_persistence, rate_window,
                    sandwich_report, upper_bound_check, upper_bound_curve)

__version__ = "0.1.0"
