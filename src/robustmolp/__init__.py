"""Robust analysis of multi-objective linear programs under data uncertainty:
radius of robust feasibility for ball-perturbed constraints and certification
of robust weak efficiency under rank-1 objective uncertainty."""

from .model import (Ball, Box, ConcaveRow, Ellipsoid, NormBall,
                    Polytope, ProblemFormatError,
                    RobustFeasibleSet, Singleton, UncertainMOLP,
                    ValidatedProblem, ValidationError, endpoint_objectives,
                    load_problem, parse_problem, problem_to_dict,
                    reduce_constraints, validate_dimensions, validate_problem)
from .numerics import (NumericalBreakdown, SingularMatrixError,
                       invert_symmetric, min_norm_point, project_simplex,
                       solve_cone_system, solve_lp)
from .feasibility import (BallFeasibility, FeasibilityResult, HypographicalSet,
                          NominalInfeasibleError, NonCertifiedError,
                          RadiusResult, UnsupportedClassError,
                          ball_robust_feasible, cone_contains,
                          hypographical_set, is_feasible,
                          radius_of_robust_feasibility)
from .efficiency import (ActiveGeometry, CertifyOutcome, ConstraintMultiplier,
                         EfficiencyCertificate, NotFeasiblePointError,
                         active_geometry, certify_weak_efficiency, check_slater,
                         weakly_efficient_for_scenario)
from .oracle import (OracleVerdict, VerificationReport, Witness,
                     refute_robust_weak_efficiency, scenario_grid,
                     verify_certificate)

__version__ = "0.1.0"
