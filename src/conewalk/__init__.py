"""Harmonic functions of lattice random walks killed outside a planar convex cone.

The package builds the two families of positive harmonic functions for
such walks (one per boundary ray, one per interior normal direction of
the cone's sector), together with the supporting machinery: the moment
generating function of the step law and its unit level set, exponential
tilting, certified-bracket solves on truncated domains, Monte Carlo
cross-checks, and Green-kernel ratio experiments.
"""

from .cone import ConeGeometry, build_cone, build_cone_from_angles, quadrant
from .errors import (ConewalkError, DeltaTooLargeError, DomainSizeError,
                     NoIntersectionError, NonConvergenceError,
                     RangeOverflowError, ZeroGradientError)
from .harmonic import (CrossExitBound, HarmonicSpec, PositivityReport,
                       build_h, check_positive, classify_spec,
                       cross_exit_bound, free_harmonic_value,
                       spec_for_direction, spec_for_endpoint)
from .montecarlo import (AbsorptionCheck, ConnectivityScan, MartinRow,
                         MCEstimate, RngSpec, absorption_crosscheck,
                         local_irreducibility_scan, martin_ratio_table,
                         overshoot_moment)
from .solver import (HarmonicField, ResidualReport, TruncatedDomain,
                     build_domain, exit_expectation, green_column,
                     harmonicity_residual, survival_probability)
from .steplaw import ModelReport, StepLaw, validate_model
from .tiltgeom import (TiltPoint, boundary_polyline, epsilon_for_delta,
                       interior_minimum, largest_level_shift,
                       normal_direction, point_with_normal, tilt_point,
                       wall_decay_exponent)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionCheck", "ConeGeometry",
    "ConewalkError", "ConnectivityScan", "CrossExitBound",
    "DeltaTooLargeError", "DomainSizeError", "HarmonicField",
    "HarmonicSpec", "MartinRow", "MCEstimate", "ModelReport",
    "NoIntersectionError", "NonConvergenceError", "PositivityReport",
    "RangeOverflowError", "ResidualReport", "RngSpec", "StepLaw",
    "TiltPoint", "TruncatedDomain", "ZeroGradientError",
    "absorption_crosscheck", "boundary_polyline",
    "build_cone", "build_cone_from_angles", "build_domain", "build_h",
    "check_positive", "classify_spec", "cross_exit_bound",
    "epsilon_for_delta", "exit_expectation", "free_harmonic_value",
    "green_column", "harmonicity_residual", "interior_minimum",
    "largest_level_shift", "local_irreducibility_scan",
    "martin_ratio_table", "normal_direction", "overshoot_moment",
    "point_with_normal", "quadrant", "spec_for_direction",
    "spec_for_endpoint", "survival_probability", "tilt_point",
    "validate_model", "wall_decay_exponent", "__version__",
]
