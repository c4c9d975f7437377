"""Longest-ray lengths, radiation-closed Helmholtz FEM, and explicit
mesh-threshold constants for planar exterior scattering."""

__version__ = "0.1.0"

from .bounds import (ConstantsLedger, ThresholdReport, compute_C_DtN,
                     compute_C_int, h2_bound_rhs, mesh_threshold,
                     resolvent_upper_bound, schatz_condition, volterra_norm)
from .dtn import DtnOperator, build_dtn, hankel_ratio
from .geometry import (CoefficientField, Obstacle, TruncationGeometry,
                       WaveContext, boundary_normal, disk_obstacle,
                       fourier_obstacle, identity_coefficients,
                       nu_bump_coefficients, signed_distance,
                       validate_configuration)
from .raytrace import (PhasePoint, RayConfig, Trajectory, classify_trapping,
                       hamiltonian, integrate_ray, longest_ray_length, time_in_ball)

__all__ = [name for name in dir() if not name.startswith("_")]
