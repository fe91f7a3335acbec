"""Numerical verification toolkit for the large-mass (MIT bag) limit of the
three-dimensional Dirac operator on exactly solvable geometries.

The package checks, at desk scale, that the spectrum of the Dirac operator
with a large mass barrier outside a ball converges to the bag-model spectrum,
including the explicit 1/m correction functionals for eigenvalues, exterior
energies, and the intermediate Robin-type Laplacian.
"""

from .dirac_ball import (
    AngularSector,
    DiracParams,
    RadialEigenpair,
    boundary_identity_check,
    charge_conjugation_check,
    eta_functional,
    largemass_eigenpair,
    largemass_eigenvalues,
    largemass_expansion,
    largemass_spectrum_signed,
    mit_eigenpair,
    mit_eigenvalues,
    mit_spectrum_signed,
    mu_functional,
    nu_minmax,
    robin_eigenpair,
    robin_expansion,
    robin_laplacian_eigenvalues,
)
from .exterior import (
    BoundaryDatum,
    ExteriorSolution,
    FlatDatum,
    SphereDatum,
    agmon_decay_check,
    ball_exterior_dtn,
    ball_mode_mass,
    effective_energy,
    exterior_energy,
    flat_effective_gap,
    halfspace_mode_energy,
    mass_estimate_check,
    sobolev_h32_norm_sq,
    sphere_datum,
    torus_datum,
)
from .cli import BallInterior
from .numerics import (
    SecondOrderODE,
    ShootingSolution,
    ToleranceConfig,
    find_root_bracketed,
    panel_nodes,
    solve_bvp_shooting,
)
from .special import (
    modified_spherical_bessel_k_scaled,
    modified_spherical_bessel_k_scaled_deriv,
    spherical_bessel_j,
    spherical_bessel_j_deriv,
)
from .transverse import (
    CurvatureData,
    TransverseProblem,
    TransverseSolution,
    collar_is_valid,
    min_rescaled_weight,
    residual_of_ansatz,
    solve_transverse,
    transverse_form,
)

__version__ = "0.1.0"
