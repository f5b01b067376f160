"""First-order classical field dynamics on periodic grids: momentum maps,
Hamilton-De Donder-Weyl evolution, presymplectic pairings on Cauchy data,
Hamilton-Jacobi section verification, characteristic integration and the
cotangent-space restriction identities."""

from .models import (BUILTIN_MODEL_NAMES, DedonderError, Dimensions,
                     ExtendedMomentumSample, HamiltonianModel, JetSample,
                     LagrangianModel, ModelError, ReducedMomentumSample,
                     builtin_model)
from .legendre import (ConnectionCoefficients, FieldSection, MomentumSection,
                       NewtonError, euler_lagrange_residual, flatness_residual,
                       hamiltonian_from_lagrangian, hdw_residual,
                       inverse_legendre, legendre_extended, legendre_reduced,
                       legendre_transform_section, regularity_check,
                       solve_velocities)
from .cauchy import (BlowupError, CauchyGrid, CauchyState, GridError,
                     TangentVariation, covector_residual,
                     dynamical_trajectory_residual, integrate_density,
                     make_grid, pairing_covector, presymplectic_pairing,
                     random_smooth_variation, recover_spatial_momenta,
                     run_simulation, spatial_derivative,
                     standard_test_variations, step_rk4, take_frames,
                     time_derivative_frames)
from .hj import (GammaDomainError, HJSection, IncompatibleDataError,
                 check_compatibility, evolve_characteristics, gamma_family,
                 gamma_closedness_residual, hj_lift_solution_check,
                 hj_residual, lift_by_gamma, linear_gamma, oscillator_gamma,
                 reduced_connection, restricted_connection_residual)
from .cotangent import (ConstraintError, CotangentState, CotangentVariation,
                        cotangent_trajectory_residual,
                        extended_form_covector, extended_form_pairing,
                        hat_gamma, instantaneous_hamiltonian, omega_pairing,
                        pullback_identity_residual, push_variation,
                        restriction_map_R, solve_time_velocity,
                        time_legendre_constraint_residual,
                        variational_derivative)
from .scenario import Scenario, ScenarioError, parse_scenario

__version__ = "0.1.0"
