"""Finite element solver for incompressible flow in time-dependent domains.

The equations are discretized on a fixed reference mesh; the domain motion
enters through a space-time map whose gradient, determinant and velocity
become time-dependent coefficients of the discrete system.  Velocity and
pressure use the quadratic/linear Taylor-Hood pair; time stepping is
semi-implicit (implicit step, lagged advection field).
"""

from .analysis import (ConvergenceTable, EnergyErrorReport, ErrorAccumulator,
                       convergence_study, energy_balance_terms, k_norm)
from .assembly import (AssembledStep, assemble_step, convection_matrices,
                       divergence_matrix, mass_matrix, piola_boundary_flux,
                       rate_mass_matrix, smagorinsky_viscosity, viscous_matrix)
from .benchmarks import (BenchmarkCase, benchmark_case, manufactured_2d,
                         tube_benchmark, verify_benchmark_fields)
from .elements import QuadratureRule, ShapeFunctions, quadrature, shape_functions
from .expressions import Expression, ExpressionError, parse_expression
from .maps import (AxisScalingMap, ExpressionMap, IdentityMap, MappingSample,
                   MapValidationReport, MeshSequenceMap, SingularMappingError,
                   SpaceTimeMap, TubeShrinkMap, evaluate_map,
                   load_mesh_sequence, parse_map_expressions, piola_residual,
                   validate_assumptions)
from .meshing import (NOSLIP, BoundaryLabel, MeshQuality, SimplicialMesh,
                      build_connectivity, dirichlet, generate_box,
                      generate_tube, mesh_quality, neumann, refine_uniform)
from .solver import (BoundaryConditionSet, DirichletBC, FlowProblem,
                     FlowState, NeumannBC, NoslipBC, RunResult, SaddleSolver,
                     SolverConfig, SolverError, advance,
                     apply_boundary_conditions, run)
from .spaces import DiscreteField, TaylorHoodSpace, interpolate

__version__ = "0.1.0"
