"""1-D Lagrangian compressible two-phase flow solver with a diagnostics
engine for the conservation, entropy, and phase-field structure of the model."""

from .core import (BoundaryConfig, FlowState, InitialData, MassGrid,
                   PositivityError, SimParams, apply_bc,
                   interface_initial_state, make_grid, state_from_fields)
from .diagnostics import (DiagnosticsRecord, RunContext, bracket_roots,
                          cell_average_brackets, cutoff_weight, dissipation_rate,
                          lemma24_residual, lyapunov_energy, make_context,
                          mass_excess, record, total_energy, weighted_dissipation)
from .integrator import RunResult, SimulationAbort, StepControl, run, step, step_limits
from .mms import ConvergenceRow, ManufacturedCase, convergence_study, default_case
from .operators import (cell_coefficients, centered, chemical_potential, diffusion_flux,
                        face_average, semi_discrete_rhs)
from .cli_io import (ConfigError, RunConfig, audit_records, main, parse_config,
                     read_diagnostics, read_snapshot, write_diagnostics,
                     write_snapshot)

__version__ = "0.1.0"
