"""quenchlab: numerical laboratory for quenching in u_t - Lap u = -u^-p."""

__version__ = "0.1.0"

from .params import ModelParams
from .grid import GridSpec
from .geometry import ParabolicCylinder, ParabolicPoint, parabolic_distance
from .field import SpaceTimeField, field_from_function, sample, sample_many
from .exact import (BlowupSpec, dyadic_times, geometric_times, ode_field,
                    ode_solution, profile_field, radial_field, radial_steady,
                    radial_steady_coeff, rescale, self_similarity_residual)
from .solver import (BoundaryData, QuenchReport, SolverConfig, comparison_guard,
                     regularized_nonlinearity, solve_until_quench)
from .bumps import CutoffSpec, SpaceTimeBump, TestVectorField, TimeWindow
from .residuals import (ResidualReport, default_bump_dictionary,
                        distributional_residual, energy_inequality_defect,
                        stationary_residual, two_valued_caloric_check)
from .monotonicity import (FrequencyTrace, MonotonicityTrace, SlackModel,
                           WeightSpec, almgren_scan, averaged_energy,
                           density_estimate, frequency, log_h_identity_error,
                           weighted_energy)
from .rupture import (BlowupDiagnostics, DimensionFit, HolderEstimate,
                      RuptureSet, apriori_scaling_check, blowup_sequence,
                      holder_seminorm, parabolic_box_dimension, rupture_set,
                      rupture_threshold, slice_dimension)
from .qlf import load_field, save_field
from .config import AnalysisRequest, RunConfig, load_config, parse_config_text
from .pipeline import Report, emit_report, run_pipeline
