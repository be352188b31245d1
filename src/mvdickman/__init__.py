"""Sampling and verification toolkit for multivariate Dickman distributions,
multivariate Vervaat perpetuities, and the wider L*_alpha family."""

from .errors import (ConfigurationError, QuadratureError,
                     UnsupportedMeasureError, ValidationError)
from .measures import (BDLM, LStarParams, SpectralMeasure, angle_to_direction,
                       evenly_spaced_spectral, gd_params, md_from_spectral,
                       model_label, spectral_from_json, spectral_to_json)
from .moments import (MomentSummary, lstar_moments, malpha_radial_moment,
                      malpha_tail_mass, md_moments)
from .discretize import DiscretizationGrid, default_grid, discretize_angular
from .samplers import (LevyPathSkeleton, SampleBatch, fixed_point_map,
                       gd_truncation_terms, generate_batch, sample_ds_batch,
                       sample_gd_batch, sample_levy_path, sample_sn_batch,
                       sample_ta_batch, ta_term_count)
from .stats import (ErrorReport, FixedPointReport, empirical_moments,
                    error_metric, estimate_mc_floor, fixed_point_test)
from .harness import (CSV_HEADER, DEFAULT_K_GRID, ExperimentConfig,
                      emit_plot_data, rows_to_csv, run_experiment,
                      substream_seed, write_csv)

__version__ = "0.1.0"

__all__ = [
    "BDLM", "LStarParams", "SpectralMeasure", "MomentSummary",
    "DiscretizationGrid", "SampleBatch", "LevyPathSkeleton", "ErrorReport",
    "FixedPointReport", "ExperimentConfig",
    "angle_to_direction", "md_from_spectral", "gd_params",
    "evenly_spaced_spectral", "spectral_from_json", "spectral_to_json",
    "model_label",
    "lstar_moments", "md_moments",
    "malpha_tail_mass", "malpha_radial_moment",
    "default_grid", "discretize_angular",
    "sample_gd_batch", "sample_sn_batch", "sample_levy_path",
    "sample_ta_batch", "ta_term_count", "sample_ds_batch", "fixed_point_map",
    "gd_truncation_terms",
    "generate_batch",
    "empirical_moments", "error_metric", "estimate_mc_floor",
    "fixed_point_test",
    "run_experiment", "emit_plot_data", "substream_seed", "rows_to_csv",
    "write_csv", "CSV_HEADER", "DEFAULT_K_GRID",
    "ValidationError", "UnsupportedMeasureError", "QuadratureError",
    "ConfigurationError",
    "__version__",
]
