"""Filament detection in 2-D point clouds via steepest-ascent path density."""

from .flow import (CriticalPoint, FlowConfig, classify_critical_point,
                   find_critical_points, kde_flow_config, mean_shift_paths,
                   trace_ascent_paths)
from .grids import GridField, GridSpec
from .kernels import KernelDensityField, PointCloud, kde_density, kde_gradient
from .levelset import (containment_check, containment_radius,
                       directed_hausdorff, hausdorff_distance, level_set,
                       quantile_threshold)
from .model import (Filament, FilamentModel, QuadratureSpec, cluster_model,
                    random_pentagon_model, two_gaussian_model)
from .oracle import (PathDensityEstimate, PathMeasureEstimate, RateTable,
                     ball_hit_estimate, convergence_experiment,
                     estimate_with_true_paths, model_flow_config, oracle_field,
                     path_density_oracle, path_hit_counts, path_measure,
                     point_density_estimate, sample_and_trace,
                     true_path_ensemble)
from .path_density import (AscentPath, BandwidthPlan, PathEnsemble,
                           default_bandwidths, estimate_path_density,
                           path_density_field)

__version__ = "0.1.0"
