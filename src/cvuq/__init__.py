"""Cross-validation prediction intervals, gauge distances between step cdfs,
loss-based risk estimators, and a reproducible Monte-Carlo simulation lab."""

from .data import DgpSpec, TrainingSet, load_dataset, sample_classification, sample_gaussian_linear, save_dataset
from .ecdf import StepCdf, eval_cdf, fold_ecdf, left_limit, quantile, uniform_ecdf, weighted_ecdf
from .intervals import IntervalMethod, PredInterval, coverage_ceiling, interval, shortest_interval
from .levy_gauge import (
    GaugeResult,
    MonotoneFn,
    expectation_transfer,
    gauge,
    gauge_bound_l2,
    gauge_bound_matched_pairs,
    gauge_bound_wasserstein,
    kolmogorov_distance,
    quantile_sandwich,
)
from .predictors import FoldFits, FoldPartition, PredictorSpec, fit, fit_predict, ridge_coefficients
from .risk import loss_plugin_bounds, misclassification_estimate, mse_estimate
from .simlab import (
    CoverageReport,
    conditional_coverage,
    coverage_distribution,
    gauge_convergence,
    infinite_length_probe,
    jk_vs_jkplus_gap,
    length_compare,
)
from .stability import (
    McEstimate,
    StabilityProfile,
    equivalence_bound,
    m_stability,
    oos_stability_profile,
    pac_bound_cv,
    update_drift,
    variance_gap,
)

__version__ = "0.1.0"
