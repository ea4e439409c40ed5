"""Aggregate-rate admission control simulator for VBR video flows."""

from .admission import (
    AdmissionDecision,
    AdmissionRequest,
    LinkConfig,
    Policy,
    QualityClass,
    Verdict,
    decide_average,
    decide_instantaneous,
    quality_class_rate,
)
from .bounds import BoundResult, HoeffdingQuery, empirical_exceedance, hoeffding_delta
from .experiments import (
    ExperimentConfig,
    SweepResult,
    TimeSeriesResult,
    derive_run_seed,
    run_burstiness_table,
    run_content_comparison,
    run_probability_sweep,
    run_rate_timeseries,
    run_window_sweep,
)
from .rate_engine import (
    MeasurementWindow,
    RateSample,
    average_aggregate_rate,
    instantaneous_aggregate_rate,
    rate_sample,
)
from .stats import (
    MeanWithCI,
    SeriesSummary,
    coefficient_of_variation,
    mean_and_ci,
    peak_to_mean,
    summarize,
)
from .trace_model import (
    ContentClass,
    FlowInstance,
    FlowRateBounds,
    VideoTrace,
    parse_trace_file,
    serialize_trace,
    synth_bounded_trace,
)

__version__ = "0.1.0"
