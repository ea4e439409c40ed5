"""One table per input rule: every public caller of `trace_model._is_real`
(a real number, not a bool) and of `trace_model._instance` (an instance of
a trace, range or class type) refuses a bool and a value of a wrong type
with its exact pinned `ValueError`.  A caller that checks by a copy of the
rule, rather than through the owner, would give another message or none."""

from __future__ import annotations

import re

import numpy as np
import pytest

from vmac.admission import AdmissionRequest, LinkConfig, quality_class_rate
from vmac.bounds import HoeffdingQuery, empirical_exceedance
from vmac.experiments import ExperimentConfig, check_settings, run_content_comparison
from vmac.rate_engine import MeasurementWindow
from vmac.stats import mean_and_ci
from vmac.trace_model import (ContentClass, FlowInstance, FlowRateBounds, VideoTrace,
                              parse_trace_file, synth_bounded_trace)

from .conftest import make_trace

TRACE = make_trace([1000, 3000] * 10, content_class=ContentClass.NEWS)
RANGE = FlowRateBounds(0.0, 1.0)


def _parse(fps, tmp_path):
    path = tmp_path / "no-fps.txt"
    path.write_text("0 I 10\n1 P 20\n", encoding="utf-8")
    return parse_trace_file(path, fps_override=fps)


# caller -> (call of the value to check and a scratch directory, message
# before ", got"); every message is shown with the value's repr
REAL_CALLERS = {
    "LinkConfig.capacity": (lambda v, _: LinkConfig("l", v),
                            "capacity must be a positive real"),
    "AdmissionRequest.requested_rate": (lambda v, _: AdmissionRequest(v),
                                        "requested rate must be a positive real"),
    "VideoTrace.fps": (lambda v, _: VideoTrace(id="t", sizes=[1, 2], fps=v),
                       "fps must be a positive real"),
    "parse_trace_file.fps_override": (_parse, "fps must be a positive real"),
    "synth_bounded_trace.fps": (lambda v, _: synth_bounded_trace(3, RANGE, v, 0),
                                "fps must be a positive real"),
    "HoeffdingQuery.epsilon": (lambda v, _: HoeffdingQuery(1, v, (RANGE,)),
                               "epsilon must be a positive real"),
    "FlowRateBounds.min_rate": (lambda v, _: FlowRateBounds(v, 1.0),
                                "rate bounds must be reals"),
    "FlowRateBounds.max_rate": (lambda v, _: FlowRateBounds(0.0, v),
                                "rate bounds must be reals"),
    "empirical_exceedance.epsilon": (
        lambda v, _: empirical_exceedance([FlowInstance(TRACE, 0)],
                                          MeasurementWindow(4, 5), v, 10, 0),
        "epsilon must be a real number"),
    "mean_and_ci.confidence": (
        lambda v, _: mean_and_ci([0.25, 0.5], v),
        "confidence must be in (0, 1), with (1 + c) / 2 below 1"),
    "check_settings.confidence": (
        lambda v, _: check_settings(confidence=v),
        "confidence must be in (0, 1), with (1 + c) / 2 below 1"),
    "ExperimentConfig.confidence": (
        lambda v, _: ExperimentConfig(trace_library=(TRACE,), confidence=v),
        "confidence must be in (0, 1), with (1 + c) / 2 below 1"),
}

# caller -> (call, message before ", got"); a refused enum value is shown
# after its type's name, since "news" reads like ContentClass.NEWS
INSTANCE_CALLERS = {
    "quality_class_rate": (quality_class_rate, "quality class must be a QualityClass"),
    "AdmissionRequest.for_class": (AdmissionRequest.for_class,
                                   "quality class must be a QualityClass"),
    "VideoTrace.content_class": (
        lambda v: VideoTrace(id="t", sizes=[1, 2], fps=30.0, content_class=v),
        "content class must be a ContentClass"),
    "run_content_comparison.classes": (
        lambda v: run_content_comparison(
            ExperimentConfig(trace_library=(TRACE,), runs_per_rep=10, reps=2), (v,), (2,)),
        "content class must be a ContentClass"),
    "HoeffdingQuery.ranges": (lambda v: HoeffdingQuery(1, 1.0, (v,)),
                              "a range must be FlowRateBounds"),
    "synth_bounded_trace.bounds": (lambda v: synth_bounded_trace(3, v, 30.0, 0),
                                   "bounds must be FlowRateBounds"),
    "FlowInstance.trace": (lambda v: FlowInstance(v, 0), "trace must be a VideoTrace"),
    "ExperimentConfig.trace_library": (lambda v: ExperimentConfig(trace_library=(v,)),
                                       "a library trace must be a VideoTrace"),
}
ENUM_CALLERS = {"quality_class_rate", "AdmissionRequest.for_class",
                "VideoTrace.content_class", "run_content_comparison.classes"}


# None is not here: as `fps_override` it means "no override"
@pytest.mark.parametrize("value", [True, np.True_, "1", 1j],
                         ids=["bool", "numpy-bool", "string", "complex"])
@pytest.mark.parametrize("caller", sorted(REAL_CALLERS))
def test_every_caller_of_the_real_rule_refuses_with_its_message(caller, value, tmp_path):
    call, what = REAL_CALLERS[caller]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what}, got {value!r}')}$"):
        call(value, tmp_path)


@pytest.mark.parametrize("value", [True, "news", None, (0.0, 1.0)],
                         ids=["bool", "string", "none", "pair"])
@pytest.mark.parametrize("caller", sorted(INSTANCE_CALLERS))
def test_every_caller_of_the_instance_rule_refuses_with_its_message(caller, value):
    call, what = INSTANCE_CALLERS[caller]
    shown = f"{type(value).__name__} {value!r}" if caller in ENUM_CALLERS else repr(value)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what}, got {shown}')}$"):
        call(value)
