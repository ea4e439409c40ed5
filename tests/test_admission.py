"""Admission policy decisions and the quality-class rate table."""

import inspect
import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from vmac.admission import (
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
from vmac.bounds import BoundResult
from vmac.experiments import BurstinessRow, SweepResult, TimeSeriesResult, _GapTable
from vmac.rate_engine import MeasurementWindow, RateSample
from vmac.stats import MeanWithCI, SeriesSummary
from vmac.trace_model import MBPS

LINK = LinkConfig(link_id="l", capacity=100 * MBPS)
WINDOW = MeasurementWindow(end_slot=4, length_slots=5)


def sample(inst_mbps, avg_mbps):
    return RateSample(
        instantaneous=inst_mbps * MBPS, average=avg_mbps * MBPS, window=WINDOW
    )


def test_quality_class_rates_exact():
    assert quality_class_rate(QualityClass.FULL_HD) == 11e6
    assert quality_class_rate(QualityClass.HD_READY) == 8e6
    assert quality_class_rate(QualityClass.SD) == 2e6
    assert quality_class_rate(QualityClass.HD_WEB) == 1.25e6


@pytest.mark.parametrize("quality", ["sd", None, 5], ids=["name", "none", "int"])
def test_quality_class_that_is_not_a_member_refused(quality):
    # the name and the int raised KeyError
    message = (f"^quality class must be a QualityClass, got "
               f"{type(quality).__name__} {re.escape(repr(quality))}$")
    with pytest.raises(ValueError, match=message):
        quality_class_rate(quality)
    with pytest.raises(ValueError, match=message):
        AdmissionRequest.for_class(quality)


def test_instantaneous_admit_with_headroom():
    req = AdmissionRequest.for_class(QualityClass.HD_READY)
    d = decide_instantaneous(sample(90, 90), req, LINK)
    assert d.verdict is Verdict.ADMIT
    assert d.policy is Policy.INSTANTANEOUS
    assert d.headroom == pytest.approx(2 * MBPS)


def test_instantaneous_reject():
    req = AdmissionRequest.for_class(QualityClass.HD_READY)
    d = decide_instantaneous(sample(95, 95), req, LINK)
    assert d.verdict is Verdict.REJECT
    assert d.headroom == pytest.approx(-3 * MBPS)


def test_boundary_equality_admits():
    req = AdmissionRequest.for_class(QualityClass.HD_READY)
    d = decide_instantaneous(sample(92, 92), req, LINK)
    assert d.verdict is Verdict.ADMIT
    assert d.headroom == pytest.approx(0.0)


def test_average_policy_admit_and_reject():
    req = AdmissionRequest.for_class(QualityClass.HD_READY)
    assert decide_average(sample(99, 90), req, LINK).verdict is Verdict.ADMIT
    assert decide_average(sample(99, 95), req, LINK).verdict is Verdict.REJECT


def test_policies_split_when_average_below_instantaneous():
    # average fits under capacity - x_new, instantaneous does not
    req = AdmissionRequest(8 * MBPS)
    s = sample(95, 88)
    assert decide_average(s, req, LINK).verdict is Verdict.ADMIT
    assert decide_instantaneous(s, req, LINK).verdict is Verdict.REJECT


def test_request_validation():
    with pytest.raises(ValueError):
        AdmissionRequest(0.0)
    with pytest.raises(ValueError):
        LinkConfig(link_id="l", capacity=0.0)


@pytest.mark.parametrize("bad", [0, 0.0, -0.0, -1.0, float("inf"), float("nan")])
def test_rates_outside_the_positive_reals_are_refused_by_name(bad):
    with pytest.raises(ValueError, match="^capacity must be "):
        LinkConfig(link_id="l", capacity=bad)
    with pytest.raises(ValueError, match="^requested rate must be "):
        AdmissionRequest(bad)


@pytest.mark.parametrize("bad", [True, "100", None, 1j])
def test_rates_that_are_not_reals_are_refused(bad):
    # True built a 1 bit/s link or request; a string raised TypeError
    with pytest.raises(ValueError, match="^capacity must be a positive real, got "):
        LinkConfig(link_id="l", capacity=bad)
    with pytest.raises(ValueError, match="^requested rate must be a positive real, got "):
        AdmissionRequest(bad)


positive = st.floats(0.01, 1000.0)


@given(inst=positive, avg=positive, req=positive, cap=positive)
def test_dominance_of_average_policy(inst, avg, req, cap):
    # whenever the average is at most the instantaneous rate, the average
    # policy admits everything the instantaneous policy admits
    if avg > inst:
        avg = inst
    s = sample(inst, avg)
    request = AdmissionRequest(req * MBPS)
    link = LinkConfig(link_id="l", capacity=cap * MBPS)
    if decide_instantaneous(s, request, link).verdict is Verdict.ADMIT:
        assert decide_average(s, request, link).verdict is Verdict.ADMIT


@given(inst=positive, req=positive, cap=positive, k=st.floats(0.001, 1000.0))
def test_scaling_invariance(inst, req, cap, k):
    # stay away from the admit/reject boundary where float rounding of the
    # scaled sums could legitimately flip the verdict
    assume(abs(inst + req - cap) > 1e-6 * cap)
    s1 = sample(inst, inst)
    s2 = sample(inst * k, inst * k)
    r1, r2 = AdmissionRequest(req * MBPS), AdmissionRequest(req * k * MBPS)
    l1 = LinkConfig(link_id="l", capacity=cap * MBPS)
    l2 = LinkConfig(link_id="l", capacity=cap * k * MBPS)
    assert (
        decide_instantaneous(s1, r1, l1).verdict
        is decide_instantaneous(s2, r2, l2).verdict
    )


def test_records_keep_field_order_repr_and_immutability():
    rate = RateSample(1.5, 2.25, MeasurementWindow(9, 5))
    decision = AdmissionDecision(Verdict.REJECT, 3.0, -0.5, Policy.AVERAGE)
    assert list(inspect.signature(RateSample).parameters) == [
        "instantaneous", "average", "window"]
    assert list(inspect.signature(AdmissionDecision).parameters) == [
        "verdict", "measured_rate", "headroom", "policy"]
    assert repr(rate) == (
        "RateSample(instantaneous=1.5, average=2.25, "
        "window=MeasurementWindow(end_slot=9, length_slots=5))")
    assert repr(decision) == (
        "AdmissionDecision(verdict=<Verdict.REJECT: 'reject'>, "
        "measured_rate=3.0, headroom=-0.5, policy=<Policy.AVERAGE: 'avg'>)")
    assert rate == RateSample(instantaneous=1.5, average=2.25,
                              window=MeasurementWindow(9, 5))
    for record, field in ((rate, "average"), (decision, "headroom")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.note = "added"


# each result record with its fields and values in documented order; a record
# checks nothing, so `_GapTable` takes tuples here in place of its arrays,
# which do not hash
RECORDS = [
    (RateSample, ("instantaneous", "average", "window"),
     (1.5, 2.25, MeasurementWindow(9, 5))),
    (AdmissionDecision, ("verdict", "measured_rate", "headroom", "policy"),
     (Verdict.ADMIT, 3.0, 0.5, Policy.INSTANTANEOUS)),
    (SeriesSummary, ("mean", "sample_std", "peak", "count"), (2.0, 0.5, 3.0, 4)),
    (MeanWithCI, ("mean", "ci_half_width", "confidence", "reps"),
     (0.25, 0.125, 0.95, 5)),
    (BoundResult, ("delta", "exponent", "underflow"), (0.5, -0.75, False)),
    (SweepResult, ("rows",), (((5, MeanWithCI(0.25, 0.125, 0.95, 5)),),)),
    (TimeSeriesResult, ("slots", "instantaneous", "average"),
     ((4, 5), (1.0, 2.0), (1.5, 1.5))),
    (BurstinessRow, ("flow_count", "rate_kind", "peak_to_mean", "cov"),
     (5, "average", 1.25, 0.5)),
    (_GapTable, ("gaps", "lengths", "lmax"), ((0, -1, 1), (2.0,), 2)),
]


@pytest.mark.parametrize("record_type, fields, values", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_are_tuples_of_their_fields(record_type, fields, values):
    """What README promises callers of every result record: a tuple of its
    fields in order, with tuple equality and hashing, no assignment, and
    `_replace` and `_asdict` in place of the dataclass helpers."""
    record = record_type(*values)
    assert isinstance(record, tuple) and record_type._fields == fields
    assert record == values and hash(record) == hash(values)
    for name in (fields[0], "note"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    changed = record._replace(**{fields[-1]: None})
    assert type(changed) is record_type and changed == (*values[:-1], None)
    assert record._asdict() == dict(zip(fields, values))


def test_decisions_are_records_holding_enum_members():
    s = sample(90.0, 80.0)
    for decide, policy in ((decide_average, Policy.AVERAGE),
                           (decide_instantaneous, Policy.INSTANTANEOUS)):
        for requested, verdict in ((5 * MBPS, Verdict.ADMIT),
                                   (25 * MBPS, Verdict.REJECT)):
            d = decide(s, AdmissionRequest(requested_rate=requested), LINK)
            assert type(d) is AdmissionDecision
            assert d.verdict is verdict and d.policy is policy
