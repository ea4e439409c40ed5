"""Admission policies: instantaneous-rate and average-rate based.

Both policies admit a request when the measured aggregate rate plus the
requested rate fits within the link capacity (equality admits).  The
requested rate is either explicit or one of the video quality classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .rate_engine import RateSample, new_record
from .trace_model import MBPS, _instance, _positive_real


class QualityClass(enum.Enum):
    FULL_HD = "fullhd"
    HD_READY = "hdready"
    SD = "sd"
    HD_WEB = "hdweb"


_CLASS_RATES = {
    QualityClass.FULL_HD: 11 * MBPS,
    QualityClass.HD_READY: 8 * MBPS,
    QualityClass.SD: 2 * MBPS,
    QualityClass.HD_WEB: 1.25 * MBPS,
}


def quality_class_rate(quality: QualityClass) -> float:
    """Requested rate in bits/s for a video quality class.  Raises ValueError
    for a value that is not a `QualityClass` member, such as its name."""
    return _CLASS_RATES[_instance(quality, QualityClass,
                                  "quality class must be a QualityClass")]


class Verdict(enum.Enum):
    ADMIT = "admit"
    REJECT = "reject"


class Policy(enum.Enum):
    INSTANTANEOUS = "inst"
    AVERAGE = "avg"


# read once here: a module global is cheaper than `Verdict.ADMIT`, which
# goes through the enum metaclass on every call
_ADMIT, _REJECT = Verdict.ADMIT, Verdict.REJECT
_INSTANTANEOUS, _AVERAGE = Policy.INSTANTANEOUS, Policy.AVERAGE


@dataclass(frozen=True)
class LinkConfig:
    link_id: str
    capacity: float  # bits/s

    def __post_init__(self):
        _positive_real(self.capacity, "capacity")


@dataclass(frozen=True)
class AdmissionRequest:
    requested_rate: float  # bits/s

    def __post_init__(self):
        _positive_real(self.requested_rate, "requested rate")

    @classmethod
    def for_class(cls, quality: QualityClass) -> "AdmissionRequest":
        return cls(requested_rate=quality_class_rate(quality))


class AdmissionDecision(NamedTuple):
    verdict: Verdict
    measured_rate: float  # bits/s
    headroom: float  # bits/s, negative on reject
    policy: Policy


def _decide(
    measured: float, req: AdmissionRequest, link: LinkConfig, policy: Policy
) -> AdmissionDecision:
    headroom = link.capacity - measured - req.requested_rate
    verdict = _ADMIT if measured + req.requested_rate <= link.capacity else _REJECT
    return new_record(AdmissionDecision, (verdict, measured, headroom, policy))


def decide_instantaneous(
    sample: RateSample,
    req: AdmissionRequest,
    link: LinkConfig,
) -> AdmissionDecision:
    """Admit iff instantaneous aggregate rate + requested rate <= capacity."""
    return _decide(sample.instantaneous, req, link, _INSTANTANEOUS)


def decide_average(
    sample: RateSample,
    req: AdmissionRequest,
    link: LinkConfig,
) -> AdmissionDecision:
    """Admit iff windowed average aggregate rate + requested rate <= capacity."""
    return _decide(sample.average, req, link, _AVERAGE)
