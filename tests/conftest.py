"""Shared fixtures: tiny hand-built traces plus the bundled libraries."""

from pathlib import Path

import pytest

from vmac.experiments import bursty_library
from vmac.trace_model import BITS_PER_BYTE, VideoTrace

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACES_DIR = REPO_ROOT / "traces"


def make_trace(sizes, fps=30.0, trace_id="t", content_class=None):
    """Build a VideoTrace from a plain list of frame sizes in bytes."""
    if content_class is None:
        return VideoTrace(id=trace_id, sizes=sizes, fps=fps)
    return VideoTrace(
        id=trace_id, sizes=sizes, fps=fps, content_class=content_class
    )


def rate_at(trace, slot):
    """Rate in bits/s of the frame occupying `slot` of a trace (wrapping)."""
    return trace.size_at(slot) * BITS_PER_BYTE * trace.fps


def flow_rate_at(flow, slot):
    """Instantaneous rate of one flow at a frame slot, in bits/s."""
    return rate_at(flow.trace, flow.start_offset + slot)


@pytest.fixture(scope="session")
def cbr_library():
    """Three constant-bitrate traces at different levels, shared fps."""
    return tuple(
        make_trace([size] * 50, fps=30.0, trace_id=f"cbr-{size}")
        for size in (1000, 2500, 4000)
    )


@pytest.fixture(scope="session")
def bursty_lib():
    return bursty_library(42)


@pytest.fixture(scope="session")
def traces_dir():
    return TRACES_DIR
