"""Shared fixtures: tiny hand-built traces plus the bundled libraries."""

import importlib.util
from pathlib import Path

import pytest

import vmac
from vmac.trace_model import BITS_PER_BYTE, VideoTrace, parse_trace_file

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACES_DIR = REPO_ROOT / "traces"


def pytest_report_header(config):
    # pyproject's `pythonpath` puts this checkout's `src` ahead of
    # PYTHONPATH, so this is the checkout under test whatever PYTHONPATH says
    return f"vmac: {vmac.__file__}"


def generate_traces():
    """`scripts/generate_traces.py`, loaded as a module."""
    path = REPO_ROOT / "scripts" / "generate_traces.py"
    spec = importlib.util.spec_from_file_location("generate_traces", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bundled_library(name):
    """The traces of `traces/<name>/`, parsed in file-name order, as the
    CLI's `--traces-dir` reads them."""
    paths = sorted((TRACES_DIR / name).glob("*.txt"))
    return tuple(parse_trace_file(p) for p in paths)


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
    return bundled_library("bursty")


@pytest.fixture(scope="session")
def traces_dir():
    return TRACES_DIR
