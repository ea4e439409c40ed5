#!/usr/bin/env python3
"""Regenerate the bundled trace files under traces/.

Everything here is deterministic: fixed seeds, fixed parameters.  Running
the script twice produces byte-identical files, so the bundled traces can
be checked into version control and regenerated at will.

Layout:
    traces/bursty/   mixed library of low-rate bursty and high-rate smooth
                     synthetic feeds (the library behind the probability,
                     burstiness and window experiments)
    traces/content/  news-like (low variance) and sports-like (high
                     variance) class-tagged libraries
    traces/samples/  small GOP-structured sample traces with I/P/B frame
                     types, for ingestion demos and the burstiness gap check
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vmac.experiments import bursty_library, content_library
from vmac.trace_model import ContentClass, VideoTrace, serialize_trace

BURSTY_SEED = 42
NEWS_SEED = 7
SPORTS_SEED = 8
SAMPLE_SEED = 5

TRACES_ROOT = Path(__file__).resolve().parent.parent / "traces"


def synth_gop_trace(
    length: int,
    fps: float,
    seed: int,
    trace_id: str,
    i_size: int = 12000,
    p_size: int = 4000,
    b_size: int = 2000,
    jitter: float = 0.15,
) -> VideoTrace:
    """GOP-structured trace: a 12-frame I BB P BB P BB P BB pattern with
    per-frame multiplicative uniform jitter on the nominal sizes."""
    pattern = "IBBPBBPBBPBB"
    nominal = {"I": i_size, "P": p_size, "B": b_size}
    rng = np.random.Generator(np.random.PCG64(seed))
    types = "".join(pattern[k % len(pattern)] for k in range(length))
    sizes = [
        int(nominal[letter] * rng.uniform(1.0 - jitter, 1.0 + jitter))
        for letter in types
    ]
    return VideoTrace(
        id=trace_id, sizes=sizes, fps=fps, frame_types=types,
        content_class=ContentClass.MOVIE,
    )


def write_library(traces, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        serialize_trace(trace, directory / f"{trace.id}.txt")
        print(f"wrote {directory / (trace.id + '.txt')}")


def main(root: Path = TRACES_ROOT) -> None:
    write_library(bursty_library(BURSTY_SEED), root / "bursty")

    content = content_library(NEWS_SEED, ContentClass.NEWS) + content_library(
        SPORTS_SEED, ContentClass.SPORTS
    )
    write_library(content, root / "content")

    rng = np.random.Generator(np.random.PCG64(SAMPLE_SEED))
    samples = [
        synth_gop_trace(
            length=900,
            fps=30.0,
            seed=int(rng.integers(0, 2 ** 62)),
            trace_id=f"sample-{i}",
        )
        for i in range(5)
    ]
    write_library(samples, root / "samples")


if __name__ == "__main__":
    main()
