#!/usr/bin/env python3
"""Regenerate the bundled trace files under traces/.

Everything here is deterministic: fixed seeds, fixed parameters.  Running
the script twice produces byte-identical files, so the bundled traces can
be checked into version control and regenerated at will.  This script is
the one home of every library's recipe and seed; the tests read the
files it writes.

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

from vmac.trace_model import (MBPS, ContentClass, VideoTrace, _synth_stream,
                              serialize_trace)

BURSTY_SEED = 42
NEWS_SEED = 7
SPORTS_SEED = 8
SAMPLE_SEED = 5

TRACES_ROOT = Path(__file__).resolve().parent.parent / "traces"


def synth_onoff_trace(
    length: int,
    fps: float,
    seed: int,
    base_rate: float,
    dip_prob: float = 0.0,
    dip_factor: float = 1.0,
    quiet_enter: float = 0.0,
    quiet_exit: float = 1.0,
    quiet_factor: float = 1.0,
    noise: float = 0.0,
    trace_id: str = "synth-onoff",
    content_class: ContentClass = ContentClass.UNKNOWN,
) -> VideoTrace:
    """Bursty trace: a base rate with single-slot dips and quiet episodes.

    Each slot carries ``base_rate`` scaled by a multiplicative uniform noise
    of half-width `noise`.  Independently per slot, with probability
    `dip_prob` the slot drops to ``dip_factor * base_rate``.  A two-state
    Markov chain (enter probability `quiet_enter`, exit probability
    `quiet_exit`) overlays quiet episodes at ``quiet_factor * base_rate``
    whose mean length is 1/quiet_exit slots.  Deterministic per seed.
    """
    length, rng, factor = _synth_stream(length, seed, fps)
    # one block of uniforms, taken in the order of one scalar draw per test:
    # a slot makes at most three (quiet switch, dip, noise)
    draws = iter(rng.random(3 * length).tolist())
    # `rng.uniform(lo, hi)` is lo + (hi - lo) * u
    lo, hi = 1.0 - noise, 1.0 + noise
    sizes = []
    quiet = False
    for _ in range(length):
        if quiet:
            if next(draws) < quiet_exit:
                quiet = False
        elif next(draws) < quiet_enter:
            quiet = True
        level = base_rate * quiet_factor if quiet else base_rate
        if not quiet and dip_prob and next(draws) < dip_prob:
            level = base_rate * dip_factor
        if noise:
            level *= lo + (hi - lo) * next(draws)
        sizes.append(int(level / factor))
    return VideoTrace(
        id=trace_id, sizes=sizes, fps=fps, content_class=content_class
    )


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


# -- synthetic libraries -------------------------------------------------------
#
# Parameter choices follow the observed character of VBR video aggregates:
# most slots sit near a base rate, with occasional near-silent frames and
# short quiet episodes a few slots long.  The "bursty" library mixes
# low-rate bursty feeds with high-rate near-constant feeds; the content
# libraries differ only in how violent the rate swings are.  Every trace
# is 3 000 slots at 30 fps.

_LENGTH = 3000
_FPS = 30.0
# synth_onoff_trace parameters per kind of trace
_BURSTY = dict(dip_prob=0.09, dip_factor=0.70, quiet_enter=0.0075,
               quiet_exit=0.20, quiet_factor=0.02, noise=0.05)
_SMOOTH = dict(noise=0.003)
_CONTENT = {
    ContentClass.NEWS: dict(noise=0.05),
    ContentClass.SPORTS: dict(dip_prob=0.10, dip_factor=0.05, quiet_enter=0.04,
                              quiet_exit=0.33, quiet_factor=0.05, noise=0.04),
}


def _synth_library(seed, recipes, content_class=ContentClass.UNKNOWN):
    """One `synth_onoff_trace` per recipe, a (trace id, base-rate range in
    Mbps, parameters) triple; per trace, `seed`'s stream gives a child seed
    and then a base rate uniform in the range."""
    rng = np.random.Generator(np.random.PCG64(seed))
    # arguments are evaluated left to right: the child seed, then the rate
    return tuple(
        synth_onoff_trace(_LENGTH, _FPS, int(rng.integers(0, 2 ** 62)),
                          rng.uniform(lo, hi) * MBPS, trace_id=trace_id,
                          content_class=content_class, **params)
        for trace_id, (lo, hi), params in recipes
    )


def bursty_library(seed: int) -> tuple[VideoTrace, ...]:
    """Mixed library of ten traces: seven low-rate bursty ones, then three
    high-rate smooth ones."""
    return _synth_library(
        seed,
        [(f"bursty-{i}", (0.5, 0.7), _BURSTY) for i in range(7)]
        + [(f"smooth-{i}", (7.0, 9.0), _SMOOTH) for i in range(7, 10)],
    )


def content_library(
    seed: int, content_class: ContentClass
) -> tuple[VideoTrace, ...]:
    """Synthetic per-class library of five traces: sports-like traces swing
    hard between near-silence and full rate, news-like traces barely move.
    Only news and sports are synthesised; any other class is a ValueError."""
    params = _CONTENT.get(content_class)
    if params is None:
        raise ValueError(f"no synthetic recipe for content class {content_class}")
    return _synth_library(
        seed, [(f"{content_class.value}-{i}", (2.5, 4.0), params) for i in range(5)],
        content_class,
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
