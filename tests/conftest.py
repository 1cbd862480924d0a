"""Shared fixtures for the test suite: reproducible synthetic streams."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for test data."""
    return np.random.default_rng(1234)


@pytest.fixture
def sine_square_stream(rng) -> tuple[np.ndarray, int]:
    """A stream switching from a sine to a square wave at a known change point."""
    change_point = 1_500
    t = np.arange(change_point)
    first = np.sin(2 * np.pi * t / 25)
    second = 2.0 * np.sign(np.sin(2 * np.pi * t / 60))
    values = np.concatenate([first, second]) + rng.normal(0.0, 0.1, 2 * change_point)
    return values, change_point


@pytest.fixture
def frequency_shift_stream(rng) -> tuple[np.ndarray, int]:
    """A stream whose oscillation period doubles at a known change point."""
    change_point = 1_200
    t = np.arange(change_point)
    first = np.sin(2 * np.pi * t / 20)
    second = np.sin(2 * np.pi * t / 55)
    values = np.concatenate([first, second]) + rng.normal(0.0, 0.05, 2 * change_point)
    return values, change_point


@pytest.fixture
def mean_shift_stream(rng) -> tuple[np.ndarray, int]:
    """A low-noise stream whose mean jumps at a known change point."""
    change_point = 1_000
    values = np.concatenate(
        [rng.normal(0.0, 0.3, change_point), rng.normal(4.0, 0.3, change_point)]
    )
    return values, change_point


@pytest.fixture
def stationary_noise(rng) -> np.ndarray:
    """A stationary white-noise stream with no change points."""
    return rng.normal(0.0, 1.0, 2_500)


@pytest.fixture
def small_dataset():
    """A tiny annotated dataset used by evaluation and engine tests."""
    from repro.datasets import SegmentSpec, compose_stream

    specs = [
        SegmentSpec("sine", 700, {"period": 30, "noise": 0.05}, label="sine"),
        SegmentSpec("square", 700, {"period": 70, "noise": 0.05}, label="square"),
        SegmentSpec("sine", 700, {"period": 12, "noise": 0.05}, label="fast_sine"),
    ]
    return compose_stream(
        specs, name="test_stream", collection="test", seed=7, subsequence_width=30
    )
