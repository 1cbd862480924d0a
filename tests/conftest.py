"""Shared fixtures for the test suite: reproducible synthetic streams.

Also the choice of ClaSS's scoring path and the session-end check that no
scorer process outlives the run.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import scorer_link


@pytest.fixture
def in_process_scoring(monkeypatch) -> None:
    """ClaSS scores in the caller's process, whatever its window."""
    monkeypatch.setattr(scorer_link, "MIN_SUBSEQUENCES", 10**12)


@pytest.fixture
def pipelined_scoring(monkeypatch) -> None:
    """ClaSS forks a scorer once its window is live, whatever its width or call length.

    Patches only the window and call thresholds of
    :mod:`repro.core.scorer_link`: the host's own conditions (cores,
    threads, event loops) still apply.
    """
    if scorer_link.spare_cores() < 1:
        pytest.skip("a scorer process needs a spare core")
    monkeypatch.setattr(scorer_link, "MIN_SUBSEQUENCES", 0)
    monkeypatch.setattr(scorer_link, "MIN_CALL_PAUSES", 0)
    monkeypatch.setattr(scorer_link, "MIN_FORK_PAUSES", 0)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Fail the run if a scorer process is still alive once the tests are done."""
    gc.collect()
    alive = scorer_link.live_scorers()
    if alive:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        message = f"scorer processes still alive at the end of the session: {alive}"
        if reporter is not None:
            reporter.write_line(message, red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


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
