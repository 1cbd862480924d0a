"""The scorer process: one ClaSS stream scored by a forked child (repro.core.scorer_link).

Four pillars:

* bit-identity: events, reports, p-values, profiles and ``save_state()``
  bytes equal in-process scoring across call and chunk sizes, ``update``
  against ``process``, checkpoint and restore between the paths, scores
  read between calls, and the multivariate ensemble;
* process hygiene, each check in a subprocess under a timeout: no scorer
  outlives its detector, its interpreter or a SIGKILLed parent;
* eligibility: each condition that keeps a stream in-process, and a short
  call stopping a running scorer;
* failures: a host that cannot fork, a scorer lost between calls, one lost
  mid-call or cut off, and an exception raised while scoring.

The child's serve loop also runs in this process, fed through a pipe, so
its lines are measured like any other.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.core import scorer_link
from repro.core.class_segmenter import ClaSS
from repro.core.multivariate import MultivariateClaSS
from repro.utils.exceptions import ScorerProcessError
from repro.utils.parallel import run_ordered

SRC = Path(__file__).resolve().parent.parent / "src"

#: 1,481 subsequences: more than MIN_SUBSEQUENCES, so it pipelines unpatched.
WINDOW = dict(window_size=1_500, subsequence_width=20)

pytestmark = pytest.mark.skipif(
    scorer_link.spare_cores() < 1, reason="a scorer process needs a spare core"
)


def two_regime_stream(seed: int, half: int = 1_500) -> np.ndarray:
    t = np.arange(half)
    values = np.concatenate(
        [np.sin(2 * np.pi * t / 22), 2.0 * np.sign(np.sin(2 * np.pi * t / 55))]
    )
    return values + np.random.default_rng(seed).normal(0.0, 0.1, 2 * half)


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return two_regime_stream(3)


@contextlib.contextmanager
def in_process():
    """A context in which every ClaSS scores in the caller's process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scorer_link, "MIN_SUBSEQUENCES", 10**12)
        yield


def outputs(segmenter) -> tuple:
    """Everything a stream's consumer sees: reports, events and the checkpoint bytes."""
    reports = [(r.change_point, r.detected_at, r.score, r.p_value) for r in segmenter.reports]
    events = [event.to_dict() for event in segmenter.events()]
    return reports, events, pickle.dumps(segmenter.save_state())


def streamed(segmenter, values, call_size, chunk_size=None, scores=False) -> tuple:
    """Feed ``values`` in calls of ``call_size``; outputs, plus profiles read between calls."""
    profiles = []
    for start in range(0, values.shape[0], call_size):
        segmenter.process(values[start : start + call_size], chunk_size=chunk_size)
        if scores:
            profile = segmenter.last_profile
            profiles.append(None if profile is None else profile.scores.tobytes())
            profiles.append(segmenter.current_score)
    return outputs(segmenter), profiles


@pytest.fixture(scope="module")
def reference(values):
    """The in-process run every pipelined one must equal."""
    with in_process():
        segmenter = ClaSS(**WINDOW)
        return streamed(segmenter, values, 500, scores=True)


def scorer_pids(segmenter) -> list[int]:
    return [] if segmenter._scorer is None else [segmenter._scorer.pid]


def running(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def wait_until_gone(pid: int, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


# --------------------------------------------------------------------------- #
# bit-identity
# --------------------------------------------------------------------------- #


class TestBitIdentity:
    """Pinned: the scorer process changes no output bit."""

    def test_pipelined_by_default(self, values, reference):
        segmenter = ClaSS(**WINDOW)
        segmenter.process(values[:2_000])
        assert scorer_pids(segmenter) == scorer_link.live_scorers()
        assert len(scorer_pids(segmenter)) == 1
        segmenter.process(values[2_000:])
        assert outputs(segmenter) == reference[0]
        assert reference[0][0], "the stream must report a change point"

    @pytest.mark.parametrize("chunk_size", [1, 7, 1_024, None])
    def test_chunk_sizes(self, values, reference, chunk_size):
        segmenter = ClaSS(**WINDOW)
        assert streamed(segmenter, values, 500, chunk_size, scores=True) == reference

    @pytest.mark.parametrize("call_size", [7, 1_024, 3_000])
    def test_call_sizes_through_the_stream_driver(self, values, reference, call_size):
        segmenter = ClaSS(**WINDOW)
        events = list(api.stream(segmenter, values, chunk_size=call_size, include_scores=True))
        with in_process():
            expected = list(
                api.stream(ClaSS(**WINDOW), values, chunk_size=call_size, include_scores=True)
            )
        assert [e.to_dict() for e in events] == [e.to_dict() for e in expected]
        assert any(e.kind == "score" for e in events)
        assert outputs(segmenter) == reference[0]

    def test_update_against_process(self, values, reference):
        pointwise = ClaSS(**WINDOW)
        for value in values[:1_700]:
            pointwise.update(float(value))
        assert not scorer_pids(pointwise)  # an update-only stream never forks
        pointwise.process(values[1_700:2_400])  # now it does
        (pid,) = scorer_pids(pointwise)
        pointwise.update(float(values[2_400]))  # too short a call: in-process again
        assert not scorer_pids(pointwise) and not running(pid)
        for value in values[2_401:]:
            pointwise.update(float(value))
        assert outputs(pointwise) == reference[0]

    @pytest.mark.parametrize("saved_by", ["in-process", "pipelined"])
    @pytest.mark.parametrize("restored_into", ["in-process", "pipelined"])
    def test_checkpoint_and_restore_between_the_paths(
        self, values, reference, saved_by, restored_into
    ):
        def run(path, segmenter, chunk):
            if path == "in-process":
                with in_process():
                    segmenter.process(chunk)
            else:
                segmenter.process(chunk)
                assert scorer_pids(segmenter)

        first = ClaSS(**WINDOW)
        run(saved_by, first, values[:1_900])
        payload = pickle.loads(pickle.dumps(first.save_state()))
        del first
        resumed = ClaSS()
        resumed.load_state(payload)
        run(restored_into, resumed, values[1_900:])
        assert outputs(resumed) == reference[0]

    def test_save_state_bytes_after_every_call(self, values):
        with in_process():
            expected = ClaSS(**WINDOW)
        pipelined = ClaSS(**WINDOW)
        for start in range(0, values.shape[0], 300):
            chunk = values[start : start + 300]
            pipelined.process(chunk)
            with in_process():
                expected.process(chunk)
            assert outputs(pipelined) == outputs(expected)
        assert scorer_pids(pipelined)

    def test_pickle_and_score_now_stop_the_scorer(self, values, reference):
        segmenter = ClaSS(**WINDOW)
        segmenter.process(values[:2_500])
        (pid,) = scorer_pids(segmenter)
        profile = segmenter.last_profile
        clone = pickle.loads(pickle.dumps(segmenter))  # stops it: derived state stays home
        assert segmenter._scorer is None and not running(pid)
        np.testing.assert_array_equal(clone.last_profile.scores, profile.scores)
        np.testing.assert_array_equal(segmenter.last_profile.scores, profile.scores)
        segmenter.process(values[2_500:])  # forks again
        assert scorer_pids(segmenter)
        assert outputs(segmenter) == reference[0]
        forced = segmenter.score_now()
        assert segmenter._scorer is None
        with in_process():
            expected = ClaSS(**WINDOW)
            expected.process(values)
            np.testing.assert_array_equal(forced.scores, expected.score_now().scores)

    def test_reset_warmup_stops_the_scorer(self, values):
        outcomes = []
        for path in ("pipelined", "in-process"):
            with in_process() if path == "in-process" else contextlib.nullcontext():
                segmenter = ClaSS(**WINDOW)
                segmenter.process(values[:2_000])
                segmenter.reset_warmup()
                assert segmenter._scorer is None
                segmenter.process(values[2_000:])
                outcomes.append(outputs(segmenter))
                del segmenter
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("interval", [1, 10])
    def test_small_windows_and_block_advances(self, pipelined_scoring, interval):
        # forced pipelining of a block-path window: every record carries all
        # live thresholds (the block path does not log)
        values = two_regime_stream(5, half=900)
        config = dict(window_size=600, subsequence_width=12, scoring_interval=interval)
        segmenter = ClaSS(**config)
        pipelined = streamed(segmenter, values, 250, scores=True)
        assert scorer_pids(segmenter)
        del segmenter
        with in_process():
            assert pipelined == streamed(ClaSS(**config), values, 250, scores=True)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_multivariate_ensemble(self, n_workers):
        channels = np.stack([two_regime_stream(3), two_regime_stream(4)[::-1]], axis=1)

        def run():
            ensemble = MultivariateClaSS(n_channels=2, **WINDOW)
            ensemble.process(channels[:1_800], n_workers=n_workers)
            ensemble.process(channels[1_800:], n_workers=n_workers)
            return (
                ensemble.change_points.tolist(),
                [e.to_dict() for e in ensemble.events()],
                pickle.dumps(ensemble.save_state()),
            )

        pipelined = run()
        with in_process():
            expected = run()
        assert pipelined == expected
        assert pipelined[0]


# --------------------------------------------------------------------------- #
# process hygiene: each check in its own interpreter, under a timeout
# --------------------------------------------------------------------------- #

PRELUDE = textwrap.dedent(
    """
    import gc, os, sys, time
    import numpy as np
    from repro.core import scorer_link
    from repro.core.class_segmenter import ClaSS

    scorer_link.MIN_SUBSEQUENCES = 0
    scorer_link.spare_cores = lambda: 2  # room for two scorers

    def pipelined(seed):
        segmenter = ClaSS(window_size=400, subsequence_width=8)
        values = np.random.default_rng(seed).normal(size=600)
        segmenter.process(values[:100])  # goes live
        segmenter.process(values[100:])  # forks
        return segmenter, segmenter._scorer.pid

    def gone(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False
    """
)


def run_script(body: str, timeout: float = 120.0) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestProcessHygiene:
    """Pinned: no scorer outlives its detector, its interpreter or its parent."""

    def test_del_and_gc(self):
        out = run_script(
            """
            segmenter, pid = pipelined(0)
            del segmenter
            gc.collect()
            print(gone(pid), scorer_link.live_scorers())
            """
        )
        assert out.split() == ["True", "[]"]

    @pytest.mark.parametrize("order", ["first-first", "second-first"])
    def test_two_detectors_dropped_in_either_order(self, order):
        out = run_script(
            f"""
            first, first_pid = pipelined(0)
            second, second_pid = pipelined(1)
            assert sorted(scorer_link.live_scorers()) == sorted([first_pid, second_pid])
            if "{order}" == "first-first":
                del first
                gc.collect()
                print(gone(first_pid), gone(second_pid))
                del second
            else:
                del second
                gc.collect()
                print(gone(second_pid), gone(first_pid))
                del first
            gc.collect()
            print(gone(first_pid), gone(second_pid))
            """
        )
        assert out.split() == ["True", "False", "True", "True"]

    def test_interpreter_exit_with_a_detector_still_referenced(self):
        out = run_script(
            """
            segmenter, pid = pipelined(0)
            print(pid, flush=True)
            """
        )
        assert wait_until_gone(int(out))

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_disowns_the_parents_scorers(self, values, reference):
        segmenter = ClaSS(**WINDOW)
        segmenter.process(values[:2_000])
        finalizer = segmenter._scorer._finalizer
        child = os.fork()
        if child == 0:  # pragma: no cover - the forked child
            # no finalizer of the parent's may send its scorer an exit record
            os._exit(0 if not scorer_link._LINKS and not finalizer.alive else 1)
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert finalizer.alive
        segmenter.process(values[2_000:])
        assert outputs(segmenter) == reference[0]

    def test_a_sigkilled_parent_leaves_no_scorer(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        body = PRELUDE + "segmenter, pid = pipelined(0)\nprint(pid, flush=True)\ntime.sleep(120)\n"
        parent = subprocess.Popen(
            [sys.executable, "-c", body], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            pid = int(parent.stdout.readline())
            assert running(pid)
        finally:
            parent.kill()
            parent.wait(timeout=30)
            parent.stdout.close()
        assert wait_until_gone(pid)  # it read end-of-file and left


# --------------------------------------------------------------------------- #
# eligibility
# --------------------------------------------------------------------------- #


def _started_a_scorer(seed: int) -> bool:
    """Stream a pipelinable window; whether it forked (a pool task)."""
    segmenter = ClaSS(**WINDOW)
    segmenter.process(two_regime_stream(seed)[:1_700])
    return segmenter._scorer is not None


class TestEligibility:
    """Pinned: each observable condition that keeps a stream in-process."""

    def test_a_wide_window_pipelines(self):
        assert _started_a_scorer(0)

    def test_a_narrow_window_stays_in_process(self, values):
        segmenter = ClaSS(window_size=600, subsequence_width=20)  # 581 subsequences
        segmenter.process(values)
        assert segmenter._scorer is None

    def test_relearn_width_stays_in_process(self, values):
        segmenter = ClaSS(**WINDOW, relearn_width=True)
        segmenter.process(values[:1_700])
        assert segmenter._scorer is None

    def test_a_second_live_thread_keeps_it_in_process(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert not _started_a_scorer(0)
        finally:
            release.set()
            thread.join(timeout=10)
        assert _started_a_scorer(0)

    def test_a_pool_worker_stays_in_process(self):
        assert run_ordered(_started_a_scorer, [0, 1], n_workers=2) == [False, False]

    def test_a_running_asyncio_loop_keeps_it_in_process(self):
        async def main():
            return _started_a_scorer(0)

        assert asyncio.run(main()) is False

    def test_no_spare_core_keeps_it_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not _started_a_scorer(0)

    def test_one_live_scorer_per_spare_core(self, monkeypatch, values):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        first = ClaSS(**WINDOW)
        first.process(values[:1_700])
        assert first._scorer is not None
        second = ClaSS(**WINDOW)
        second.process(values[:1_700])
        assert second._scorer is None
        del first
        second.process(values[1_700:])  # the core is free again
        assert second._scorer is not None

    def test_an_update_only_stream_never_forks(self, values):
        segmenter = ClaSS(**WINDOW)
        for value in values[:1_700]:
            segmenter.update(float(value))
        assert segmenter._scorer is None

    @pytest.mark.parametrize("interval", [1, 2])
    def test_the_call_length_chooses_the_path(self, values, interval):
        fork = scorer_link.MIN_FORK_PAUSES * interval
        keep = scorer_link.MIN_CALL_PAUSES * interval
        config = dict(WINDOW, scoring_interval=interval)
        segmenter = ClaSS(**config)
        with in_process():
            segmenter.process(values[:1_500])  # the window is live
        cuts = np.cumsum([1_500, fork - 1, fork, keep, keep - 1])
        forked = []
        for start, end in zip(cuts[:-1], cuts[1:]):
            segmenter.process(values[start:end])
            forked.append(scorer_pids(segmenter))
        # too short to fork; forks; long enough to keep it; too short: stops it
        assert [bool(pids) for pids in forked] == [False, True, True, False]
        assert forked[1] == forked[2] and not running(forked[1][0])
        profile = segmenter.last_profile  # kept from the scorer
        segmenter.process(values[cuts[-1] :])
        with in_process():
            expected = ClaSS(**config)
            expected.process(values[: cuts[-1]])
            np.testing.assert_array_equal(profile.scores, expected.last_profile.scores)
            expected.process(values[cuts[-1] :])
        assert outputs(segmenter) == outputs(expected)

    def test_a_cpu_quota_caps_the_spare_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for quota, spare in [(None, 3), (1.0, 0), (1.9, 0), (2.5, 1), (8.0, 3)]:
            monkeypatch.setattr(scorer_link, "cpu_quota", lambda: quota)
            assert scorer_link.spare_cores() == spare
        monkeypatch.setattr(scorer_link, "cpu_quota", lambda: 1.0)
        assert not _started_a_scorer(0)

    @pytest.mark.parametrize(
        "files, quota",
        [
            ({}, None),
            ({"cpu.max": "max 100000\n"}, None),
            ({"cpu.max": "150000 100000\n"}, 1.5),
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
            ({"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "50000\n"}, 2.0),
        ],
    )
    def test_the_cgroup_quota_is_read_from_v2_or_v1(self, tmp_path, files, quota):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert scorer_link.cpu_quota(tmp_path) == quota


# --------------------------------------------------------------------------- #
# failures
# --------------------------------------------------------------------------- #


@contextlib.contextmanager
def in_the_scorer_at(n_seen: int, action):
    """Patch ``ClaSS._maybe_score`` so a scorer forked later runs ``action`` from ``n_seen`` on."""
    parent = os.getpid()
    maybe_score = ClaSS._maybe_score

    def patched(self, force=False):
        if os.getpid() != parent and self._n_seen >= n_seen:
            action()
        return maybe_score(self, force)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClaSS, "_maybe_score", patched)
        yield


def failing(exc: OSError, calls: list):
    def fail(*args):
        calls.append(args)
        raise exc

    return fail


class TestFailures:
    """Pinned: a lost scorer raises ScorerProcessError; its exceptions come home."""

    @pytest.mark.parametrize("syscall", ["fork", "pipe"])
    def test_a_host_that_cannot_fork_scores_in_process(
        self, values, reference, syscall, monkeypatch
    ):
        error = OSError(errno.EAGAIN if syscall == "fork" else errno.EMFILE, "no room")
        calls: list = []
        monkeypatch.setattr(os, syscall, failing(error, calls))
        segmenter = ClaSS(**WINDOW)
        events = list(api.stream(segmenter, values, chunk_size=500, include_scores=True))
        assert segmenter._scorer is None and len(calls) == 1  # tried once, not per call
        monkeypatch.undo()
        with in_process():
            expected = ClaSS(**WINDOW)
            expected_events = list(
                api.stream(expected, values, chunk_size=500, include_scores=True)
            )
        assert [e.to_dict() for e in events] == [e.to_dict() for e in expected_events]
        assert any(e.kind == "score" for e in events)
        assert outputs(segmenter) == reference[0]

    def test_a_failed_pipe_closes_what_it_opened(self, monkeypatch):
        pipe = os.pipe
        opened: list[int] = []

        def second_fails():
            if opened:
                raise OSError(errno.EMFILE, "too many open files")
            opened.extend(pipe())
            return tuple(opened)

        monkeypatch.setattr(os, "pipe", second_fails)
        segmenter = ClaSS(**WINDOW)
        assert scorer_link.start(segmenter) is None
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_a_scorer_killed_between_calls(self, values, reference):
        segmenter = ClaSS(**WINDOW)
        segmenter.process(values[:2_000])
        (pid,) = scorer_pids(segmenter)
        os.kill(pid, signal.SIGKILL)
        assert wait_until_gone(pid)
        with pytest.raises(ScorerProcessError, match="between calls"):
            segmenter.process(values[2_000:2_500])
        assert segmenter.n_seen == 2_000  # the last drained state
        segmenter.process(values[2_000:])  # in-process from now on
        assert segmenter._scorer is None
        assert outputs(segmenter) == reference[0]

    def test_a_scorer_killed_mid_call_fails_the_detector_closed(self, values, reference):
        with in_process():
            checkpoint = ClaSS(**WINDOW)
            checkpoint.process(values[:1_900])
            payload = checkpoint.save_state()
        with in_the_scorer_at(1_800, lambda: os._exit(9)):
            segmenter = ClaSS(**WINDOW)
            segmenter.process(values[:1_600])
            assert scorer_pids(segmenter)
            with pytest.raises(ScorerProcessError, match="during a call"):
                segmenter.process(values[1_600:2_400])
        for call in (
            lambda: segmenter.process(values[2_400:]),
            lambda: segmenter.update(0.0),
            segmenter.save_state,
            segmenter.events,
            lambda: segmenter.last_profile,
            segmenter.score_now,
        ):
            with pytest.raises(ScorerProcessError, match="failed closed"):
                call()
        segmenter.load_state(payload)
        segmenter.process(values[1_900:])
        assert outputs(segmenter) == reference[0]

    def test_a_call_cut_short_fails_the_detector_closed(self, values, monkeypatch):
        # a slow scorer with ~200 slow records queued: failing closed kills
        # it at once instead of waiting ~20 s for it to score them
        with in_the_scorer_at(1_700, lambda: time.sleep(0.1)):
            segmenter = ClaSS(**WINDOW)
            segmenter.process(values[:1_600])
            (pid,) = scorer_pids(segmenter)
        step = scorer_link.ScorerLink.step
        steps = []

        def interrupted(link, knn, n_seen):
            steps.append(n_seen)
            if len(steps) == 300:  # records half written: the pipes are out of step
                raise KeyboardInterrupt
            return step(link, knn, n_seen)

        monkeypatch.setattr(scorer_link.ScorerLink, "step", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            segmenter.process(values[1_600:2_400])
        assert time.monotonic() - started < 5.0
        assert not running(pid) and not scorer_link.live_scorers()
        with pytest.raises(ScorerProcessError, match="cut off during a call"):
            segmenter.process(values[2_400:])

    def test_a_profile_request_cut_short_keeps_the_detector_healthy(
        self, values, reference, monkeypatch
    ):
        segmenter = ClaSS(**WINDOW)
        segmenter.process(values[:2_000])
        (pid,) = scorer_pids(segmenter)

        def interrupted(link):
            raise KeyboardInterrupt  # the reply stays unread in the pipe

        with monkeypatch.context() as patch:
            patch.setattr(scorer_link.ScorerLink, "read_reply", interrupted)
            with pytest.raises(KeyboardInterrupt):
                segmenter.last_profile
        assert segmenter._scorer is None and not running(pid)
        assert segmenter.last_profile is None  # the profile went with the scorer
        segmenter.process(values[2_000:])  # in-process from now on, drained state intact
        assert segmenter._scorer is None
        assert outputs(segmenter) == reference[0]

    def test_a_reap_cut_short_stays_among_the_live_links(self, values, monkeypatch):
        segmenter = ClaSS(**WINDOW)
        segmenter.process(values[:2_000])
        link = segmenter._scorer
        waitpid = os.waitpid

        def interrupted(pid, options):
            if options == 0:
                raise KeyboardInterrupt
            return waitpid(pid, options)

        with monkeypatch.context() as patch:
            patch.setattr(os, "waitpid", interrupted)
            with pytest.raises(KeyboardInterrupt):
                link.close()
        assert link.pid in scorer_link._LINKS
        assert wait_until_gone(link.pid)
        assert scorer_link.live_scorers() == []  # reaped there
        assert link.pid not in scorer_link._LINKS

    def test_an_exception_while_scoring_is_reraised_with_its_type(self, values):
        def fail():
            raise KeyError("the scorer's own error")

        with in_the_scorer_at(1_800, fail):
            segmenter = ClaSS(**WINDOW)
            segmenter.process(values[:1_600])
            assert scorer_pids(segmenter)
            with pytest.raises(KeyError, match="the scorer's own error"):
                segmenter.process(values[1_600:2_400])
        assert segmenter._scorer is None  # stopped; a later call may fork again
        assert not scorer_link.live_scorers()


# --------------------------------------------------------------------------- #
# the serve loop, run in this process
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "config, cut, length",
    [
        (dict(WINDOW), 1_650, 180),  # point steps: records carry the logged rows
        # block advances: records carry every live threshold (kept under a pipe's 64 KiB)
        (dict(window_size=600, subsequence_width=12, scoring_interval=10), 1_200, 60),
    ],
)
@pytest.mark.parametrize("read_bytes", [1 << 16, 13])  # 13: records cut across reads
def test_serve_loop_in_process(values, config, cut, length, read_bytes, monkeypatch):
    # the caller's detector up to the fork, and the copies a fork would make
    with in_process():
        caller = ClaSS(**config)
        caller.process(values[:cut])
        scorer = pickle.loads(pickle.dumps(caller))
        expected = pickle.loads(pickle.dumps(caller))
        detected = expected.process(values[cut : cut + length]).tolist()
    scorer._knn = scorer_link.ThresholdMirror(scorer._knn)
    monkeypatch.setattr(scorer_link, "READ_BYTES", read_bytes)
    records_read, records_write = os.pipe()
    replies_read, replies_write = os.pipe()
    link = scorer_link.ScorerLink(None, records_write, replies_read)
    try:
        caller._scorer = link
        caller._ingest_and_score(values[cut : cut + length], [])  # writes one record per pause
        for kind in (scorer_link.DRAIN, scorer_link.PROFILE, scorer_link.EXIT):
            link.batch.append(kind)
        link.flush()
        scorer_link.serve(scorer, records_read, replies_write)  # returns at the exit record
        drained = link.read_reply()
        profile = link.read_reply()
    finally:
        caller._scorer = None
        link.close()
        os.close(records_read)
        os.close(replies_write)
    found, reports, offset, rng_state, error = drained
    assert error is None
    assert found == detected
    assert reports == expected.reports[len(caller.reports) :]
    assert offset == expected._state.last_change_point_offset
    assert pickle.dumps(rng_state) == pickle.dumps(expected.significance.rng_state())
    np.testing.assert_array_equal(profile.scores, expected.last_profile.scores)
