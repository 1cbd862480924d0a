"""The scorer process: one ClaSS stream scored on a second core.

ClaSS's scoring half (:meth:`~repro.core.class_segmenter.ClaSS._maybe_score`:
the pruning gate, the scoring pass and the significance test) reads nothing
from the streaming k-NN but its prediction thresholds and four counters, and
without ``relearn_width`` nothing it decides feeds back into the k-NN.  So
one stream can run as two pipelined stages: the caller's process steps the
k-NN, and a child forked from it once the window is live scores.  The same
code runs on the same thresholds, so events, reports, p-values and
checkpoints are bit-identical to in-process scoring.

**Records.**  After each pause of the k-NN (each scoring boundary and each
call's end) the parent appends one record to a batch of ``int64`` words and
writes the batch to a pipe every :data:`BATCH_STEPS` records.  A record
holds what scoring reads: ``n_seen``, ``n_evicted``, ``n_subsequences``,
``n_buffered`` and the global id of the first live subsequence, then the
``(global id, threshold)`` of every row whose threshold the pause wrote
(the k-NN's change log,
:meth:`~repro.core.streaming_knn.StreamingKNN.drain_changed_rows`), or
every live threshold when the log overflowed.  The child keeps a
:class:`ThresholdMirror` of the live thresholds from them and runs ClaSS's
own ``_maybe_score`` against it.  At the end of each ``process`` call the
parent sends a drain request and reads back the change points, the new
reports, the region offset and the significance RNG's state.

**Eligibility** is read from observable properties only (:func:`eligible`):
a live k-NN of more than :data:`MIN_SUBSEQUENCES` subsequences, no
``relearn_width``, a call that pauses it at least :data:`MIN_FORK_PAUSES`
times, Linux with a spare usable core per live scorer (after any CPU quota
of the process's cgroup), and a caller that is the main thread of a
single-threaded process, not a ``multiprocessing`` worker and not inside a
running asyncio loop.  A call of fewer than :data:`MIN_CALL_PAUSES` pauses
stops a running scorer (:func:`pays_off`): the stream scores in-process
until a long call comes again.

**Lifecycle.**  The child closes every inherited descriptor but its two pipe
ends, ignores SIGINT and leaves only through ``os._exit``: on an exit record,
or on end-of-file once the parent is gone.  A ``weakref.finalize`` on the
detector sends the exit record, closes both ends and reaps the child.
"""

from __future__ import annotations

import array
import gc
import os
import pickle
import signal
import struct
import sys
import threading
import traceback
import warnings
import weakref
from pathlib import Path

import numpy as np

from repro.core.streaming_knn import BLOCK_MAX_SUBSEQUENCES, CHANGE_LOG_MAX, RegionView
from repro.utils.exceptions import ScorerProcessError

#: Fewest subsequences a live k-NN must exceed before its stream pipelines.
#: Windows up to :data:`~repro.core.streaming_knn.BLOCK_MAX_SUBSEQUENCES`
#: advance in blocks and score cheaply, so a hand-over would cost more than
#: it saves; the tests patch this constant to choose a path.
MIN_SUBSEQUENCES = BLOCK_MAX_SUBSEQUENCES

#: Records batched into one pipe write.
BATCH_STEPS = 16

#: Fewest pauses of the k-NN (points over ``scoring_interval``) a call must
#: bring to keep a running scorer; a shorter call stops it.  Records travel
#: in batches, so a call of at most one batch scores nothing while the
#: caller steps, then pays the drain's round trip.  At the paper's defaults
#: (w=10,000, 2-vCPU Xeon VM, wall seconds), 4,096 points fed to a forked
#: stream in calls of 2, 7 and 16 points ran 0.62x, 0.71x and 0.83x as fast
#: as in-process and per-value ``update`` 0.67x, 32 points 1.09x (medians
#: of 5 pairs); the whole 42,000-point stream in calls of 64 points ran
#: 1.21x and of 128 points 1.26x (8 pairs).
MIN_CALL_PAUSES = 4 * BATCH_STEPS

#: Fewest pauses a call must bring to fork a scorer.  A fork costs ~8 ms and
#: the stop a later short call makes ~5 ms, so a stream alternating long
#: calls with single values pays both every time: alternating 64-point calls
#: with one value ran 0.61x as fast as in-process, 256-point calls 1.06x
#: (whole stream, 6 pairs), while steady 256-point calls ran 1.45x.
MIN_FORK_PAUSES = 16 * BATCH_STEPS

#: Most bytes the scorer reads from the record pipe at once; a record a read
#: cuts in two is completed by the next.
READ_BYTES = 1 << 16

#: Bytes the record pipe is asked to hold (Linux allows unprivileged pipes up
#: to ``/proc/sys/fs/pipe-max-size``, 1 MiB by default): a 1,024-point call's
#: records (~120 KiB at the paper's defaults) fit, so the caller never waits
#: for the scorer before the call's drain, whichever stage is slower where.
PIPE_BYTES = 1 << 20

# record kinds, the first word of a record
STEP, STEP_ALL, DRAIN, PROFILE, EXIT = range(5)
#: Words of a step record before its rows: the kind, five counters, the row count.
HEAD = 7

_LENGTH = struct.Struct("<Q")

#: Where Linux mounts the cgroup hierarchy (v2 unified, or v1 controllers).
CGROUP_ROOT = Path("/sys/fs/cgroup")

#: The links of this process whose child is not yet reaped, by child pid.
_LINKS: dict[int, ScorerLink] = {}

#: The warning CPython 3.12+ gives for a fork while ``/proc/self/stat``
#: counts more than one thread.  numpy's and scipy's native threads always
#: count; no Python code runs on them.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


def spare_cores() -> int:
    """Usable cores beyond the caller's own (0 off Linux).

    The cores the process may run on, capped by its cgroup's CPU quota
    rounded down: a scorer never competes with its caller for one core's time.
    """
    if not sys.platform.startswith("linux"):
        return 0
    cores = len(os.sched_getaffinity(0))
    quota = cpu_quota()
    if quota is not None:
        cores = min(cores, max(1, int(quota)))
    return cores - 1


def cpu_quota(root: Path = CGROUP_ROOT) -> float | None:
    """The CPUs the cgroup quota at ``root`` allows, None without a quota.

    Reads cgroup v2's ``cpu.max`` (``"<quota> <period>"`` or ``"max ..."``),
    else cgroup v1's ``cpu/cpu.cfs_quota_us`` (-1 for none) and
    ``cpu/cpu.cfs_period_us``.  Inside a container the mount's root is the
    container's own cgroup, which is where ``--cpus`` sets the quota.
    """
    try:
        quota, period = (root / "cpu.max").read_text().split()[:2]
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max"
        return None
    return quota_us / period_us if quota_us > 0 and period_us > 0 else None


def pays_off(segmenter, remaining: int) -> bool:
    """Whether a call bringing ``remaining`` points to ClaSS's live k-NN keeps a running scorer.

    It must pause the k-NN at least :data:`MIN_CALL_PAUSES` times.
    """
    return remaining >= MIN_CALL_PAUSES * segmenter.scoring_interval


def eligible(segmenter, remaining: int) -> bool:
    """Whether a call bringing ``remaining`` points to ClaSS's live k-NN should fork a scorer.

    Beside the stream's own conditions, the caller must be the main thread
    of a single-threaded Linux process that is neither a
    ``multiprocessing`` worker nor inside a running asyncio loop, and fewer
    scorers may be live than there are spare cores.  Neither module is
    imported here: a process that never imported one cannot be inside it.
    """
    if (
        remaining < MIN_FORK_PAUSES * segmenter.scoring_interval
        or segmenter.relearn_width
        or segmenter._knn.n_subsequences <= MIN_SUBSEQUENCES
        or threading.active_count() != 1
        or threading.current_thread() is not threading.main_thread()
    ):
        return False
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return False
    asyncio = sys.modules.get("asyncio")
    if asyncio is not None:
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            return False
    return len(_LINKS) < spare_cores()


def live_scorers() -> list[int]:
    """The pids of this process's scorer children that still run."""
    return [pid for pid, link in list(_LINKS.items()) if link.alive()]


class ThresholdMirror:
    """The part of a streaming k-NN that scoring reads, kept from step records.

    Holds the live rows' prediction thresholds by global subsequence id in a
    buffer of twice the window's subsequences (compacted to its start once
    every window's worth of evictions), the k-NN's counters as plain
    attributes, and a change log of the ids the records wrote, so ClaSS's
    scoring runs on it unchanged.
    """

    def __init__(self, knn) -> None:
        region = knn.region_view(0)
        self.max_subsequences = knn.window_size - knn.subsequence_width + 1
        self.thresholds = np.empty(2 * self.max_subsequences, dtype=np.int64)
        n = region.thresholds.shape[0]
        self.thresholds[:n] = region.thresholds
        self.base = region.offset  # global id of thresholds[0]
        self.first_global = region.offset
        self.n_subsequences = n
        self.n_buffered = knn.n_buffered
        self.n_evicted = knn.n_evicted
        self._changed: list[int] | None = None

    def region_view(self, region_start: int = 0) -> RegionView:
        """The live thresholds from ``region_start`` on (no neighbour table)."""
        low = self.first_global - self.base + region_start
        high = self.first_global - self.base + self.n_subsequences
        return RegionView(self.thresholds[low:high], None, self.first_global + region_start)

    def drain_changed_rows(self) -> list[int] | None:
        """As :meth:`repro.core.streaming_knn.StreamingKNN.drain_changed_rows`."""
        changed, self._changed = self._changed, []
        return changed

    def apply(self, words, at: int, end: int) -> int:
        """Apply the step record ``words[at:end]``; return the observations that slid out."""
        kind, _, n_evicted, n_subsequences, n_buffered, first_global, count = words[at : at + HEAD]
        slid = n_evicted - self.n_evicted
        live = first_global - self.base
        if live + self.max_subsequences > self.thresholds.shape[0]:
            kept = self.first_global - self.base + self.n_subsequences - live
            self.thresholds[: max(kept, 0)] = self.thresholds[live : live + max(kept, 0)]
            self.base = first_global
        self.first_global = first_global
        self.n_subsequences = n_subsequences
        self.n_buffered = n_buffered
        self.n_evicted = n_evicted
        if kind == STEP_ALL:
            self.base = first_global
            self.thresholds[:count] = np.frombuffer(words, np.int64, count, (at + HEAD) * 8)
            self._changed = None
            return slid
        thresholds, base, changed = self.thresholds, self.base, self._changed
        for row in range(at + HEAD, end, 2):
            thresholds[words[row] - base] = words[row + 1]
        if changed is not None:
            changed += words[at + HEAD : end : 2]
            if len(changed) > CHANGE_LOG_MAX:
                self._changed = None
        return slid


class ScorerLink:
    """The parent's end of one scorer: two pipes, a record batch and the child's pid.

    ``pid`` is None for a link served in this process (:func:`serve` run
    by hand).
    """

    def __init__(self, pid: int | None, records: int, replies: int) -> None:
        self.pid = pid
        self.records = records
        self.replies = replies
        self.batch = array.array("q")
        self.n_batched = 0
        self.closed = False
        self._finalizer = None

    def step(self, knn, n_seen: int) -> None:
        """Append the record of the pause the k-NN just reached.

        Reads the k-NN's ring storage directly: this runs at every pause.
        """
        changed = knn.drain_changed_rows()
        first, n, start = knn._first_global, knn._n_subsequences, knn._row_start
        thresholds = knn._thresholds
        record = [STEP, n_seen, knn._evictions, n, knn._length, first, n]
        if changed is None:
            record[0] = STEP_ALL
            self.batch.extend(record)
            self.batch.frombytes(thresholds[start : start + n].tobytes())
        else:
            shift = start - first
            for row_id in changed:
                if row_id >= first:
                    record += (row_id, int(thresholds[shift + row_id]))
            record[HEAD - 1] = (len(record) - HEAD) // 2
            self.batch.extend(record)
        self.n_batched += 1
        if self.n_batched >= BATCH_STEPS:
            self.flush()

    def flush(self) -> None:
        """Write the batched records."""
        if self.batch:
            _write_all(self.records, self.batch)
            self.batch = array.array("q")
        self.n_batched = 0

    def request(self, kind: int):
        """Flush, send a ``DRAIN`` or ``PROFILE`` request and return the child's reply."""
        self.batch.append(kind)
        self.flush()
        return self.read_reply()

    def read_reply(self):
        """Read one length-prefixed pickled reply."""
        (length,) = _LENGTH.unpack(_read_exact(self.replies, _LENGTH.size))
        return pickle.loads(_read_exact(self.replies, length))

    def alive(self) -> bool:
        """Whether the child still runs (reaps it if it ended)."""
        if _LINKS.get(self.pid) is not self:
            return False
        try:
            pid, _ = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:
            pid = self.pid
        if pid == 0:
            return True
        self._forget()
        return False

    def close(self, kill: bool = False) -> None:
        """Stop the child, close both ends and reap it (idempotent).

        The child is sent the exit record, written without blocking: behind
        a full pipe it reads end-of-file instead, once it has scored what
        the pipe holds.  With ``kill`` its state is not wanted, and it is
        SIGKILLed at once instead.
        """
        if not self.closed:
            if kill and _LINKS.get(self.pid) is self:
                os.kill(self.pid, signal.SIGKILL)  # not reaped yet: still our child
            else:
                try:
                    os.set_blocking(self.records, False)
                    os.write(self.records, array.array("q", [EXIT]))
                except OSError:
                    pass
        self._forget()

    def _forget(self) -> None:
        """Close both ends, then reap the child and drop it from the live links.

        A link stays among the live ones until its child is reaped, so one
        whose reaping an interrupt cut short is still seen, and reaped, by
        :func:`live_scorers`.
        """
        if not self.closed:
            self.closed = True
            if self._finalizer is not None:
                self._finalizer.detach()
            for fd in (self.records, self.replies):
                try:
                    os.close(fd)
                except OSError:
                    pass
        if _LINKS.get(self.pid) is self:
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass
            del _LINKS[self.pid]


def _disown_links() -> None:
    """In any forked child: the parent's scorers are not the child's to stop.

    Their finalizers would send exit records down the parent's pipes, and
    the descriptors would keep a scorer from reading end-of-file once the
    parent is gone.
    """
    for link in _LINKS.values():
        if link._finalizer is not None:
            link._finalizer.detach()
        link.closed = True
        for fd in (link.records, link.replies):
            try:
                os.close(fd)
            except OSError:
                pass
    _LINKS.clear()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_disown_links)


def start(segmenter) -> ScorerLink | None:
    """Fork a scorer for ``segmenter``, whose k-NN is live; return the parent's link.

    Returns None, forking nothing, when the host cannot give it pipes or a
    process (``EMFILE``, ``EAGAIN``, ``ENOMEM``).
    """
    import fcntl  # POSIX only, like the fork

    opened: list[int] = []
    try:
        opened += os.pipe()
        opened += os.pipe()
        records_read, records_write, replies_read, replies_write = opened
        try:  # a smaller pipe only makes the stages wait on each other sooner
            fcntl.fcntl(records_write, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (AttributeError, OSError):
            pass
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=_FORK_WARNING, category=DeprecationWarning)
            pid = os.fork()
    except OSError:
        for fd in opened:
            os.close(fd)
        return None
    if pid == 0:  # the child; serve() also runs in-process in the tests
        code = 1
        try:
            _close_inherited(records_read, replies_write)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            gc.freeze()  # keep the collector off the pages shared with the parent
            segmenter._knn = ThresholdMirror(segmenter._knn)
            serve(segmenter, records_read, replies_write)
            code = 0
        finally:
            os._exit(code)
    os.close(records_read)
    os.close(replies_write)
    link = ScorerLink(pid, records_write, replies_read)
    link._finalizer = weakref.finalize(segmenter, link.close)
    _LINKS[pid] = link
    return link


def serve(segmenter, records: int, replies: int) -> None:
    """Score the step records read from ``records`` until an exit record or end-of-file.

    ``segmenter`` is the child's ClaSS, whose ``_knn`` is a
    :class:`ThresholdMirror`.  A ``DRAIN`` request is answered on
    ``replies`` with ``(change points, new reports, region offset, RNG
    state, error)``, a ``PROFILE`` request with ``last_profile``.  An
    exception raised while scoring is kept, the records after it are
    skipped, and the next drain returns it.
    """
    mirror = segmenter._knn
    state = segmenter._state
    detected: list[int] = []
    reported = len(state.reports)
    error: BaseException | None = None
    pending = b""
    while True:
        chunk = os.read(records, READ_BYTES)
        if not chunk:
            return
        data = pending + chunk
        words = array.array("q")
        words.frombytes(data[: len(data) // 8 * 8])
        at, n = 0, len(words)
        while at < n:
            kind = words[at]
            if kind == STEP or kind == STEP_ALL:
                if at + HEAD > n:
                    break
                count = words[at + HEAD - 1]
                end = at + HEAD + (2 * count if kind == STEP else count)
                if end > n:
                    break
                if error is None:
                    try:
                        slid = mirror.apply(words, at, end)
                        if slid:
                            state.last_change_point_offset = max(
                                0, state.last_change_point_offset - slid
                            )
                        segmenter._n_seen = words[at + 1]
                        change_point = segmenter._maybe_score()
                        if change_point is not None:
                            detected.append(change_point)
                    except Exception as exc:
                        _note_traceback(exc)
                        error = exc
                at = end
                continue
            at += 1
            if kind == DRAIN:
                reply = (
                    detected,
                    state.reports[reported:],
                    state.last_change_point_offset,
                    segmenter.significance.rng_state(),
                    error,
                )
                _reply(replies, reply)
                detected, reported, error = [], len(state.reports), None
            elif kind == PROFILE:
                _reply(replies, segmenter.last_profile)
            else:  # EXIT
                return
        pending = data[at * 8 :]


def _note_traceback(exc: BaseException) -> None:
    """Attach the scorer's traceback to ``exc``, which is re-raised in the parent."""
    add_note = getattr(exc, "add_note", None)  # Python 3.11+
    if add_note is not None:
        add_note(
            "raised in the scorer process:\n" + "".join(traceback.format_tb(exc.__traceback__))
        )


def _reply(fd: int, value) -> None:
    try:
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # an error that does not pickle travels as its text
        *head, error = value
        error = ScorerProcessError(f"{type(error).__name__}: {error} ({exc})")
        body = pickle.dumps((*head, error), protocol=pickle.HIGHEST_PROTOCOL)
    _write_all(fd, _LENGTH.pack(len(body)) + body)


def _write_all(fd: int, data) -> None:
    """Write all of ``data``; a write a signal cut short goes on where it stopped."""
    view = memoryview(data).cast("B")
    try:
        while view:
            view = view[os.write(fd, view) :]
    except OSError as error:
        raise ScorerProcessError(f"the scorer pipe closed: {error}") from error


def _read_exact(fd: int, size: int) -> bytes:
    parts = []
    try:
        while size:
            part = os.read(fd, size)
            if not part:
                raise ScorerProcessError("the scorer process ended without replying")
            parts.append(part)
            size -= len(part)
    except OSError as error:
        raise ScorerProcessError(f"the scorer pipe closed: {error}") from error
    return b"".join(parts)


def _close_inherited(*keep: int) -> None:
    """Point stdin, stdout and stderr at the null device and close every other fd but ``keep``."""
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    low = 3
    for fd in sorted(keep):
        os.closerange(low, fd)
        low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))
