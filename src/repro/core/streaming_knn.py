"""Exact streaming k-nearest-neighbour search over a sliding window (paper §3.1).

This module implements Algorithm 2 of the paper: the first exact streaming
time-series k-NN whose per-point update cost is O(k * d) for a sliding window
of size ``d``.  The central idea is to maintain, across overlapping windows,
the (w-1)-length dot products between every subsequence prefix and the window
tail.  When a new observation arrives these partial dot products are extended
to full w-length dot products with a single multiply-add per offset
(Eqn. 3), turned into Pearson correlations using sliding means and standard
deviations derived from running sums (Eqns. 1-2, 4), and then shrunk back for
the next iteration (Eqn. 5).

Ingestion is *chunked*: the native entry point is :meth:`StreamingKNN.update_many`,
which accepts a whole array of observations, hoists the per-point Python
overhead (validation, sliding-statistics bookkeeping) out of the loop, and
lazily yields the table state after every observation.
:meth:`StreamingKNN.update` is the thin single-element case of the same code
path, so there is exactly one ingestion implementation and batched ingestion
is bit-identical to point-wise ingestion.

The generator advances one observation per ``next()``; ``send(n)`` at a
yield advances ``n`` before the next one.  A caller that reads the tables
only every so often (ClaSS scores every ``scoring_interval`` observations)
sends the distance to its next read, and a saturated k-NN on the numpy
backend then advances those steps as blocks: one ``np.add.accumulate`` over
the stacked extend/shrink terms yields every step's dot products
(bit-identical, since the accumulation adds row by row), the similarity and
the newest rows' top-k run over ``(B, m)`` matrices, and the older rows merge
a block's candidates by one stable sort, replaying the rows with exact ties
through the backend's sorted insert.  Single steps, the
warm-up growth, windows of more than :data:`BLOCK_MAX_SUBSEQUENCES`
subsequences (where the array work outweighs the per-call overhead blocks
save) and the loop-form backends (numba has no per-call overhead to
amortise) step point by point.

Two buffer-layout choices keep the amortized per-point cost free of hidden
O(d) terms:

* the sliding window lives in a 2x-capacity backing array and slides by
  advancing a start offset; a full O(d) compaction copy happens only once
  every ``d`` evictions, so appending is O(1) amortized instead of the
  shift-the-whole-buffer O(d) of a naive implementation;
* per-subsequence means, standard deviations and (for CID) complexities are
  computed exactly once when a subsequence first appears and kept in backing
  arrays aligned with the window, instead of being recomputed with O(d)
  cumulative sums on every update.  So are the means and stds scaled by the
  width, ``w·μ`` and ``w·σ``, which the similarity reads: a step makes five
  array passes over the window for Eqn. 4 (six with the zero-denominator
  scan, which runs only beside a NaN std), not nine.

The streaming update is the only dot-product path.  The alternatives of the
paper's §4.4 runtime discussion (recomputing the dot products in O(d * w), or
by FFT correlation in O(d log d) as FLOSS does) live in
``benchmarks/bench_knn_modes.py``, as subclasses that override
:meth:`StreamingKNN._incremental_dot_products`.

The element-wise hot-path arithmetic (dot-product extension/shrink,
similarity profiles, top-k selection, sorted inserts) is delegated to a
pluggable kernel backend from :mod:`repro.core.kernels` — pass
``kernel_backend="numba"`` (or leave the default ``"auto"``) to run the
JIT-compiled kernels when numba is installed.  Backends are bit-identical,
so the choice affects throughput only, never results, and checkpoints are
backend-portable.
"""

from __future__ import annotations

from typing import Generator, NamedTuple

import numpy as np

from repro.core.kernels import get_backend
from repro.core.similarity import SIMILARITY_MEASURES, get_similarity_from_stats
from repro.utils.exceptions import ConfigurationError, NotEnoughDataError

#: Sentinel index used for padded / not-yet-available neighbours.  Negative
#: offsets are treated as belonging to class 0 by the cross-validation, which
#: is exactly how the paper deals with neighbours that slid out of the window.
PADDING_INDEX = -(10**9)

#: Floor applied to subsequence standard deviations so constant subsequences
#: do not divide by zero in the correlation computation.
STD_FLOOR = 1e-8

#: Most steps one block of the numpy path advances: bounds its temporaries
#: to ``O(BLOCK_ROWS * window_size)`` however far a caller advances between
#: two yields.
BLOCK_ROWS = 32

#: Most subsequences a window may hold for the block path; wider windows
#: step point by point.  Per step on a 2-vCPU Xeon VM (w=25), ``send(10)``
#: and ``send(32)`` cost 0.37x/0.24x a point-wise step at m=96, 0.68x/0.56x
#: at m=1,000, 0.75x/0.95x at m=1,250 and 1.09x/1.53x at m=3,000: the
#: ``(B, m)`` temporaries outgrow the cache and numpy accumulates along the
#: first axis of a C-ordered matrix with a strided loop.
BLOCK_MAX_SUBSEQUENCES = 1_000

#: Most row ids the change log holds between two drains; past it the log
#: reports an overflow and its reader takes the whole table.  At the paper's
#: defaults a step writes the newest row and a median of two older ones.
CHANGE_LOG_MAX = 1_024


def require_finite(values: np.ndarray) -> None:
    """Reject a run of stream values holding NaN or infinity (``ConfigurationError``).

    The one gate for stream values: the k-NN and the segmenters built on it
    call it on a whole input before any of their state changes.
    """
    if values.size and not np.isfinite(values).all():
        raise ConfigurationError("stream values must be finite")


def _without_retired_mode(entries: dict) -> dict:
    """``entries`` without the retired ``"mode"`` entry, which must name ``"streaming"``.

    k-NN states and pickles written while the ``"recompute"`` and ``"fft"``
    ablation modes existed carry it.  Those modes are not bit-identical to
    the streaming update, so an entry naming one is rejected.
    """
    if not isinstance(entries, dict) or "mode" not in entries:
        return entries
    if entries["mode"] != "streaming":
        raise ConfigurationError(
            f"retired StreamingKNN field 'mode' must be 'streaming', got {entries['mode']!r}"
        )
    return {key: value for key, value in entries.items() if key != "mode"}


def exclusion_radius(window_size: int) -> int:
    """Trivial-match exclusion radius: the last ``3/2 * w`` observations."""
    return int(np.ceil(1.5 * window_size))


def _step_rows(array: np.ndarray, first: int, steps: int, width: int) -> np.ndarray:
    """``(steps, width)`` view whose row ``b`` is ``array[first + b : first + b + width]``.

    The sliding-window view of one block's steps, built directly (no copy,
    no per-call validation) over a contiguous 1-d backing array.
    """
    itemsize = array.itemsize
    return np.ndarray((steps, width), array.dtype, array, first * itemsize, (itemsize, itemsize))


def _rank_smallest_rows(ids: np.ndarray, rank: int) -> np.ndarray:
    """Row-wise ``rank``-th smallest id (``rank_smallest`` over a block's rows)."""
    ordered = ids.copy()
    ordered.partition(rank, axis=1)
    return ordered[:, rank]


class RegionView(NamedTuple):
    """Zero-copy view of the scoring inputs for a suffix region of the tables.

    Returned by :meth:`StreamingKNN.region_view`.  Both arrays are views into
    the ring-buffered backing storage (no copies) and use *global* subsequence
    coordinates; ``offset`` is the global id of the region's first subsequence,
    so ``thresholds - offset`` / ``knn_indices - offset`` recover the
    region-relative coordinates the cross-validation scores are defined over.
    The views alias live state: they are invalidated by the next update.
    """

    thresholds: np.ndarray
    knn_indices: np.ndarray
    offset: int


def exact_knn_bruteforce(
    values: np.ndarray,
    window_size: int,
    k_neighbours: int,
    similarity: str = "pearson",
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force batch k-NN with the same exclusion zone, used as test oracle.

    Returns
    -------
    (indices, similarities):
        Arrays of shape ``(m, k)`` where ``m = len(values) - window_size + 1``.
        Rows with fewer than ``k`` admissible neighbours are padded with
        :data:`PADDING_INDEX` / ``-inf``.
    """
    from repro.core.similarity import pairwise_similarity_matrix

    values = np.asarray(values, dtype=np.float64)
    m = values.shape[0] - window_size + 1
    if m < 1:
        raise NotEnoughDataError("series shorter than the subsequence width")
    sim = pairwise_similarity_matrix(values, window_size, measure=similarity)
    excl = exclusion_radius(window_size)
    indices = np.full((m, k_neighbours), PADDING_INDEX, dtype=np.int64)
    sims = np.full((m, k_neighbours), -np.inf, dtype=np.float64)
    offsets = np.arange(m)
    for i in range(m):
        row = sim[i].copy()
        row[np.abs(offsets - i) < excl] = -np.inf
        order = np.argsort(-row, kind="stable")
        valid = order[np.isfinite(row[order])][:k_neighbours]
        indices[i, : valid.shape[0]] = valid
        sims[i, : valid.shape[0]] = row[valid]
    return indices, sims


class StreamingKNN:
    """Exact streaming k-NN over a sliding window of a univariate stream.

    Parameters
    ----------
    window_size:
        Sliding window size ``d`` — the maximum number of most recent
        observations kept in the buffer.
    subsequence_width:
        Subsequence width ``w`` used to cut the window into overlapping
        subsequences.
    k_neighbours:
        Number of nearest neighbours maintained per subsequence (default 3,
        the paper's ablation choice).
    similarity:
        One of ``"pearson"`` (default), ``"euclidean"`` or ``"cid"``.
    kernel_backend:
        Execution backend for the element-wise hot-path kernels, one of
        :data:`repro.core.kernels.KERNEL_BACKENDS`.  ``"auto"`` (default)
        uses the numba JIT kernels when numba is installed and the numpy
        reference otherwise.  All backends produce bit-identical tables;
        the backend is not part of the checkpoint state, so state saved
        under one backend restores under any other.

    Attributes
    ----------
    knn_indices:
        Integer array of shape ``(n_subsequences, k)``; entries may be
        negative when a neighbour has slid out of the window (class 0 by
        design) or equal to :data:`PADDING_INDEX` when no admissible
        neighbour existed yet.
    knn_similarities:
        Matching similarity values, ``-inf`` for padded entries.
    """

    def __init__(
        self,
        window_size: int,
        subsequence_width: int,
        k_neighbours: int = 3,
        similarity: str = "pearson",
        kernel_backend: str = "auto",
    ) -> None:
        if subsequence_width < 2:
            raise ConfigurationError("subsequence_width must be >= 2")
        if window_size < 2 * subsequence_width:
            raise ConfigurationError(
                "window_size must be at least twice the subsequence width "
                f"(got d={window_size}, w={subsequence_width})"
            )
        if k_neighbours < 1:
            raise ConfigurationError("k_neighbours must be >= 1")
        if similarity not in SIMILARITY_MEASURES:
            raise ConfigurationError(
                f"unknown similarity {similarity!r}; expected one of {SIMILARITY_MEASURES}"
            )

        self.window_size = int(window_size)
        self.subsequence_width = int(subsequence_width)
        self.k_neighbours = int(k_neighbours)
        self.similarity = similarity
        self.kernel_backend = kernel_backend
        # get_backend validates the name and resolves "auto"/fallbacks
        self._kernels = get_backend(kernel_backend)
        self._similarity_fn = self._kernels.similarity_kernel(similarity)
        self._similarity_rows = get_similarity_from_stats(similarity)
        self.exclusion = exclusion_radius(self.subsequence_width)

        d, w, k = self.window_size, self.subsequence_width, self.k_neighbours
        self._max_subsequences = d - w + 1
        # 2x-capacity backing array: the live window is buffer[start:start+length]
        # and sliding advances `start`; a compaction copy back to offset 0 is
        # needed only once every `d` evictions (O(1) amortized appends).
        # Backing arrays are zero-filled: state_dict copies them whole, so an
        # unwritten tail must not carry stale memory into checkpoints.
        self._capacity = 2 * d
        self._buffer = np.zeros(self._capacity, dtype=np.float64)
        self._start = 0
        self._length = 0
        self._evictions = 0
        # per-subsequence statistics, aligned with the backing array: entry at
        # backing position p describes the subsequence buffer[p:p+w].  Each is
        # computed exactly once, when the subsequence first appears.  The
        # scaled w·μ and w·σ are derived state: not checkpointed, rebuilt
        # from the means and stds on restore.
        self._means = np.zeros(self._capacity, dtype=np.float64)
        self._stds = np.zeros(self._capacity, dtype=np.float64)
        self._scaled_means = np.zeros(self._capacity, dtype=np.float64)
        self._scaled_stds = np.zeros(self._capacity, dtype=np.float64)
        self._comps = np.zeros(self._capacity, dtype=np.float64) if similarity == "cid" else None
        # (w-1)-length partial dot products carried between updates (Eqn. 5)
        self._q_store = np.zeros(self._max_subsequences, dtype=np.float64)
        self._q_valid = 0
        # k-NN tables, also ring-buffered: live rows are
        # backing[row_start:row_start+n_subsequences], and neighbour ids are
        # stored in *global* subsequence coordinates (0, 1, 2, ... over the
        # whole stream) so evicting the oldest subsequence is a row-start
        # increment — no row shift, no per-point id decrement.  The public
        # properties convert back to window-relative offsets on read.
        self._row_capacity = 2 * self._max_subsequences
        self._knn_idx = np.full((self._row_capacity, k), PADDING_INDEX, dtype=np.int64)
        self._knn_sim = np.full((self._row_capacity, k), -np.inf, dtype=np.float64)
        # contiguous copy of each row's worst similarity (column k-1), kept in
        # sync so the per-point beats-the-worst scan reads sequential memory
        self._worst_sim = np.full(self._row_capacity, -np.inf, dtype=np.float64)
        # cached prediction threshold per row: the ceil(k/2)-th smallest
        # neighbour id (global coordinates, PADDING_INDEX counts as smallest).
        # Kept in sync by the table mutations so the ClaSP scoring pass reads
        # it directly instead of re-sorting every row's neighbour set.
        self._threshold_rank = int(np.ceil(k / 2.0)) - 1
        self._thresholds = np.full(self._row_capacity, PADDING_INDEX, dtype=np.int64)
        self._row_start = 0
        self._first_global = 0  # global id of the subsequence at live row 0
        self._n_subsequences = 0
        self._last_similarities: np.ndarray | None = None
        # global ids of the rows whose threshold was written since the last
        # drain; None once it overflowed (or before anything was logged)
        self._changed: list[int] | None = None

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def n_seen(self) -> int:
        """Total number of observations ingested so far."""
        return self._length + self._evictions

    @property
    def n_buffered(self) -> int:
        """Number of observations currently held in the sliding window."""
        return self._length

    @property
    def n_evicted(self) -> int:
        """Number of observations that have slid out of the window so far."""
        return self._evictions

    @property
    def n_subsequences(self) -> int:
        """Number of subsequences currently represented in the k-NN tables."""
        return self._n_subsequences

    @property
    def window(self) -> np.ndarray:
        """Read-only view of the current sliding window contents."""
        return self._buffer[self._start : self._start + self._length]

    @property
    def knn_indices(self) -> np.ndarray:
        """Current k-NN offsets, shape ``(n_subsequences, k)``.

        Materialised from the global-coordinate ring storage on read;
        entries for neighbours that never existed stay :data:`PADDING_INDEX`,
        evicted neighbours come out as negative offsets (class 0 by design).
        """
        rows = self._knn_idx[self._row_start : self._row_start + self._n_subsequences]
        offsets = rows - self._first_global
        offsets[rows == PADDING_INDEX] = PADDING_INDEX
        return offsets

    @property
    def knn_similarities(self) -> np.ndarray:
        """Current k-NN similarities, shape ``(n_subsequences, k)``."""
        return self._knn_sim[self._row_start : self._row_start + self._n_subsequences]

    @property
    def last_similarity_profile(self) -> np.ndarray | None:
        """Similarity of every subsequence to the newest one from the last update."""
        return self._last_similarities

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def update(self, value: float) -> bool:
        """Ingest one observation and refresh the k-NN tables.

        The single-element case of :meth:`update_many` — both share one
        ingestion implementation.

        Returns
        -------
        bool
            True once at least one subsequence exists (i.e. the tables carry
            information), False while the window is still shorter than ``w``.
        """
        ready = False
        for ready in self.update_many(np.asarray([value], dtype=np.float64)):
            pass
        return ready

    def update_many(self, values: np.ndarray) -> Generator[bool, int | None, None]:
        """Ingest a chunk of observations; lazily yield the table state per advance.

        The returned generator advances one observation per ``next()`` and
        then yields, after the k-NN tables have been refreshed for it: True
        once at least one subsequence exists, False during warm-up
        (mirroring :meth:`update`).  At a yield, ``send(n)`` instead advances
        ``n >= 1`` observations before the next yield (a fresh generator's
        first advance is a ``next()``); the generator ends once the chunk is
        consumed, so sending past its end raises ``StopIteration``.  Between
        advances the live table views (:attr:`knn_indices`,
        :attr:`knn_similarities`, :attr:`last_similarity_profile`) expose the
        state after the most recent observation, so callers can step the
        stream and inspect tables at any granularity.  Draining the iterator
        without looking at intermediate states ingests the whole chunk with
        all per-point Python overhead (validation, statistics recomputation)
        hoisted out of the loop.

        Nobody reads the states inside one ``send(n)``, so once the window is
        saturated a k-NN on the numpy backend with at most
        :data:`BLOCK_MAX_SUBSEQUENCES` subsequences advances them as blocks of
        up to :data:`BLOCK_ROWS` steps, each a fixed number of whole-block
        numpy operations.  The block path is bit-identical to
        stepping point by point: ``send`` changes only the speed.

        Chunked ingestion is bit-identical to point-wise ingestion: feeding
        the same values through any partition into chunks, and advancing
        through any schedule of ``next()`` and ``send(n)``, produces exactly
        the same tables and the same :meth:`state_dict`.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ConfigurationError("update_many expects a 1-d array of values")
        require_finite(values)
        return self._ingest_chunk(values)

    def reset(self) -> None:
        """Forget all state and start from an empty window.

        The backing arrays are zero-filled as at construction, so a reset
        k-NN fed the same values as a fresh one has an equal
        :meth:`state_dict`.
        """
        self._buffer.fill(0.0)
        self._means.fill(0.0)
        self._stds.fill(0.0)
        self._scaled_means.fill(0.0)
        self._scaled_stds.fill(0.0)
        if self._comps is not None:
            self._comps.fill(0.0)
        self._q_store.fill(0.0)
        self._start = 0
        self._length = 0
        self._evictions = 0
        self._q_valid = 0
        self._n_subsequences = 0
        self._row_start = 0
        self._first_global = 0
        self._knn_idx.fill(PADDING_INDEX)
        self._knn_sim.fill(-np.inf)
        self._worst_sim.fill(-np.inf)
        self._thresholds.fill(PADDING_INDEX)
        self._last_similarities = None
        self._changed = None

    def state_dict(self) -> dict:
        """Serialise the full k-NN state (backing arrays, offsets, counters).

        The exact buffer layout is preserved — backing arrays are copied
        as-is together with the ring offsets — so a restored instance
        performs byte-for-byte the same operations as the original on every
        subsequent update (the checkpoint/resume bit-identity guarantee of
        :mod:`repro.api.checkpoint` rests on this).  All arrays are copies;
        the returned payload shares no memory with the live tables.

        The kernel backend is deliberately *not* part of the payload:
        backends are bit-identical, so state saved under one backend
        restores into an instance using any other.  Neither are the scaled
        statistics ``w·μ`` and ``w·σ``, which a restore rebuilds from the
        means and stds.
        """
        return {
            "config": {
                "window_size": self.window_size,
                "subsequence_width": self.subsequence_width,
                "k_neighbours": self.k_neighbours,
                "similarity": self.similarity,
            },
            "buffer": self._buffer.copy(),
            "start": self._start,
            "length": self._length,
            "evictions": self._evictions,
            "means": self._means.copy(),
            "stds": self._stds.copy(),
            "comps": None if self._comps is None else self._comps.copy(),
            "q_store": self._q_store.copy(),
            "q_valid": self._q_valid,
            "knn_idx": self._knn_idx.copy(),
            "knn_sim": self._knn_sim.copy(),
            "worst_sim": self._worst_sim.copy(),
            "thresholds": self._thresholds.copy(),
            "row_start": self._row_start,
            "first_global": self._first_global,
            "n_subsequences": self._n_subsequences,
            "last_similarities": (
                None if self._last_similarities is None else self._last_similarities.copy()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` payload into this instance.

        The receiving instance must be configured identically (window size,
        subsequence width, neighbours, similarity) — a mismatch is a
        configuration error, not a silent re-interpretation of the buffers.
        A retired ``"mode"`` entry loads when it names ``"streaming"``.
        """
        config = _without_retired_mode(state.get("config", {}))
        expected = {
            "window_size": self.window_size,
            "subsequence_width": self.subsequence_width,
            "k_neighbours": self.k_neighbours,
            "similarity": self.similarity,
        }
        if config != expected:
            raise ConfigurationError(
                f"k-NN state was saved for configuration {config}, "
                f"cannot restore into {expected}"
            )
        self._buffer = np.array(state["buffer"], dtype=np.float64)
        self._start = int(state["start"])
        self._length = int(state["length"])
        self._evictions = int(state["evictions"])
        self._means = np.array(state["means"], dtype=np.float64)
        self._stds = np.array(state["stds"], dtype=np.float64)
        self._scale_statistics()
        self._comps = None if state["comps"] is None else np.array(state["comps"], dtype=np.float64)
        self._q_store = np.array(state["q_store"], dtype=np.float64)
        self._q_valid = int(state["q_valid"])
        self._knn_idx = np.array(state["knn_idx"], dtype=np.int64)
        self._knn_sim = np.array(state["knn_sim"], dtype=np.float64)
        self._worst_sim = np.array(state["worst_sim"], dtype=np.float64)
        self._thresholds = np.array(state["thresholds"], dtype=np.int64)
        self._row_start = int(state["row_start"])
        self._first_global = int(state["first_global"])
        self._n_subsequences = int(state["n_subsequences"])
        last = state["last_similarities"]
        self._last_similarities = None if last is None else np.array(last, dtype=np.float64)
        self._changed = None

    def __getstate__(self) -> dict:
        """Pickle support: drop the cached kernel callables and the scaled statistics.

        The backend object and the measure-specialised similarity functions
        are derived from ``(kernel_backend, similarity)`` and may be local
        closures or JIT dispatchers, neither of which pickles.  They are
        rebuilt on unpickling, so embedding a live instance in a deep-copied
        checkpoint (as the FLOSS competitor does) keeps working.  The scaled
        ``w·μ`` and ``w·σ`` are rebuilt from the means and stds as well, and
        the change log restarts as overflowed.  A pickle's retired ``mode``
        attribute loads when it names ``"streaming"``.
        """
        state = self.__dict__.copy()
        state.pop("_changed", None)
        state.pop("_kernels", None)
        state.pop("_similarity_fn", None)
        state.pop("_similarity_rows", None)
        state.pop("_scaled_means", None)
        state.pop("_scaled_stds", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(_without_retired_mode(state))
        self._changed = None
        self._kernels = get_backend(self.kernel_backend)
        self._similarity_fn = self._kernels.similarity_kernel(self.similarity)
        self._similarity_rows = get_similarity_from_stats(self.similarity)
        self._scale_statistics()

    def region_view(self, region_start: int = 0) -> RegionView:
        """Zero-copy scoring inputs for the table suffix from ``region_start`` on.

        Returns views of the cached prediction thresholds and the k-NN rows of
        the subsequences at window offsets ``region_start, ..., m - 1`` (both
        in global coordinates) plus the global id of the region's first
        subsequence.  The thresholds are maintained incrementally — only rows
        whose neighbour set changed are touched per update — so consuming them
        replaces the per-pass sort over the whole region's k-NN table.
        """
        if not 0 <= region_start <= self._n_subsequences:
            raise ConfigurationError(
                f"region_start must lie in [0, {self._n_subsequences}], got {region_start}"
            )
        low = self._row_start + region_start
        high = self._row_start + self._n_subsequences
        return RegionView(
            thresholds=self._thresholds[low:high],
            knn_indices=self._knn_idx[low:high],
            offset=self._first_global + region_start,
        )

    def drain_changed_rows(self) -> list[int] | None:
        """The global ids of the rows whose threshold was written since the last drain.

        Empties the change log.  Returns None when the log cannot say: it
        overflowed (:data:`CHANGE_LOG_MAX`), a block advance wrote it (the
        block path does not log), or nothing drained it since the k-NN was
        built, reset or restored; the reader then takes every row.  An id
        may repeat, may belong to a row evicted since, and a logged row's
        threshold may be unchanged.  The log is derived state: not
        checkpointed, and overflowed after a restore or an unpickle.
        """
        changed, self._changed = self._changed, []
        return changed

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _ingest_chunk(self, values: np.ndarray) -> Generator[bool, int | None, None]:
        """Generator behind :meth:`update_many` (input already validated).

        The chunk is bulk-copied into the backing array and the statistics of
        every subsequence it completes are computed in one vectorised pass;
        the remaining per-point work (the sequential dot-product recurrence
        and the k-NN table refresh) runs in a tight loop over views.  The
        chunk is split exactly at the positions where the point-wise path
        would compact the backing array, so the buffer layout — and with it
        every floating-point operation — is a pure function of the stream
        position, never of the chunking.

        ``next()`` advances one observation and ``send(n)`` advances ``n``
        before the next yield.  An advance of two or more saturated steps on
        the numpy backend, in a window of at most
        :data:`BLOCK_MAX_SUBSEQUENCES` subsequences, runs as whole-block
        numpy operations (:meth:`_advance_blocks`); everything else steps
        point by point.

        The similarity skips its zero-denominator scan while every std its
        steps read is at least :data:`STD_FLOOR` (a NaN std, from values
        whose squares overflow, is not): no denominator can then be zero.
        Within one call subsequences only leave the window, so the stds
        live at its start, ANDed with each batch the call computes, cover
        every step.  The decision is made afresh in each call and read from
        the live subsequences only, never from the zero-filled backing.
        """
        w = self.subsequence_width
        live = self._stds[self._start : self._start + max(0, self._length - w + 1)]
        floored = bool(live.min(initial=np.inf) >= STD_FLOOR)
        blocks = self._kernels.name == "numpy" and self._max_subsequences <= BLOCK_MAX_SUBSEQUENCES
        n = values.shape[0]
        position = 0
        pending = 1  # observations to advance before the next yield
        ready = False
        while position < n:
            write = self._start + self._length
            if write == self._capacity:
                self._compact()
                write = self._start + self._length
            take = min(n - position, self._capacity - write)
            self._buffer[write : write + take] = values[position : position + take]
            # statistics for the subsequences completed by this sub-chunk
            first = max(0, w - 1 - self._length)
            if first < take:
                computed = self._compute_subsequence_stats(write + first - w + 1, take - first)
                floored = floored and computed
            done = 0
            while done < take:
                count = min(pending, take - done)
                if blocks and count > 1 and self._length == self.window_size:
                    ready = self._advance_blocks(count, floored)
                else:
                    for _ in range(count):
                        ready = self._step(floored)
                done += count
                pending -= count
                if not pending:
                    sent = yield ready
                    pending = 1 if sent is None else int(sent)
                    if pending < 1:
                        raise ConfigurationError(f"send(n) needs n >= 1, got {sent}")
            position += take

    def _step(self, floored: bool) -> bool:
        """Advance the window over one already-written observation.

        ``floored`` vouches that every live std is at least :data:`STD_FLOOR`.
        """
        if self._length < self.window_size:
            self._length += 1
            evicted = False
        else:
            self._start += 1
            self._evictions += 1
            evicted = True
        if self._length < self.subsequence_width:
            return False
        m = self._length - self.subsequence_width + 1
        start, query = self._start, self._start + m - 1
        window = self._buffer[start : start + self._length]
        dot_products = self._incremental_dot_products(window, m, evicted)
        complexities = query_complexity = None
        if self._comps is not None:
            complexities = self._comps[start : start + m]
            query_complexity = self._comps[query]
        similarities = self._similarity_fn(
            dot_products,
            self._scaled_means[start : start + m],
            self._scaled_stds[start : start + m],
            self._means[query],
            self._stds[query],
            self.subsequence_width,
            complexities,
            query_complexity,
            floored,
        )
        self._last_similarities = similarities
        self._refresh_tables(similarities, evicted)
        return True

    def _advance_blocks(self, count: int, floored: bool) -> bool:
        """Advance ``count`` saturated steps in blocks.

        A block stops at :data:`BLOCK_ROWS` steps and before the step that
        compacts the k-NN tables; a remainder of one step goes point-wise.
        """
        while count:
            steps = min(count, BLOCK_ROWS, self._max_subsequences - self._row_start)
            if steps < 2:
                steps = 1
                self._step(floored)
            else:
                self._block_step(steps, floored)
            count -= steps
        return True

    def _block_step(self, steps: int, floored: bool) -> None:
        """Advance ``steps`` saturated steps with whole-block numpy operations.

        Bit-identical to ``steps`` calls of :meth:`_step` with the numpy
        kernels, including every backing row a checkpoint copies:

        * **dot products** — the rows ``[q; E_0; -S_0; ...; E_{B-1};
          -S_{B-1}]`` (extend terms of Eqn. 3, negated shrink terms of
          Eqn. 5) summed by one ``np.add.accumulate``, which adds row by row,
          and ``a + (-b) == a - b`` in IEEE 754;
        * **similarity** — the measure's own expressions over ``(B, m)`` row
          views of the statistics, the query's as a column;
        * **newest rows** — top-k of each admissible prefix by ``argmax``
          passes (first occurrence: the tie rule of ``topk_newest``), the
          taken entries masked in place and put back afterwards;
        * **older rows** — see :meth:`_insert_block`.

        The caller guarantees a saturated window and no table compaction
        inside the block.  The block's rows are not logged: it marks the
        change log overflowed.
        """
        self._changed = None
        d, w, k = self.window_size, self.subsequence_width, self.k_neighbours
        m = self._max_subsequences
        buffer = self._buffer
        first = self._start + 1  # backing offset of the first step's window
        row_start, first_global = self._row_start, self._first_global
        dots = np.empty((2 * steps + 1, m), dtype=np.float64)
        dots[0] = self._q_store[:m]
        newest = buffer[first + d - 1 : first + d - 1 + steps, None]
        oldest = buffer[first + d - w : first + d - w + steps, None]
        np.multiply(_step_rows(buffer, first + w - 1, steps, m), newest, out=dots[1::2])
        np.multiply(_step_rows(buffer, first, steps, m), -oldest, out=dots[2::2])
        np.add.accumulate(dots, axis=0, out=dots)
        self._q_store[:m] = dots[-1]

        queries = slice(first + m - 1, first + m - 1 + steps)
        complexities = query_complexities = None
        if self._comps is not None:
            complexities = _step_rows(self._comps, first, steps, m)
            query_complexities = self._comps[queries, None]
        sims = self._similarity_rows(
            dots[1::2],
            _step_rows(self._scaled_means, first, steps, m),
            _step_rows(self._scaled_stds, first, steps, m),
            self._means[queries, None],
            self._stds[queries, None],
            w,
            complexities,
            query_complexities,
            floored,
        )

        # the newest row of step b lands at backing row row_start + m + b
        low = max(0, m - self.exclusion)
        new_rows = slice(row_start + m, row_start + m + steps)
        new_idx = self._knn_idx[new_rows]
        new_sim = self._knn_sim[new_rows]
        new_idx.fill(PADDING_INDEX)
        new_sim.fill(-np.inf)
        if low > 0:
            step = np.arange(steps)
            take = min(k, low)
            candidates = sims[:, :low]  # taken entries are masked, then put back
            for slot in range(take):
                best = candidates.argmax(axis=1)
                new_idx[:, slot] = best
                new_sim[:, slot] = candidates[step, best]
                candidates[step, best] = -np.inf
            for slot in reversed(range(take)):
                candidates[step, new_idx[:, slot]] = new_sim[:, slot]
            new_idx[:, :take] += step[:, None] + (first_global + 1)
        self._worst_sim[new_rows] = new_sim[:, k - 1]
        self._thresholds[new_rows] = _rank_smallest_rows(new_idx, self._threshold_rank)
        if low > 0:
            self._insert_block(sims[:, :low])

        self._last_similarities = sims[-1].copy()
        self._start += steps
        self._evictions += steps
        self._row_start += steps
        self._first_global += steps

    def _insert_block(self, offers: np.ndarray) -> None:
        """Insert a block's newest subsequences into the older rows they beat.

        ``offers[b]`` is step ``b``'s admissible prefix: at step ``b`` the row
        with global id ``first_global + 1 + u`` is offered ``offers[b, u - b]``
        by the subsequence with global id ``first_global + m + b``.  A skewed
        view lines each row's offers up in step order (``-inf`` where a step
        offers it nothing), so rows created inside the block are offered the
        later steps' candidates too.

        A row whose offers all fail its stored worst is untouched, as in the
        per-point path.  Otherwise sequential sorted insertion keeps the
        top-k of the stored and offered entries in descending order, which a
        stable descending sort of ``[stored, offers]`` reproduces unless an
        offer ties another entry above the stored worst: sequential insertion
        puts a candidate before equal entries but rejects one equal to the
        worst.  Those rows replay their offers in step order through the
        backend's ``insert_newest``.
        """
        steps, low = offers.shape
        k, m = self.k_neighbours, self._max_subsequences
        rank = self._threshold_rank
        # padded[b, j] = offers[b, j] (j < low) or -inf; reading it with row
        # stride 1 and step stride low + steps - 1 gives offered[u, b] =
        # padded[b, u - b], the padding of row b - 1 standing in for u < b
        padded = np.empty((steps, low + steps), dtype=np.float64)
        padded[:, :low] = offers
        padded[:, low:] = -np.inf
        span = low + steps - 1  # rows offered anything: global ids first_global + 1 + u
        itemsize = padded.itemsize
        offered = np.ndarray((span, steps), np.float64, padded, 0, (itemsize, span * itemsize))
        base = self._row_start + 1
        worst = self._worst_sim[base : base + span]
        beaten = (np.maximum.reduce(offered, axis=1) > worst).nonzero()[0]
        if beaten.shape[0] == 0:
            return
        rows = beaten + base
        stored_idx = self._knn_idx[rows]
        values = np.concatenate((self._knn_sim[rows], offered[beaten]), axis=1)
        order = (-values).argsort(axis=1, kind="stable")
        chosen = np.arange(beaten.shape[0])[:, None]
        ranked = values[chosen, order]
        # among equal values the stable sort puts stored entries first, then
        # offers in step order: an equal pair ending in an offer is a tie
        tied = (
            (ranked[:, 1:] == ranked[:, :-1])
            & (order[:, 1:] >= k)
            & (ranked[:, 1:] > worst[beaten, None])
        ).any(axis=1)
        replay = tied.nonzero()[0]
        if replay.shape[0]:
            tables = (
                stored_idx[replay],
                values[replay, :k],
                worst[beaten[replay]],
                self._thresholds[rows[replay]],
            )
        keep = order[:, :k]
        # column k + b holds step b's offer, global id first_global + m + b
        patched_idx = np.where(
            keep < k,
            stored_idx[chosen, np.minimum(keep, k - 1)],
            keep + (self._first_global + m - k),
        )
        patched = ranked[:, :k]
        self._knn_sim[rows] = patched
        self._knn_idx[rows] = patched_idx
        self._worst_sim[rows] = patched[:, k - 1]
        self._thresholds[rows] = _rank_smallest_rows(patched_idx, rank)
        if replay.shape[0]:
            offers_of = offered[beaten[replay]]
            for step in range(steps):
                newest = self._first_global + m + step
                self._kernels.insert_newest(*tables, offers_of[:, step], newest, rank)
            target = rows[replay]
            self._knn_idx[target] = tables[0]
            self._knn_sim[target] = tables[1]
            self._worst_sim[target] = tables[2]
            self._thresholds[target] = tables[3]

    def _compact(self) -> None:
        """Copy the live window (and its statistics) back to backing offset 0.

        Costs O(d) but runs only once every ``d`` evictions; the k-NN tables
        and partial dot products are window-relative and unaffected.
        """
        start, length = self._start, self._length
        if start == 0:
            return
        self._buffer[:length] = self._buffer[start : start + length]
        m = length - self.subsequence_width + 1
        if m > 0:
            self._means[:m] = self._means[start : start + m]
            self._stds[:m] = self._stds[start : start + m]
            self._scaled_means[:m] = self._scaled_means[start : start + m]
            self._scaled_stds[:m] = self._scaled_stds[start : start + m]
            if self._comps is not None:
                self._comps[:m] = self._comps[start : start + m]
        self._start = 0

    def _compute_subsequence_stats(self, first: int, count: int) -> bool:
        """Vectorised statistics for ``count`` new subsequences; True if their stds are floored.

        Computes the mean, the std, their scaled ``w·μ`` and ``w·σ`` (from
        the stored mean and floored std, as :meth:`_scale_statistics`
        rebuilds them) and the CID complexity.  ``first`` is the backing
        position of the earliest new subsequence.  Row-wise numpy reductions
        are order-deterministic per row, so bulk computation over a chunk is
        bit-identical to one-at-a-time computation.  A std is not at least
        :data:`STD_FLOOR` only when it is NaN.
        """
        w = self.subsequence_width
        block = self._buffer[first : first + count + w - 1]
        subs = np.lib.stride_tricks.sliding_window_view(block, w)
        sums = subs.sum(axis=1)
        squares = (subs * subs).sum(axis=1)
        mean = sums / w
        variance = np.maximum(squares / w - mean * mean, 0.0)
        std = np.maximum(np.sqrt(variance), STD_FLOOR)
        new = slice(first, first + count)
        self._means[new] = mean
        self._stds[new] = std
        np.multiply(mean, float(w), out=self._scaled_means[new])
        np.multiply(std, float(w), out=self._scaled_stds[new])
        if self._comps is not None:
            diffs = np.diff(block)
            diff_subs = np.lib.stride_tricks.sliding_window_view(diffs, w - 1)
            complexity = np.sqrt(np.maximum((diff_subs * diff_subs).sum(axis=1), 0.0))
            self._comps[new] = complexity
        return bool(std.min() >= STD_FLOOR)

    def _scale_statistics(self) -> None:
        """Rebuild ``w·μ`` and ``w·σ`` from the means and stds (restore, unpickle)."""
        w = float(self.subsequence_width)
        self._scaled_means = self._means * w
        self._scaled_stds = self._stds * w

    def _incremental_dot_products(self, window: np.ndarray, m: int, evicted: bool) -> np.ndarray:
        """The O(d) dot-product update of Algorithm 2 (Eqns. 3 and 5)."""
        w = self.subsequence_width
        length = window.shape[0]
        tail_prefix = window[length - w : length - 1]  # newest subsequence minus last point

        if self._q_valid == 0:
            # bootstrap: first time a full subsequence exists
            partial = np.array(
                [float(window[i : i + w - 1] @ tail_prefix) for i in range(m)],
                dtype=np.float64,
            )
        elif evicted:
            # Case B of the derivation: stored values align 1:1 with the new
            # offsets.  No copy: every backend reads partial[i] before it
            # writes the aliased q_out[i].
            partial = self._q_store[: self._q_valid]
            if partial.shape[0] != m:  # pragma: no cover - defensive
                partial = np.array(
                    [float(window[i : i + w - 1] @ tail_prefix) for i in range(m)],
                    dtype=np.float64,
                )
        else:
            # Case A (growing window): one new head entry is computed directly,
            # the rest are the stored values shifted by one offset.
            partial = np.empty(m, dtype=np.float64)
            partial[0] = float(window[: w - 1] @ tail_prefix)
            partial[1:] = self._q_store[: m - 1]

        # Eqn. 3 extension + Eqn. 5 shrink for the next update, fused in the
        # kernel backend (one multiply-add pass per equation)
        full = self._kernels.extend_shrink(
            partial,
            window[w - 1 : w - 1 + m],
            float(window[-1]),
            window[:m],
            float(window[length - w]),
            self._q_store,
        )
        self._q_valid = m
        return full

    def _refresh_tables(self, similarities: np.ndarray, evicted: bool) -> None:
        """Evict, append and update the k-NN tables (Algorithm 2, lines 15-24).

        The oldest row is dropped by advancing the ring start (global
        neighbour ids make the per-point offset decrement of a naive layout
        unnecessary), the newest subsequence's neighbours are found with one
        arg-k-max over the admissible prefix of the similarity profile, and
        older rows the newest subsequence beats are patched in place.
        """
        k = self.k_neighbours
        newest = similarities.shape[0] - 1

        if evicted and self._n_subsequences == self._max_subsequences:
            self._row_start += 1
            self._first_global += 1
            self._n_subsequences -= 1
            if self._row_start + self._max_subsequences > self._row_capacity:
                self._compact_tables()

        # k-NN for the newest subsequence: the trivial-match exclusion zone
        # covers the profile's tail, so the admissible candidates are exactly
        # the prefix similarities[:low]
        low = max(0, newest - self.exclusion + 1)
        row = self._row_start + self._n_subsequences
        row_idx = self._knn_idx[row]
        row_sim = self._knn_sim[row]
        row_idx.fill(PADDING_INDEX)
        row_sim.fill(-np.inf)
        if low > 0:
            take = min(k, low)
            self._kernels.topk_newest(
                similarities, low, take, self._first_global, row_idx, row_sim
            )
        self._worst_sim[row] = row_sim[k - 1]
        rank = self._threshold_rank
        self._thresholds[row] = self._kernels.rank_smallest(row_idx, rank)
        changed = self._changed
        if changed is not None:
            changed.append(self._first_global + self._n_subsequences)
            if len(changed) > CHANGE_LOG_MAX:
                self._changed = None
        self._n_subsequences += 1

        # k-NN update: the newest subsequence may displace an existing neighbour
        if self._n_subsequences > 1:
            self._insert_newest_into_older_rows(similarities, newest)

    def _compact_tables(self) -> None:
        """Copy the live table rows back to backing row 0 (amortized O(k))."""
        start, n = self._row_start, self._n_subsequences
        self._knn_idx[:n] = self._knn_idx[start : start + n]
        self._knn_sim[:n] = self._knn_sim[start : start + n]
        self._worst_sim[:n] = self._worst_sim[start : start + n]
        self._thresholds[:n] = self._thresholds[start : start + n]
        self._row_start = 0

    def _insert_newest_into_older_rows(self, similarities: np.ndarray, newest: int) -> None:
        """Insert the newest subsequence into older rows it now beats (line 22-23).

        The per-row sorted insert (position = number of stored neighbours
        that are strictly better, columns at and after it shift right by
        one, worst neighbour falls off) runs in the kernel backend over
        views of the eligible live rows, refreshing each patched row's
        cached worst similarity and prediction threshold in place, and logs
        the patched rows.
        """
        start = self._row_start
        eligible_until = max(0, newest - self.exclusion + 1)
        if eligible_until == 0:
            return
        stop = start + eligible_until
        rows = self._kernels.insert_newest(
            self._knn_idx[start:stop],
            self._knn_sim[start:stop],
            self._worst_sim[start:stop],
            self._thresholds[start:stop],
            similarities[:eligible_until],
            self._first_global + newest,
            self._threshold_rank,
        )
        changed = self._changed
        if changed is not None and rows.shape[0]:
            changed += (rows + self._first_global).tolist()
            if len(changed) > CHANGE_LOG_MAX:
                self._changed = None
