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
overhead (validation, mode dispatch, sliding-statistics bookkeeping) out of
the loop, and lazily yields the table state after every observation.
:meth:`StreamingKNN.update` is the thin single-element case of the same code
path, so there is exactly one ingestion implementation and batched ingestion
is bit-identical to point-wise ingestion.

The generator advances one observation per ``next()``; ``send(n)`` at a
yield advances ``n`` before the next one.  A caller that reads the tables
only every so often (ClaSS scores every ``scoring_interval`` observations)
sends the distance to its next read, and a saturated ``"streaming"`` k-NN on
the numpy backend then advances those steps as blocks: one
``np.add.accumulate`` over the stacked extend/shrink terms yields every
step's dot products (bit-identical, since the accumulation adds row by row),
the similarity and the newest rows' top-k run over ``(B, m)`` matrices, and
the older rows merge a block's candidates by one stable sort, replaying the
rows with exact ties through the backend's sorted insert.  Single steps, the
warm-up growth, windows of more than :data:`BLOCK_MAX_SUBSEQUENCES`
subsequences (where the array work outweighs the per-call overhead blocks
save), the ``"recompute"``/``"fft"`` modes and the loop-form backends (numba
has no per-call overhead to amortise) step point by point.

Two buffer-layout choices keep the amortized per-point cost free of hidden
O(d) terms:

* the sliding window lives in a 2x-capacity backing array and slides by
  advancing a start offset; a full O(d) compaction copy happens only once
  every ``d`` evictions, so appending is O(1) amortized instead of the
  shift-the-whole-buffer O(d) of a naive implementation;
* per-subsequence means, standard deviations and (for CID) complexities are
  computed exactly once when a subsequence first appears and kept in backing
  arrays aligned with the window, instead of being recomputed with O(d)
  cumulative sums on every update.

Three operation modes are provided so the ablation benchmarks can reproduce
the runtime discussion of §4.4:

* ``"streaming"`` — the paper's O(d) incremental dot-product update (default).
* ``"recompute"`` — recomputes all dot products against the newest subsequence
  from scratch every update, O(d * w).
* ``"fft"``       — recomputes them with an FFT correlation, O(d log d), the
  approach underlying FLOSS.  Chunked ingestion additionally batches the
  FFT work: once the window is saturated, the distance profiles of a whole
  sub-chunk are produced by one row-wise FFT transform over all of its
  query/window pairs (the stumpy-style MASS batching) instead of one
  transform per observation.  Row-wise FFTs are bit-identical to their 1-d
  counterparts, so this is a pure speedup — the chunked-equals-point-wise
  guarantee below is unaffected.

All three produce identical correlations (up to floating point error), and
for each mode the chunked path produces bit-identical tables to the
point-wise path, which the test-suite verifies.

The element-wise hot-path arithmetic (dot-product extension/shrink,
similarity profiles, top-k selection, sorted inserts) is delegated to a
pluggable kernel backend from :mod:`repro.core.kernels` — pass
``kernel_backend="numba"`` (or leave the default ``"auto"``) to run the
JIT-compiled kernels when numba is installed.  Backends are bit-identical,
so the choice affects throughput only, never results, and checkpoints are
backend-portable.
"""

from __future__ import annotations

import itertools
from typing import Generator, Iterator, NamedTuple

import numpy as np

from repro.core.kernels import get_backend
from repro.core.similarity import SIMILARITY_MEASURES, get_similarity_from_stats
from repro.utils.exceptions import ConfigurationError, NotEnoughDataError

#: Sentinel index used for padded / not-yet-available neighbours.  Negative
#: offsets are treated as belonging to class 0 by the cross-validation, which
#: is exactly how the paper deals with neighbours that slid out of the window.
PADDING_INDEX = -(10**9)

KNN_MODES = ("streaming", "recompute", "fft")

#: Floor applied to subsequence standard deviations so constant subsequences
#: do not divide by zero in the correlation computation.
STD_FLOOR = 1e-8

#: Minimum sub-chunk length for which ``"fft"`` mode switches from per-point
#: FFT transforms to one batched row-wise transform per sub-chunk.  Below
#: this the batch set-up costs more than it saves.
FFT_BATCH_MIN = 32

#: Row-block size of the batched FFT: bounds the transform workspace to
#: ``O(FFT_BATCH_ROWS * window_size)`` regardless of chunk length.
FFT_BATCH_ROWS = 128

#: Most steps one block of the ``"streaming"`` numpy path advances: bounds
#: its temporaries to ``O(BLOCK_ROWS * window_size)`` however far a caller
#: advances between two yields.
BLOCK_ROWS = 32

#: Most subsequences a window may hold for the block path; wider windows
#: step point by point.  Per step on a 2-vCPU Xeon VM (w=25), ``send(10)``
#: and ``send(32)`` cost 0.37x/0.24x a point-wise step at m=96, 0.68x/0.56x
#: at m=1,000, 0.75x/0.95x at m=1,250 and 1.09x/1.53x at m=3,000: the
#: ``(B, m)`` temporaries outgrow the cache and numpy accumulates along the
#: first axis of a C-ordered matrix with a strided loop.
BLOCK_MAX_SUBSEQUENCES = 1_000


def require_finite(values: np.ndarray) -> None:
    """Reject a run of stream values holding NaN or infinity (``ConfigurationError``).

    The one gate for stream values: the k-NN and the segmenters built on it
    call it on a whole input before any of their state changes.
    """
    if values.size and not np.isfinite(values).all():
        raise ConfigurationError("stream values must be finite")


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
    mode:
        Dot-product update strategy, see module docstring.
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
        mode: str = "streaming",
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
        if mode not in KNN_MODES:
            raise ConfigurationError(f"unknown mode {mode!r}; expected one of {KNN_MODES}")

        self.window_size = int(window_size)
        self.subsequence_width = int(subsequence_width)
        self.k_neighbours = int(k_neighbours)
        self.similarity = similarity
        self.mode = mode
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
        # computed exactly once, when the subsequence first appears.
        self._means = np.zeros(self._capacity, dtype=np.float64)
        self._stds = np.zeros(self._capacity, dtype=np.float64)
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
        all per-point Python overhead (validation, mode dispatch, statistics
        recomputation) hoisted out of the loop.

        Nobody reads the states inside one ``send(n)``, so once the window is
        saturated a ``"streaming"`` k-NN on the numpy backend with at most
        :data:`BLOCK_MAX_SUBSEQUENCES` subsequences advances them as blocks
        of up to :data:`BLOCK_ROWS` steps, each a fixed number of
        whole-block numpy operations.  The block path is bit-identical to
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
        restores into an instance using any other.
        """
        return {
            "config": {
                "window_size": self.window_size,
                "subsequence_width": self.subsequence_width,
                "k_neighbours": self.k_neighbours,
                "similarity": self.similarity,
                "mode": self.mode,
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
        subsequence width, neighbours, similarity, mode) — a mismatch is a
        configuration error, not a silent re-interpretation of the buffers.
        """
        config = state.get("config", {})
        expected = {
            "window_size": self.window_size,
            "subsequence_width": self.subsequence_width,
            "k_neighbours": self.k_neighbours,
            "similarity": self.similarity,
            "mode": self.mode,
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

    def __getstate__(self) -> dict:
        """Pickle support: drop the cached kernel callables.

        The backend object and the measure-specialised similarity functions
        are derived from ``(kernel_backend, similarity)`` and may be local
        closures or JIT dispatchers, neither of which pickles.  They are
        rebuilt on unpickling, so embedding a live instance in a deep-copied
        checkpoint (as the FLOSS competitor does) keeps working.
        """
        state = self.__dict__.copy()
        state.pop("_kernels", None)
        state.pop("_similarity_fn", None)
        state.pop("_similarity_rows", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernels = get_backend(self.kernel_backend)
        self._similarity_fn = self._kernels.similarity_kernel(self.similarity)
        self._similarity_rows = get_similarity_from_stats(self.similarity)

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
        before the next yield.  An advance of two or more saturated
        ``"streaming"`` steps on the numpy backend, in a window of at most
        :data:`BLOCK_MAX_SUBSEQUENCES` subsequences, runs as whole-block
        numpy operations (:meth:`_advance_blocks`); everything else steps
        point by point.
        """
        w = self.subsequence_width
        dot_update = {
            "streaming": self._incremental_dot_products,
            "recompute": self._recomputed_dot_products,
            "fft": self._fft_dot_products,
        }[self.mode]
        batch_fft = self.mode == "fft"
        blocks = (
            self.mode == "streaming"
            and self._kernels.name == "numpy"
            and self._max_subsequences <= BLOCK_MAX_SUBSEQUENCES
        )
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
                self._compute_subsequence_stats(write + first - w + 1, take - first)
            profiles = None
            if batch_fft and take >= FFT_BATCH_MIN and self._length == self.window_size:
                profiles = self._batch_fft_profiles(take)
            done = 0
            while done < take:
                count = min(pending, take - done)
                if profiles is not None:
                    for profile in itertools.islice(profiles, count):
                        ready = self._step(self._precomputed_dot_products(profile))
                elif blocks and count > 1 and self._length == self.window_size:
                    ready = self._advance_blocks(count)
                else:
                    for _ in range(count):
                        ready = self._step(dot_update)
                done += count
                pending -= count
                if not pending:
                    sent = yield ready
                    pending = 1 if sent is None else int(sent)
                    if pending < 1:
                        raise ConfigurationError(f"send(n) needs n >= 1, got {sent}")
            position += take

    def _step(self, dot_update) -> bool:
        """Advance the window over one already-written observation."""
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
        window = self._buffer[self._start : self._start + self._length]
        dot_products = dot_update(window, m, evicted)
        means = self._means[self._start : self._start + m]
        stds = self._stds[self._start : self._start + m]
        complexities = None
        if self._comps is not None:
            complexities = self._comps[self._start : self._start + m]
        similarities = self._similarity_fn(
            dot_products, means, stds, m - 1, self.subsequence_width, complexities
        )
        self._last_similarities = similarities
        self._refresh_tables(similarities, evicted)
        return True

    def _batch_fft_profiles(self, take: int) -> Iterator[np.ndarray]:
        """Dot-product profiles of ``take`` saturated-window steps, batched by FFT.

        Computes the profiles with one row-wise FFT transform per
        :data:`FFT_BATCH_ROWS` block, lazily as the steps consume them — each
        row pairs the sliding window of a step with that step's newest
        subsequence (reversed), exactly the operands of the per-point
        :meth:`_fft_dot_products`.  numpy's pocketfft evaluates row-wise
        transforms identically to 1-d ones, so every profile — and the
        per-step Eqn. 5 shrink written to the partial-dot-product store —
        is bit-identical to the per-point path.  Only used when the window
        is saturated (every step evicts), which keeps the window length,
        FFT size and row geometry constant across the sub-chunk.
        """
        d = self.window_size
        w = self.subsequence_width
        m = self._max_subsequences
        size = 1 << int(np.ceil(np.log2(d + w)))
        buffer = self._buffer
        base = self._start + 1  # backing offset of the first step's window
        sliding = np.lib.stride_tricks.sliding_window_view
        done = 0
        while done < take:
            block = min(FFT_BATCH_ROWS, take - done)
            first = base + done
            windows = sliding(buffer[first : first + d + block - 1], d)
            queries = sliding(buffer[first + d - w : first + d + block - 1], w)[:, ::-1]
            spec = np.fft.rfft(windows, size, axis=1) * np.fft.rfft(queries, size, axis=1)
            conv = np.fft.irfft(spec, size, axis=1)
            yield from conv[:, w - 1 : w - 1 + m]
            done += block

    def _advance_blocks(self, count: int) -> bool:
        """Advance ``count`` saturated ``"streaming"`` steps in blocks.

        A block stops at :data:`BLOCK_ROWS` steps and before the step that
        compacts the k-NN tables; a remainder of one step goes point-wise.
        """
        while count:
            steps = min(count, BLOCK_ROWS, self._max_subsequences - self._row_start)
            if steps < 2:
                steps = 1
                self._step(self._incremental_dot_products)
            else:
                self._block_step(steps)
            count -= steps
        return True

    def _block_step(self, steps: int) -> None:
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
        inside the block.
        """
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
            _step_rows(self._means, first, steps, m),
            _step_rows(self._stds, first, steps, m),
            self._means[queries, None],
            self._stds[queries, None],
            w,
            complexities,
            query_complexities,
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

    def _precomputed_dot_products(self, full: np.ndarray):
        """Adapt one batched profile row to the ``dot_update`` interface.

        Still writes the Eqn. 5 shrink into the partial-dot-product store so
        a checkpoint taken mid-chunk restores into the same state the
        per-point path would have produced.
        """

        def dot_update(window: np.ndarray, m: int, evicted: bool) -> np.ndarray:
            profile = full[:m]
            oldest = window[window.shape[0] - self.subsequence_width]
            self._q_store[:m] = profile - window[:m] * oldest
            self._q_valid = m
            return profile

        return dot_update

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
            if self._comps is not None:
                self._comps[:m] = self._comps[start : start + m]
        self._start = 0

    def _compute_subsequence_stats(self, first: int, count: int) -> None:
        """Vectorised mean/std (and CID complexity) for ``count`` new subsequences.

        ``first`` is the backing position of the earliest new subsequence.
        Row-wise numpy reductions are order-deterministic per row, so bulk
        computation over a chunk is bit-identical to one-at-a-time
        computation.
        """
        w = self.subsequence_width
        block = self._buffer[first : first + count + w - 1]
        subs = np.lib.stride_tricks.sliding_window_view(block, w)
        sums = subs.sum(axis=1)
        squares = (subs * subs).sum(axis=1)
        mean = sums / w
        variance = np.maximum(squares / w - mean * mean, 0.0)
        std = np.maximum(np.sqrt(variance), STD_FLOOR)
        self._means[first : first + count] = mean
        self._stds[first : first + count] = std
        if self._comps is not None:
            diffs = np.diff(block)
            diff_subs = np.lib.stride_tricks.sliding_window_view(diffs, w - 1)
            complexity = np.sqrt(np.maximum((diff_subs * diff_subs).sum(axis=1), 0.0))
            self._comps[first : first + count] = complexity

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

    def _recomputed_dot_products(self, window: np.ndarray, m: int, evicted: bool) -> np.ndarray:
        """O(d * w) recomputation of the dot products (ablation mode)."""
        w = self.subsequence_width
        subs = np.lib.stride_tricks.sliding_window_view(window, w)
        query = window[-w:]
        full = subs @ query
        self._q_store[:m] = full - window[:m] * window[window.shape[0] - w]
        self._q_valid = m
        return full

    def _fft_dot_products(self, window: np.ndarray, m: int, evicted: bool) -> np.ndarray:
        """O(d log d) FFT-based dot products (FLOSS-style ablation mode)."""
        w = self.subsequence_width
        query = window[-w:]
        n = window.shape[0]
        size = 1 << int(np.ceil(np.log2(n + w)))
        spec = np.fft.rfft(window, size) * np.fft.rfft(query[::-1], size)
        conv = np.fft.irfft(spec, size)
        full = conv[w - 1 : w - 1 + m]
        self._q_store[:m] = full - window[:m] * window[n - w]
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
        cached worst similarity and prediction threshold in place.
        """
        start = self._row_start
        eligible_until = max(0, newest - self.exclusion + 1)
        if eligible_until == 0:
            return
        stop = start + eligible_until
        self._kernels.insert_newest(
            self._knn_idx[start:stop],
            self._knn_sim[start:stop],
            self._worst_sim[start:stop],
            self._thresholds[start:stop],
            similarities[:eligible_until],
            self._first_global + newest,
            self._threshold_rank,
        )
