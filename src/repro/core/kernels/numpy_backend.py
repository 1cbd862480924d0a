"""Vectorised numpy reference implementation of the kernel API.

These are the exact hot-path expressions that previously lived inline in
:mod:`repro.core.streaming_knn`, factored out so alternative backends (numba,
loops) can be validated against them kernel by kernel.  The similarity and
fused-score kernels are not duplicated here — the backend wrapper delegates
to :func:`repro.core.similarity.get_similarity` and
:func:`repro.core.scoring.fused_split_scores`, which remain the single numpy
source of truth.

Tie handling in the top-k selection is deterministic by contract: candidates
are ranked by similarity descending with equal values resolved towards the
smaller (older) offset.  This matches the brute-force oracle's stable
descending argsort and, crucially, is a rule loop-form backends can replicate
bit-identically — ``argpartition``'s unspecified boundary-tie choice is not.
"""

from __future__ import annotations

import numpy as np


def extend_shrink(partial, extend_values, newest, shrink_values, oldest, q_out):
    """Eqn. 3 extension and Eqn. 5 shrink of the partial dot products.

    ``full = partial + extend_values * newest`` and ``q_out[:m] = full -
    shrink_values * oldest``, computed in place: the extend product goes
    into a fresh ``full`` (``partial`` may alias ``q_out``, so it is read
    whole before ``q_out`` is written) and the shrink product straight into
    ``q_out``.
    """
    full = np.multiply(extend_values, newest)
    full += partial
    shrunk = q_out[: full.shape[0]]
    np.multiply(shrink_values, oldest, out=shrunk)
    np.subtract(full, shrunk, out=shrunk)
    return full


def topk_newest(similarities, low, take, first_global, idx_out, sim_out):
    """Top-``take`` of ``similarities[:low]`` by value desc, index asc on ties.

    One ``argmax`` pass per slot over the candidates, each taken candidate
    then masked with ``-inf``: ``argmax`` returns the first occurrence of
    the maximum, so equal values come out earliest index first.  The masked
    entries are put back afterwards (latest slot first, so a candidate
    taken twice gets its first value), leaving ``similarities`` unchanged
    on return.  Writes ``idx_out[:take]`` (global ids) and
    ``sim_out[:take]``; the caller pre-pads the rest of the row.
    """
    candidates = similarities[:low]
    taken = []
    for slot in range(take):
        best = int(candidates.argmax())
        value = candidates[best]
        taken.append((best, value))
        idx_out[slot] = best + first_global
        sim_out[slot] = value
        candidates[best] = -np.inf
    for best, value in reversed(taken):
        candidates[best] = value


#: Most beaten rows patched one by one on Python lists; more take the
#: vectorised patch.  On a 2-vCPU Xeon VM at the paper's full window (m=9,976,
#: k=3) the list patch costs ~1.7 µs per row against ~24 µs for the
#: vectorised one: they meet near 14 rows.  At the paper's defaults 94% of
#: steps beat at most 8 rows.
LIST_PATCH_ROWS = 12


def rank_smallest(values, rank):
    """``rank``-th smallest entry (0-indexed) of a small integer array."""
    return sorted(values.tolist())[rank]


def insert_newest(indices, sims, worst, thresholds, candidate_sims, newest_global, rank):
    """Sorted-insert of the newest subsequence into the rows it beats.

    All array arguments are views of the live (eligible) table rows and are
    mutated in place.  Up to :data:`LIST_PATCH_ROWS` beaten rows are patched
    one by one on Python lists: the candidate goes before the first stored
    entry that is not strictly better (the rule of the loop kernels) and the
    last entry falls off.  More rows take one vectorised shift-and-mask patch
    over all beaten rows at once.
    """
    rows = (candidate_sims > worst).nonzero()[0]
    if rows.shape[0] == 0:
        return
    if rows.shape[0] <= LIST_PATCH_ROWS:
        for row, value in zip(rows.tolist(), candidate_sims[rows].tolist()):
            row_sims = sims[row].tolist()
            position = 0
            while row_sims[position] > value:
                position += 1
            row_sims.insert(position, value)
            row_sims.pop()
            row_idx = indices[row].tolist()
            row_idx.insert(position, newest_global)
            row_idx.pop()
            sims[row] = row_sims
            indices[row] = row_idx
            worst[row] = row_sims[-1]
            thresholds[row] = sorted(row_idx)[rank]
        return
    k = sims.shape[1]
    values = candidate_sims[rows]
    beaten_sims = sims[rows]
    beaten_idx = indices[rows]
    insert_at = (beaten_sims > values[:, None]).sum(axis=1)
    columns = np.arange(k)
    keep = columns[None, :] < insert_at[:, None]
    at = columns[None, :] == insert_at[:, None]
    shifted_sims = np.empty_like(beaten_sims)
    shifted_idx = np.empty_like(beaten_idx)
    shifted_sims[:, 0] = 0.0
    shifted_idx[:, 0] = 0
    shifted_sims[:, 1:] = beaten_sims[:, :-1]
    shifted_idx[:, 1:] = beaten_idx[:, :-1]
    patched = np.where(keep, beaten_sims, np.where(at, values[:, None], shifted_sims))
    patched_idx = np.where(keep, beaten_idx, np.where(at, newest_global, shifted_idx))
    sims[rows] = patched
    indices[rows] = patched_idx
    worst[rows] = patched[:, -1]
    thresholds[rows] = np.partition(patched_idx, rank, axis=1)[:, rank]
