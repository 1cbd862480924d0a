"""Pluggable kernel backends for the streaming k-NN hot paths (ROADMAP item 1).

The per-point work of the streaming segmenter decomposes into a small fixed
kernel API — incremental dot-product extension/shrink (Eqns. 3/5),
similarity-profile computation, top-k selection with threshold maintenance,
sorted-insert into older rows, and the fused split-score evaluation.  This
package hides *how* those kernels execute behind a registry so the engine
code stays backend-agnostic:

* ``"numpy"`` — the vectorised reference implementation (always available).
* ``"numba"`` — the same kernels njit-compiled from their loop form;
  requires the optional ``numba`` dependency (``pip install .[numba]``).
* ``"loops"`` — the numba source run as plain Python; orders of magnitude
  slower, exists so the compiled path's exact arithmetic stays testable on
  machines without numba.
* ``"auto"`` — ``"numba"`` when importable, else silently ``"numpy"``
  (the default everywhere).

All backends are bit-identical on every kernel: they share inputs (the
reductions feeding the kernels stay in common numpy code) and perform only
element-wise arithmetic, comparison and selection in a pinned evaluation
order.  Requesting ``"numba"`` explicitly when numba is missing falls back
to ``"numpy"`` with a one-time :class:`RuntimeWarning` instead of failing,
so configs written on a numba-equipped machine stay runnable anywhere.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from repro.core.kernels import _loops, numpy_backend
from repro.core.scoring import fused_split_scores as _numpy_fused_split_scores
from repro.core.similarity import SIMILARITY_MEASURES, get_similarity_from_stats
from repro.utils.exceptions import ConfigurationError

#: Names accepted by :func:`get_backend` (and by every ``kernel_backend``
#: config field / constructor argument that feeds it).
KERNEL_BACKENDS = ("auto", "numpy", "numba", "loops")

#: String-to-code maps for the loop-form kernels, which cannot dispatch on
#: strings in nopython mode.
MEASURE_CODES = {
    "pearson": _loops.PEARSON,
    "euclidean": _loops.EUCLIDEAN,
    "cid": _loops.CID,
}
SCORE_CODES = {"macro_f1": _loops.MACRO_F1, "accuracy": _loops.ACCURACY}

_EMPTY_COMPLEXITIES = np.empty(0, dtype=np.float64)


class KernelBackend:
    """Fixed kernel API every backend implements.

    ``name`` is the concrete backend name (``"numpy"``, ``"numba"`` or
    ``"loops"`` — never ``"auto"``) and ``compiled`` tells whether the
    kernels are JIT-compiled.  Kernels operating on the k-NN tables mutate
    the passed views in place; ``similarity_kernel`` resolves the measure
    string once and returns the specialised profile function, so the
    per-point path never re-dispatches on strings.  That function takes the
    arguments of :func:`repro.core.similarity.get_similarity_from_stats`'s
    rows: ``(dots, w_means, w_stds, query_mean, query_std, w, comps,
    query_comp, floored=False)``, the statistics scaled by the width.
    ``insert_newest`` returns the rows it patched, ascending, as an int64
    array: the k-NN logs them as rows whose threshold it wrote.
    """

    name: str = "abstract"
    compiled: bool = False

    def extend_shrink(self, partial, extend_values, newest, shrink_values, oldest, q_out):
        raise NotImplementedError

    def similarity_kernel(self, measure: str) -> Callable[..., np.ndarray]:
        raise NotImplementedError

    def topk_newest(self, similarities, low, take, first_global, idx_out, sim_out):
        raise NotImplementedError

    def rank_smallest(self, values, rank):
        raise NotImplementedError

    def insert_newest(self, indices, sims, worst, thresholds, candidate_sims, newest_global, rank):
        raise NotImplementedError

    def fused_split_scores(self, pred_zero_from, splits, n_subsequences, score="macro_f1"):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} compiled={self.compiled}>"

    def __reduce__(self):
        # backends are process-wide singletons fully determined by their
        # name (kernel tables, JIT dispatchers and module handles don't
        # pickle) — ship the name and re-resolve on the receiving side
        return (get_backend, (self.name,))


class NumpyKernels(KernelBackend):
    """Reference backend: delegates to the vectorised numpy implementations."""

    name = "numpy"
    compiled = False

    extend_shrink = staticmethod(numpy_backend.extend_shrink)
    topk_newest = staticmethod(numpy_backend.topk_newest)
    rank_smallest = staticmethod(numpy_backend.rank_smallest)
    insert_newest = staticmethod(numpy_backend.insert_newest)

    def similarity_kernel(self, measure: str) -> Callable[..., np.ndarray]:
        return get_similarity_from_stats(measure)

    def fused_split_scores(self, pred_zero_from, splits, n_subsequences, score="macro_f1"):
        return _numpy_fused_split_scores(pred_zero_from, splits, n_subsequences, score)


class LoopKernels(KernelBackend):
    """Backend over a namespace of loop-form kernels (plain or njit-compiled).

    Wraps either :mod:`repro.core.kernels._loops` (the ``"loops"`` backend)
    or :mod:`repro.core.kernels.numba_backend` (the ``"numba"`` backend,
    same functions after ``njit``) and translates the string-keyed public
    API into the integer codes the loop kernels dispatch on.
    """

    def __init__(self, impl, name: str, compiled: bool) -> None:
        self._impl = impl
        self.name = name
        self.compiled = compiled

    def extend_shrink(self, partial, extend_values, newest, shrink_values, oldest, q_out):
        return self._impl.extend_shrink(
            partial, extend_values, newest, shrink_values, oldest, q_out
        )

    def similarity_kernel(self, measure: str) -> Callable[..., np.ndarray]:
        if measure not in MEASURE_CODES:
            # reuse the canonical error message (single copy, in similarity)
            get_similarity_from_stats(measure)
        code = MEASURE_CODES[measure]
        impl = self._impl.similarity_profile

        # the loop tests each denominator itself: there is no scan to skip
        def profile(
            dots, w_means, w_stds, query_mean, query_std, w, comps, query_comp, floored=False
        ):
            if comps is None:
                if code == _loops.CID:
                    raise ConfigurationError("CID similarity requires subsequence complexities")
                comps, query_comp = _EMPTY_COMPLEXITIES, 0.0
            return impl(code, dots, w_means, w_stds, query_mean, query_std, w, comps, query_comp)

        profile.__name__ = f"{measure}_profile_{self.name}"
        return profile

    def topk_newest(self, similarities, low, take, first_global, idx_out, sim_out):
        self._impl.topk_newest(similarities, low, take, first_global, idx_out, sim_out)

    def rank_smallest(self, values, rank):
        return self._impl.rank_smallest(values, rank)

    def insert_newest(self, indices, sims, worst, thresholds, candidate_sims, newest_global, rank):
        return self._impl.insert_newest(
            indices, sims, worst, thresholds, candidate_sims, newest_global, rank
        )

    def fused_split_scores(self, pred_zero_from, splits, n_subsequences, score="macro_f1"):
        if score not in SCORE_CODES:
            # single source of truth for the error: the numpy kernel's gate
            return _numpy_fused_split_scores(pred_zero_from, splits, n_subsequences, score)
        return self._impl.fused_split_scores(
            SCORE_CODES[score],
            np.ascontiguousarray(pred_zero_from, dtype=np.int64),
            np.ascontiguousarray(splits, dtype=np.int64),
            int(n_subsequences),
        )


#: Concrete backend instances, created once and shared (backends are
#: stateless; all mutable state lives in the caller's arrays).
_INSTANCES: dict[str, KernelBackend] = {}
_NUMBA_MODULE = None
_NUMBA_CHECKED = False
_NUMBA_WARNED = False


def _numba_module():
    """Import the numba backend once; cache the failure as well as the success."""
    global _NUMBA_MODULE, _NUMBA_CHECKED
    if not _NUMBA_CHECKED:
        _NUMBA_CHECKED = True
        try:
            from repro.core.kernels import numba_backend
        except ImportError:
            _NUMBA_MODULE = None
        else:
            _NUMBA_MODULE = numba_backend
    return _NUMBA_MODULE


def available_backends() -> tuple[str, ...]:
    """Concrete backend names importable in this environment."""
    names = ["numpy", "loops"]
    if _numba_module() is not None:
        names.insert(1, "numba")
    return tuple(names)


def get_backend(name: str = "auto") -> KernelBackend:
    """Resolve a backend name to a shared :class:`KernelBackend` instance.

    ``"auto"`` picks numba when importable and the numpy reference
    otherwise (silently — auto means "best available").  An explicit
    ``"numba"`` request on a machine without numba warns once per process
    and returns the numpy backend, keeping configs portable.
    """
    global _NUMBA_WARNED
    if name not in KERNEL_BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected one of {KERNEL_BACKENDS}"
        )
    if name in ("auto", "numba"):
        module = _numba_module()
        if module is not None:
            if "numba" not in _INSTANCES:
                _INSTANCES["numba"] = LoopKernels(module, name="numba", compiled=True)
            return _INSTANCES["numba"]
        if name == "numba" and not _NUMBA_WARNED:
            _NUMBA_WARNED = True
            warnings.warn(
                "kernel backend 'numba' requested but numba is not installed; "
                "falling back to the numpy reference backend "
                "(install with: pip install .[numba])",
                RuntimeWarning,
                stacklevel=2,
            )
        name = "numpy"
    if name == "loops":
        if "loops" not in _INSTANCES:
            _INSTANCES["loops"] = LoopKernels(_loops, name="loops", compiled=False)
        return _INSTANCES["loops"]
    if "numpy" not in _INSTANCES:
        _INSTANCES["numpy"] = NumpyKernels()
    return _INSTANCES["numpy"]


__all__ = [
    "KERNEL_BACKENDS",
    "MEASURE_CODES",
    "SCORE_CODES",
    "SIMILARITY_MEASURES",
    "KernelBackend",
    "NumpyKernels",
    "LoopKernels",
    "available_backends",
    "get_backend",
]
