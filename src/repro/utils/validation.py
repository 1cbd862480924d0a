"""Input validation helpers used across the library.

The helpers normalise inputs to numpy arrays, raise
:class:`~repro.utils.exceptions.ValidationError` with actionable messages and
keep the validation logic in a single place so every public entry point
behaves consistently.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.utils.exceptions import ValidationError


def check_array_1d(
    values: Iterable[float] | np.ndarray,
    name: str = "values",
    min_length: int = 1,
    allow_constant: bool = True,
    dtype: type = np.float64,
) -> np.ndarray:
    """Validate and convert ``values`` to a 1-dimensional float array.

    Parameters
    ----------
    values:
        Any iterable of numbers (list, tuple, numpy array, generator).
    name:
        Name used in error messages.
    min_length:
        Minimum number of elements required.
    allow_constant:
        If False, reject arrays where every value is identical.
    dtype:
        Target dtype of the returned array.

    Returns
    -------
    numpy.ndarray
        A contiguous 1-d array of ``dtype``.

    Raises
    ------
    ValidationError
        If the input is not 1-dimensional, too short, contains non-finite
        values, or is constant while ``allow_constant`` is False.
    """
    array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=dtype)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {array.shape}")
    if array.shape[0] < min_length:
        raise ValidationError(
            f"{name} must contain at least {min_length} values, got {array.shape[0]}"
        )
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} must not contain NaN or infinite values")
    if not allow_constant and array.shape[0] > 1 and np.allclose(array, array[0]):
        raise ValidationError(f"{name} must not be constant")
    return np.ascontiguousarray(array)


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_probability(value: float, name: str, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in the unit interval."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a float in [0, 1]") from exc
    low_ok = value >= 0.0 if inclusive else value > 0.0
    high_ok = value <= 1.0 if inclusive else value < 1.0
    if not (low_ok and high_ok and np.isfinite(value)):
        raise ValidationError(f"{name} must lie in the unit interval, got {value}")
    return value


def check_window_size(
    window_size: int, n_timepoints: int | None = None, name: str = "window_size"
) -> int:
    """Validate a sliding window / subsequence width parameter.

    Parameters
    ----------
    window_size:
        Requested width.
    n_timepoints:
        Optional length of the series the window is applied to.  When given,
        the window must fit inside the series.
    """
    window_size = check_positive_int(window_size, name, minimum=2)
    if n_timepoints is not None and window_size > n_timepoints:
        raise ValidationError(
            f"{name}={window_size} does not fit into a series of length {n_timepoints}"
        )
    return window_size


def check_change_points(
    change_points: Iterable[int] | np.ndarray,
    n_timepoints: int,
    name: str = "change_points",
) -> np.ndarray:
    """Validate an array of change-point offsets against a series length.

    Change points must be strictly increasing integers in ``(0, n_timepoints)``.
    The conventional first change point at offset 0 and the series end are not
    part of the array (they are implicit, following the paper's Definition 4).
    """
    array = np.asarray(list(change_points), dtype=np.int64)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional")
    if array.size == 0:
        return array
    if (array <= 0).any() or (array >= n_timepoints).any():
        raise ValidationError(
            f"{name} must lie strictly inside (0, {n_timepoints}), got {array.tolist()}"
        )
    if (np.diff(array) <= 0).any():
        raise ValidationError(f"{name} must be strictly increasing, got {array.tolist()}")
    return array
