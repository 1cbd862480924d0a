"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so downstream
users can catch a single base class.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """Raised when an input array or scalar fails validation."""


class ConfigurationError(ReproError, ValueError):
    """Raised when mutually incompatible or out-of-range parameters are given."""


class NotEnoughDataError(ReproError, RuntimeError):
    """Raised when an operation is requested before enough data has been observed."""


class CorruptCheckpointError(ReproError, RuntimeError):
    """Raised when a durable checkpoint or spool record fails its integrity check."""


class StorageError(ReproError, RuntimeError):
    """Raised by the :mod:`repro.storage` tier: unknown streams, bad manifests,
    attempts to re-segment a stream that has no recorded run."""


class CorruptRecordError(StorageError):
    """Raised when a stored chunk segment or event-log record fails its
    CRC/length integrity check (torn write or on-disk corruption)."""


class HistoryTruncatedError(StorageError, LookupError):
    """Raised when an event-history cursor predates the retained window.

    Carries ``earliest``, the oldest cursor that can still be served.
    """

    def __init__(self, message: str, earliest: int = 0) -> None:
        super().__init__(message)
        self.earliest = int(earliest)


class ScorerProcessError(ReproError, RuntimeError):
    """Raised when the process that scores a pipelined ClaSS stream is lost.

    A scorer found dead between calls leaves the detector at its last
    drained state, scoring in-process from then on; one that dies during a
    call fails the detector closed until ``load_state``.
    """
