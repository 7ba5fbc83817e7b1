"""Exception types shared across the engine."""


class EngramError(Exception):
    """Base class for all engine errors."""


class ZeroVector(EngramError):
    pass


class DimensionMismatch(EngramError):
    pass


class ProviderUnavailable(EngramError):
    pass


class EmbeddingFailure(EngramError):
    pass


class DuplicateId(EngramError):
    pass


class NegativeElapsed(EngramError):
    pass


class EmptyBatch(EngramError):
    pass


class AlreadyTombstone(EngramError):
    pass


class LabilityExpired(EngramError):
    pass


class InsufficientSamples(EngramError):
    pass


class DegenerateLabels(EngramError):
    pass


class SnapshotFormatError(EngramError):
    pass


class IllegalTransition(EngramError):
    """A record move against the one-way lifecycle lattice."""
