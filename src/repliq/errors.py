"""Exception types shared across the toolkit."""


class RepliqError(Exception):
    """Base class for all toolkit-specific errors."""


class InfiniteMeanError(RepliqError):
    """A required expectation does not exist (heavy tail not integrable)."""


class ZeroSupportError(RepliqError):
    """Conditioning on an event of probability zero (no mass beyond the age)."""


class DegenerateTruncationError(RepliqError):
    """A positive threshold produced a zero truncated mean."""


class InvalidPartitionError(RepliqError, ValueError):
    """Server groups do not form a partition of the server set."""


class TooManyServersError(RepliqError):
    """Exhaustive partition search refused: the partition count exceeds the guard."""


class StateExplosionError(RepliqError):
    """Reachable decision-process state count exceeded the configured cap."""


class NonLatticeDeltaError(RepliqError):
    """Cancellation delay is not representable on the service-value lattice."""


class BracketError(RepliqError, ValueError):
    """A root finder's bracket ends give function values of the same sign."""


class NoConvergenceError(RepliqError):
    """Iterative solver did not reach the requested tolerance."""


class MultichainError(RepliqError):
    """The chain induced by the solved policy has more than one recurrent class."""


class PolicyError(RepliqError):
    """A policy returned a decision the engine cannot apply."""


class ConfigError(RepliqError):
    """An experiment configuration could not be parsed or validated."""
