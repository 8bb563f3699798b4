"""Exception hierarchy for the repro library.

Every exception raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish specific failure modes.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class ProtocolError(ReproError):
    """A BLE protocol rule was violated (bad channel index, PDU, CRC...)."""


class CrcError(ProtocolError):
    """A received PDU failed its CRC check."""

    def __init__(self, expected: int, actual: int):
        super().__init__(
            f"CRC mismatch: expected 0x{expected:06X}, got 0x{actual:06X}"
        )
        self.expected = expected
        self.actual = actual


class DemodulationError(ReproError):
    """The receiver could not recover a packet from the IQ stream."""


class CsiExtractionError(ReproError):
    """CSI could not be measured from a captured packet."""


class GeometryError(ReproError):
    """Invalid geometric configuration (degenerate room, antenna layout...)."""


class MeasurementError(ReproError):
    """A measurement campaign produced inconsistent or missing data."""


class LocalizationError(ReproError):
    """The localization pipeline could not produce a position estimate."""


class ContractViolation(ReproError):
    """A runtime shape/dtype contract (:mod:`repro.analysis.contracts`)
    was broken: an array argument's shape, dtype, or cross-parameter
    dimension binding does not match the declared invariant."""


class ConcurrencyViolation(ReproError):
    """The runtime lock-order checker (:mod:`repro.analysis.runtime_locks`)
    saw an acquisition that can deadlock: an order inverted against the
    observed acquisition DAG, two locks of one rank nested, or a
    non-reentrant lock re-acquired by its holder."""
