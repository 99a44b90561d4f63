"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause
while still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class KautzError(ReproError):
    """Base class for Kautz-graph related errors."""


class InvalidKautzString(KautzError):
    """A label is not a valid Kautz string for the given alphabet."""


class RoutingError(ReproError):
    """Routing failed (no successor, unreachable destination, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class NetworkError(ReproError):
    """Wireless network substrate error (unknown node, dead node, ...)."""


class EmbeddingError(ReproError):
    """The Kautz embedding protocol could not complete."""


class DHTError(ReproError):
    """CAN / hash-ring error."""


class ConfigError(ReproError):
    """An experiment or system configuration is inconsistent."""


class TelemetryError(ReproError):
    """The telemetry registry/recorder was used incorrectly."""


class CampaignError(ReproError):
    """The campaign supervisor hit unrecoverable state (corrupt
    journal, malformed payload) or a figure's jobs were quarantined."""
