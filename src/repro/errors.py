"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause
while still distinguishing the subsystem that failed.
:func:`require_int_fields` is the type check the configuration
dataclasses share.
"""

from __future__ import annotations

import dataclasses


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


def require_int_fields(config: object) -> None:
    """Refuse a value that is not an ``int``, or is a ``bool``, in any
    ``int``-annotated field of the dataclass ``config``: a float count
    or size would otherwise fail mid-run, far from the field."""
    for spec in dataclasses.fields(config):
        if spec.type in ("int", int):
            value = getattr(config, spec.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(
                    f"{type(config).__name__}.{spec.name} must be an int, "
                    f"got {value!r}"
                )


class TelemetryError(ReproError):
    """The telemetry registry/recorder was used incorrectly."""


class CampaignError(ReproError):
    """A campaign cannot go on: its journal is damaged, or a job
    raised, returned a payload that does not decode or lost its
    worker (the message names the job)."""
