"""The switch of the self-healing recovery subsystem.

:class:`RecoveryConfig` is what
:class:`~repro.experiments.config.ScenarioConfig` carries in its
``recovery`` field.  It has no fields: a present ``RecoveryConfig``
turns the whole stack on — the message-grounded failure detector, the
per-hop ARQ layer and CAN self-healing — and ``recovery=None`` (the
default) keeps every pre-existing experiment byte-identical.  The
stack's tunables are constants of the modules that read them
(:mod:`repro.recovery.detector`, :mod:`repro.recovery.arq`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecoveryConfig"]


@dataclass(frozen=True)
class RecoveryConfig:
    """Switch for the recovery stack: detector, ARQ and CAN healer."""
