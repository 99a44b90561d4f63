"""Configuration for the self-healing recovery subsystem.

:class:`RecoveryConfig` is the frozen, hashable knob set that
:class:`~repro.experiments.config.ScenarioConfig` carries in its
``recovery`` field.  It covers the three recovery layers:

* the message-grounded failure detector (heartbeat period, adaptive
  or fixed timeout, suspicion threshold),
* the per-hop ARQ layer (on/off and ACK loss; budget, backoff and
  duplicate cache are constants of :mod:`repro.recovery.arq`), and
* the CAN self-healing switch.

All three layers default to *on* when a ``RecoveryConfig`` is present;
the default ``ScenarioConfig`` carries ``recovery=None``, which keeps
every pre-existing experiment byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["RecoveryConfig"]


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables of the recovery subsystem (all layers).

    ``adaptive_timeout=False`` selects the fixed-timeout strawman used
    by the detector-fidelity tests: every probe is judged against
    ``fixed_timeout`` instead of the per-target EWMA estimate.
    """

    # -- failure detector -------------------------------------------------
    #: Enable the heartbeat failure detector (and the maintenance wiring).
    detector: bool = True
    #: Seconds between heartbeat rounds.
    detector_period: float = 1.0
    #: Consecutive probe misses before a target is condemned.
    suspicion_threshold: int = 3
    #: When False, every probe uses ``fixed_timeout`` (the strawman).
    adaptive_timeout: bool = True
    #: Fixed probe timeout; also the adaptive initial value before the
    #: first RTT sample.
    fixed_timeout: float = 0.25
    #: Heartbeat frame size (probe and reply).
    probe_bytes: int = 32

    # -- per-hop ARQ ------------------------------------------------------
    #: Enable the ARQ layer between the router and the MAC.
    arq: bool = True
    #: Probability an ACK frame is lost (exercises the duplicate path).
    ack_loss: float = 0.01

    # -- CAN self-healing -------------------------------------------------
    #: Hand a condemned actuator's CAN zones to its heir and route
    #: around suspected actuators.
    heal_can: bool = True

    def __post_init__(self) -> None:
        if self.detector_period <= 0:
            raise ConfigError("detector_period must be positive")
        if self.suspicion_threshold < 1:
            raise ConfigError("suspicion_threshold must be >= 1")
        if self.fixed_timeout <= 0:
            raise ConfigError("fixed_timeout must be positive")
        if self.probe_bytes <= 0:
            raise ConfigError("probe_bytes must be positive")
        if not 0.0 <= self.ack_loss < 1.0:
            raise ConfigError("ack_loss must be in [0, 1)")

    @property
    def any_enabled(self) -> bool:
        """Whether any recovery layer is switched on."""
        return self.detector or self.arq or self.heal_can
