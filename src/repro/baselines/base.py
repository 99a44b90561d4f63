"""The repair substrate the three flooding baselines share.

DaTree, D-DEAR and Kautz-overlay probe their routes in periodic
keep-alive rounds and repair them by flooding; DaTree and D-DEAR also
resend a packet lost to a broken route once a timeout has passed — the
"certain delay" the paper charges them for, and what REFER's local
detours avoid (Section III-C2).  Each of those decisions lives here
once: the keep-alive process, the source retransmission, the in-place
retry of a loss on an intact route, and the route test.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Optional, Sequence

from repro.net.network import WirelessNetwork
from repro.net.packet import Packet
from repro.sim.process import PeriodicProcess
from repro.wsan.deployment import DeploymentPlan
from repro.wsan.system import DroppedCallback, WsanSystem

#: Source retransmissions allowed per packet.
MAX_RETRANSMISSIONS = 2
#: Seconds between keep-alive rounds.
HELLO_PERIOD = 5.0
#: Seconds a sender waits for a repair before it retransmits.
RETRANSMIT_TIMEOUT = 0.5


class FloodingSystem(WsanSystem):
    """A baseline that repairs by flooding and source retransmission."""

    def __init__(
        self,
        network: WirelessNetwork,
        plan: DeploymentPlan,
        rng: random.Random,
    ) -> None:
        super().__init__(network, plan, rng)
        self.repairs = 0
        self.retransmissions = 0
        self._maintenance: Optional[PeriodicProcess] = None

    def start(self) -> None:
        """Run :meth:`_maintenance_round` every :data:`HELLO_PERIOD`."""
        if self._maintenance is None:
            self._maintenance = PeriodicProcess(
                self.network.sim,
                period=HELLO_PERIOD,
                action=self._maintenance_round,
                jitter=HELLO_PERIOD / 10.0,
                rng=self.rng,
            )
        self._maintenance.start()

    def stop(self) -> None:
        """Stop the rounds and drop their process: it holds
        :meth:`_maintenance_round`, so keeping it would be a cycle."""
        if self._maintenance is not None:
            self._maintenance.stop()
            self._maintenance = None

    @abc.abstractmethod
    def _maintenance_round(self) -> None:
        """One keep-alive round over the routes this system maintains."""

    def _path_intact(self, path: Sequence[int], now: float) -> bool:
        """Every hop of ``path`` can carry a frame at ``now``."""
        can_transmit = self.network.medium.can_transmit
        return all(can_transmit(a, b, now) for a, b in zip(path, path[1:]))

    @staticmethod
    def _retry_congested(packet: Packet) -> bool:
        """Count one in-place resend of a packet lost on an intact route;
        False once it has had two (the count rides in ``meta``, so a
        retransmitted copy inherits it)."""
        retries = packet.meta.get("congestion_retries", 0)
        if retries >= 2:
            return False
        packet.meta["congestion_retries"] = retries + 1
        return True

    def _retransmit(
        self,
        packet: Packet,
        retransmissions_left: int,
        on_dropped: Optional[DroppedCallback],
        resend: Callable[[Packet, int], None],
        cause: Optional[str],
        delay: float = RETRANSMIT_TIMEOUT,
    ) -> None:
        """Resend a copy of ``packet`` after ``delay`` as
        ``resend(copy, retransmissions_left - 1)``, or drop it as
        ``retries-exhausted`` when no retransmission is left (``cause``,
        the hop failure that led here, goes to :meth:`_drop`).

        The copy has a uid of its own, so its hop trail and its flight
        journey are its own too; the flight recorder ends the original's
        journey naming the copy and starts the copy's naming the
        original.
        """
        if retransmissions_left <= 0:
            self._drop(packet, on_dropped, "retries-exhausted", cause)
            return

        def fire() -> None:
            self.retransmissions += 1
            now = self.network.sim.now
            copy = packet.clone_for_retransmit(now)
            flight = self.network.flight
            if flight is not None:
                flight.retransmitted(packet.uid, copy.uid, now)
            resend(copy, retransmissions_left - 1)

        self.network.sim.schedule(delay, fire)
