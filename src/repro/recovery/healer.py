"""CAN self-healing: actuator zone takeover and key re-homing.

The seed's inter-cell tier never removes a crashed actuator from its
CAN bookkeeping: greedy forwarding keeps aiming at a dead zone owner
until radio-level failures burn the message.  :class:`CanHealer`
maintains an *actuator-keyed* CAN over the unit square (each actuator
joins at its normalised deployment position) plus the home actuator of
every cell's CID key, and reacts to detector verdicts:

* ``condemn(actuator)`` — the actuator leaves the overlay, its zones
  are handed to the smallest adjacent neighbour (the classic
  ``_best_heir`` takeover path inside :meth:`CanOverlay.leave`), every
  CID key homed on it re-homes to the heir, and the actuator enters
  the *suspected* set the router routes around;
* ``absolve(actuator)`` — on recovery the actuator rejoins through the
  normal ``join`` split and keys re-home again.

The healer holds no node objects and performs no liveness reads: its
only inputs are verdict calls from the orchestrator.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.dht.can import CanOverlay, PointT
from repro.errors import DHTError
from repro.telemetry.registry import Registry
from repro.telemetry.views import StatsView, counter_field
from repro.wsan.deployment import DeploymentPlan

__all__ = ["CanHealer", "HealerStats"]

_EPS = 1e-9


class HealerStats(StatsView):
    """Counters of CAN repair activity (``healer_*`` registry metrics)."""

    _group = "healer"

    takeovers = counter_field("condemned actuators whose zones moved")
    rejoins = counter_field("absolved actuators re-admitted")
    rehomed_keys = counter_field("CID-key home changes (either direction)")


class CanHealer:
    """Actuator-keyed CAN with verdict-driven takeover and rejoin."""

    def __init__(
        self, plan: DeploymentPlan, registry: Optional[Registry] = None
    ) -> None:
        side = plan.area_side
        self._points: Dict[int, PointT] = {
            index: (
                min(pos.x / side, 1.0 - _EPS),
                min(pos.y / side, 1.0 - _EPS),
            )
            for index, pos in enumerate(plan.actuator_positions)
        }
        self._cid_points: Dict[int, PointT] = {
            spec.cid: spec.can_point(side) for spec in plan.cells
        }
        self.overlay = CanOverlay()
        for actuator in sorted(self._points):
            self.overlay.join(actuator, self._points[actuator])
        self.suspected: Set[int] = set()
        self.stats = HealerStats(registry=registry)
        self._homes: Dict[int, int] = {}
        self._rehome()

    # -- verdict reactions -------------------------------------------------

    def condemn(self, actuator_id: int) -> None:
        """Hand the actuator's zones to its heir; mark it suspected."""
        if actuator_id not in self._points or actuator_id in self.suspected:
            return
        self.suspected.add(actuator_id)
        if actuator_id in self.overlay and len(self.overlay) > 1:
            self.overlay.leave(actuator_id)
            self.stats.takeovers += 1
            self._rehome()

    def absolve(self, actuator_id: int) -> None:
        """Re-admit a recovered actuator via the normal join split."""
        if actuator_id not in self._points:
            return
        self.suspected.discard(actuator_id)
        if actuator_id not in self.overlay:
            self.overlay.join(actuator_id, self._points[actuator_id])
            self.stats.rejoins += 1
            self._rehome()

    # -- lookups the router consults ---------------------------------------

    def next_hop(self, actuator_id: int, cid: int) -> Optional[int]:
        """The next actuator on the CAN route toward ``cid``'s key.

        ``None`` when the route is unavailable (actuator not in the
        overlay, unknown cid, greedy stall) or when ``actuator_id``
        already owns the key (no further tier hop needed).
        """
        point = self._cid_points.get(cid)
        if point is None or actuator_id not in self.overlay:
            return None
        try:
            path = self.overlay.route(actuator_id, point)
        except DHTError:
            # Greedy stall after heavy churn: the caller falls back to
            # its CID-distance rule.  Anything else must propagate.
            return None
        if len(path) < 2:
            return None
        return path[1]

    # -- internals ---------------------------------------------------------

    def _rehome(self) -> None:
        for cid, point in self._cid_points.items():
            try:
                owner = self.overlay.owner_of(point)
            except DHTError:
                # Every actuator condemned: keys keep their last home
                # until someone rejoins.  Anything else must propagate.
                continue
            previous = self._homes.get(cid)
            if previous != owner:
                if previous is not None:
                    self.stats.rehomed_keys += 1
                self._homes[cid] = owner
