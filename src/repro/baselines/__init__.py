"""The three comparison systems of the evaluation (Section IV).

* :mod:`repro.baselines.datree` — DaTree [Melodia et al.]: per-actuator
  trees, broadcast-to-root repair, source retransmission.
* :mod:`repro.baselines.ddear` — D-DEAR [Shah et al.]: 2-hop clusters,
  cluster-head paths to actuators, broadcast path repair.
* :mod:`repro.baselines.kautz_overlay` — the application-layer Kautz
  overlay [Zuo et al.]: REFER's routing logic on an overlay that is
  *not* consistent with the physical topology, so every overlay hop is
  a multi-hop physical path maintained by flooding.

All three subclass :class:`repro.baselines.base.FloodingSystem`, the
one home of the repair decisions they share: the keep-alive process,
the source retransmission, the in-place congestion retry and the
route test.
"""

from repro.baselines.datree import DaTreeSystem
from repro.baselines.ddear import DDearSystem
from repro.baselines.kautz_overlay import KautzOverlaySystem

__all__ = ["DaTreeSystem", "DDearSystem", "KautzOverlaySystem"]
