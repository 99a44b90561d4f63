"""DHT substrates: a CAN overlay (Ratnasamy et al.) used by REFER's
upper tier."""

from repro.dht.can import CanOverlay, Zone

__all__ = ["CanOverlay", "Zone"]
