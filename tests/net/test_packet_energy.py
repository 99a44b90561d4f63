"""Tests for packets and the energy ledger."""

import pytest

from repro.errors import TelemetryError
from repro.net import energy
from repro.net.energy import EnergyLedger, Phase
from repro.net.packet import Packet, PacketKind
from repro.telemetry.registry import Registry
from tests.net.test_network import counted


def make_packet(**kwargs):
    defaults = dict(
        kind=PacketKind.DATA,
        size_bytes=1000,
        source=1,
        destination=2,
        created_at=0.0,
    )
    defaults.update(kwargs)
    return Packet(**defaults)


class TestPacket:
    def test_uids_unique(self):
        assert make_packet().uid != make_packet().uid

    def test_latency(self):
        p = make_packet(created_at=1.0)
        assert p.latency(3.5) == 2.5

    def test_hops(self):
        p = make_packet()
        p.record_hop(1)
        p.record_hop(5)
        assert p.hops == [1, 5]

    def test_clone_keeps_created_at(self):
        p = make_packet(created_at=1.0, deadline=0.6)
        p.record_hop(1)
        clone = p.clone_for_retransmit(now=5.0)
        assert clone.created_at == 1.0
        assert clone.deadline == 0.6
        assert clone.hops == []
        assert clone.uid != p.uid

    def test_clone_copies_meta(self):
        p = make_packet()
        p.meta["x"] = 1
        clone = p.clone_for_retransmit(0.0)
        clone.meta["x"] = 2
        assert p.meta["x"] == 1


class TestEnergyModel:
    def test_paper_defaults(self):
        assert energy.TX_JOULES == 2.0
        assert energy.RX_JOULES == 0.75


class TestEnergyLedger:
    def test_phase_split(self):
        ledger = EnergyLedger()
        ledger.charge_tx(1)          # construction by default
        ledger.set_phase(Phase.COMMUNICATION)
        ledger.charge_tx(1)
        ledger.charge_rx(2)
        assert ledger.total(Phase.CONSTRUCTION) == 2.0
        assert ledger.total(Phase.COMMUNICATION) == 2.75
        assert ledger.grand_total() == 4.75

    def test_node_totals(self):
        registry = Registry()
        ledger = EnergyLedger(registry=registry)
        ledger.charge_tx(1)
        ledger.set_phase(Phase.COMMUNICATION)
        ledger.charge_rx(1)
        assert registry.as_dict()["energy_node_joules"] == {
            (1, "construction"): 2.0,
            (1, "communication"): 0.75,
        }

    def test_packet_counters(self):
        registry = Registry()
        ledger = EnergyLedger(registry=registry)
        ledger.charge_tx(1, packets=3)
        ledger.charge_rx(2, packets=2)
        assert counted(registry, "energy_tx_packets") == 3
        assert counted(registry, "energy_rx_packets") == 2

    @pytest.mark.parametrize("model", [(2.0, 0.75), (0.0, 0.0)])
    def test_rejected_charge_mutates_nothing(self, model, monkeypatch):
        # A bad charge must not register children on its way to the
        # error: exports would grow zero-valued samples.
        monkeypatch.setattr(energy, "TX_JOULES", model[0])
        monkeypatch.setattr(energy, "RX_JOULES", model[1])
        registry = Registry()
        ledger = EnergyLedger(registry=registry)
        ledger.charge_rx(7, kind="probe")
        before = registry.as_dict()
        ledger.set_phase(Phase.COMMUNICATION)
        for charge in (ledger.charge_tx, ledger.charge_rx):
            with pytest.raises(TelemetryError):
                charge(1, packets=-1, kind="flood")
        assert registry.as_dict() == before
        assert counted(registry, "energy_tx_packets") == 0
        assert counted(registry, "energy_rx_packets") == 1

    def test_custom_model(self, monkeypatch):
        # The ledger reads the module constants at each charge.
        monkeypatch.setattr(energy, "TX_JOULES", 1.0)
        monkeypatch.setattr(energy, "RX_JOULES", 0.5)
        ledger = EnergyLedger()
        assert ledger.charge_tx(1) == 1.0
        assert ledger.charge_rx(1) == 0.5

    def test_by_kind_accounting(self):
        ledger = EnergyLedger()
        ledger.charge_tx(1, kind="data")
        ledger.charge_tx(1, kind="probe")
        ledger.charge_rx(2, kind="probe")
        assert ledger.total_by_kind("data") == 2.0
        assert ledger.total_by_kind("probe") == 2.75
        assert ledger.total_by_kind("never") == 0.0
        assert set(ledger.kinds()) == {"data", "probe"}

    def test_kind_totals_sum_to_grand_total(self):
        ledger = EnergyLedger()
        ledger.charge_tx(1, kind="data")
        ledger.set_phase(Phase.COMMUNICATION)
        ledger.charge_rx(2, kind="flood")
        ledger.charge_tx(3, kind="control")
        assert sum(ledger.kinds().values()) == pytest.approx(
            ledger.grand_total()
        )
