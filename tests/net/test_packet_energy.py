"""Tests for packets and the energy ledger."""

import pytest

from repro.errors import TelemetryError
from repro.net.energy import EnergyLedger, EnergyModel, Phase
from repro.net.packet import Packet, PacketKind
from repro.telemetry.registry import Registry


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

    def test_deadline(self):
        p = make_packet(created_at=0.0, deadline=0.6)
        assert p.within_deadline(0.5)
        assert not p.within_deadline(0.7)

    def test_no_deadline_always_ok(self):
        assert make_packet().within_deadline(1e9)

    def test_hops(self):
        p = make_packet()
        p.record_hop(1)
        p.record_hop(5)
        assert p.hops == [1, 5]
        assert p.hop_count == 2

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
        model = EnergyModel()
        assert model.tx_joules == 2.0
        assert model.rx_joules == 0.75

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_joules=-1)


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
        ledger = EnergyLedger()
        ledger.charge_tx(1)
        ledger.set_phase(Phase.COMMUNICATION)
        ledger.charge_rx(1)
        assert ledger.node_total(1) == 2.75
        assert ledger.node_total(99) == 0.0

    def test_packet_counters(self):
        ledger = EnergyLedger()
        ledger.charge_tx(1, packets=3)
        ledger.charge_rx(2, packets=2)
        assert ledger.tx_packets == 3
        assert ledger.rx_packets == 2

    def test_construction_fraction(self):
        ledger = EnergyLedger()
        assert ledger.construction_fraction() == 0.0
        ledger.charge_tx(1)                      # 2 J construction
        ledger.set_phase(Phase.COMMUNICATION)
        ledger.charge_tx(1)                      # 2 J communication
        assert ledger.construction_fraction() == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "model", [EnergyModel(), EnergyModel(tx_joules=0.0, rx_joules=0.0)]
    )
    def test_rejected_charge_mutates_nothing(self, model):
        # A bad charge must not register children on its way to the
        # error: exports would grow zero-valued samples.
        registry = Registry()
        ledger = EnergyLedger(model, registry=registry)
        ledger.charge_rx(7, kind="probe")
        before = registry.as_dict()
        ledger.set_phase(Phase.COMMUNICATION)
        for charge in (ledger.charge_tx, ledger.charge_rx):
            with pytest.raises(TelemetryError):
                charge(1, packets=-1, kind="flood")
        assert registry.as_dict() == before
        assert (ledger.tx_packets, ledger.rx_packets) == (0, 1)

    def test_custom_model(self):
        ledger = EnergyLedger(EnergyModel(tx_joules=1.0, rx_joules=0.5))
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
