"""Unit tests for CAN zone takeover and key re-homing."""

import random

from repro.recovery import CanHealer
from repro.wsan.deployment import plan_deployment


def build_plan(seed=4):
    return plan_deployment(40, 400.0, random.Random(seed))


class TestCanHealer:
    def test_initial_overlay_homes_every_cid(self):
        healer = CanHealer(build_plan())
        plan = build_plan()
        assert len(healer.overlay) == plan.actuator_count
        for spec in plan.cells:
            assert healer._homes.get(spec.cid) in range(plan.actuator_count)

    def test_condemn_hands_zones_to_heir(self):
        plan = build_plan()
        healer = CanHealer(plan)
        victim = healer._homes.get(plan.cells[0].cid)
        healer.condemn(victim)
        assert victim in healer.suspected
        assert victim not in healer.overlay
        assert healer.stats.takeovers == 1
        # Every CID key re-homed off the condemned actuator.
        for spec in plan.cells:
            assert healer._homes.get(spec.cid) != victim

    def test_absolve_rejoins_and_rehomes(self):
        plan = build_plan()
        healer = CanHealer(plan)
        victim = healer._homes.get(plan.cells[0].cid)
        healer.condemn(victim)
        healer.absolve(victim)
        assert victim not in healer.suspected
        assert victim in healer.overlay
        assert healer.stats.rejoins == 1

    def test_condemn_is_idempotent(self):
        healer = CanHealer(build_plan())
        healer.condemn(0)
        healer.condemn(0)
        assert healer.stats.takeovers == 1

    def test_condemning_everyone_keeps_last_homes(self):
        plan = build_plan()
        healer = CanHealer(plan)
        for a in range(plan.actuator_count):
            healer.condemn(a)
        # The overlay refuses to empty itself (last member keeps its
        # zones) and keys always resolve to *some* actuator.
        assert len(healer.overlay) == 1
        for spec in plan.cells:
            assert healer._homes.get(spec.cid) is not None

    def test_unknown_actuator_ignored(self):
        healer = CanHealer(build_plan())
        healer.condemn(999)
        healer.absolve(999)
        assert healer.stats.takeovers == 0
        assert not healer.suspected

    def test_next_hop_routes_toward_key(self):
        plan = build_plan()
        healer = CanHealer(plan)
        for spec in plan.cells:
            owner = healer._homes.get(spec.cid)
            for actuator in range(plan.actuator_count):
                nxt = healer.next_hop(actuator, spec.cid)
                if actuator == owner:
                    assert nxt is None       # already home
                elif nxt is not None:
                    assert nxt != actuator
                    assert nxt in healer.overlay

    def test_next_hop_none_for_condemned_source(self):
        plan = build_plan()
        healer = CanHealer(plan)
        healer.condemn(0)
        assert healer.next_hop(0, plan.cells[0].cid) is None

    def test_rehome_counter_tracks_changes(self):
        plan = build_plan()
        healer = CanHealer(plan)
        victim = healer._homes.get(plan.cells[0].cid)
        before = healer.stats.rehomed_keys
        healer.condemn(victim)
        assert healer.stats.rehomed_keys > before
