"""Tests for the greedy shortest protocol and the fault-tolerant router."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.kautz.disjoint import successor_table
from repro.kautz.graph import KautzGraph
from repro.kautz import routing
from repro.kautz.namespace import kautz_distance, shortest_path
from repro.kautz.routing import (
    FaultTolerantRouter,
    RouteResult,
    route_generation_paths,
)
from repro.kautz.strings import KautzString


def K(text, d=2):
    return KautzString.parse(text, d)


class TestGreedy:
    def test_next_hop_reduces_distance(self):
        g = KautzGraph(3, 3)
        for u in g.nodes():
            for v in g.nodes():
                if u == v:
                    continue
                nxt = shortest_path(u, v)[1]
                assert kautz_distance(nxt, v) == kautz_distance(u, v) - 1

    def test_greedy_path_terminates_at_destination(self):
        path = shortest_path(K("010"), K("201"))
        assert path[-1] == K("201")


class TestFaultTolerantRouterNoFailures:
    def test_routes_along_shortest_path(self):
        router = FaultTolerantRouter(is_available=lambda n: True)
        result = router.route(K("0123", 4), K("2301", 4))
        assert result.delivered
        assert result.detours == 0
        assert len(result.path) - 1 == 2

    def test_route_to_self(self):
        router = FaultTolerantRouter(is_available=lambda n: True)
        result = router.route(K("012"), K("012"))
        assert len(result.path) - 1 == 0
        assert result.delivered

    @pytest.mark.parametrize("d,k", [(2, 3), (3, 3)])
    def test_all_pairs_shortest_without_faults(self, d, k):
        g = KautzGraph(d, k)
        router = FaultTolerantRouter(is_available=lambda n: True)
        nodes = list(g.nodes())
        for u in nodes:
            for v in nodes:
                result = router.route(u, v)
                assert len(result.path) - 1 == kautz_distance(u, v)


class TestFaultTolerantRouterWithFailures:
    def test_paper_example_failure_of_1230(self):
        # Figure 2(a): if 1230 fails, 0123 picks 1232 (second shortest).
        failed = {K("1230", 4)}
        router = FaultTolerantRouter(is_available=lambda n: n not in failed)
        result = router.route(K("0123", 4), K("2301", 4))
        assert result.delivered
        assert str(result.path[1]) == "1232"
        assert result.detours >= 1

    def test_second_failure_falls_to_third_path(self):
        failed = {K("1230", 4), K("1232", 4)}
        router = FaultTolerantRouter(is_available=lambda n: n not in failed)
        result = router.route(K("0123", 4), K("2301", 4))
        assert result.delivered
        assert str(result.path[1]) == "1234"

    def test_destination_always_available(self):
        # A "failed" destination must still terminate the route: the
        # router never availability-checks the destination itself.
        dest = K("201")
        router = FaultTolerantRouter(is_available=lambda n: n != dest)
        result = router.route(K("012"), dest)
        assert result.delivered

    @pytest.mark.parametrize("d,k", [(3, 3), (4, 2)])
    def test_survives_up_to_d_minus_1_faults(self, d, k):
        """d-connectivity: any d-1 faulty relays leave a route."""
        g = KautzGraph(d, k)
        rng = random.Random(99)
        nodes = list(g.nodes())
        router_pairs = rng.sample(
            [(a, b) for a in nodes for b in nodes if a != b], 60
        )
        for u, v in router_pairs:
            others = [n for n in nodes if n not in (u, v)]
            failed = set(rng.sample(others, d - 1))
            router = FaultTolerantRouter(
                is_available=lambda n: n not in failed
            )
            result = router.route(u, v)
            assert result.delivered
            assert not any(n in failed for n in result.path)

    def test_route_raises_when_all_successors_dead(self):
        u = K("012")
        dead = set(u.successors())
        router = FaultTolerantRouter(is_available=lambda n: n not in dead)
        with pytest.raises(RoutingError):
            router.route(u, K("201"))

    def test_max_hops_enforced(self, monkeypatch):
        # A 3-digit label gets 4 * 3 + MAX_HOPS_SLACK relays: here, one.
        monkeypatch.setattr(routing, "MAX_HOPS_SLACK", 1 - 4 * 3)
        router = FaultTolerantRouter(is_available=lambda n: True)
        with pytest.raises(RoutingError):
            router.route(K("010"), K("121"))  # distance 3 > 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_fault_patterns_never_loop(self, seed):
        """Whatever fails, the router either delivers or raises — no loops."""
        rng = random.Random(seed)
        g = KautzGraph(3, 3)
        nodes = list(g.nodes())
        u, v = rng.sample(nodes, 2)
        failed = set(
            rng.sample([n for n in nodes if n not in (u, v)], rng.randint(0, 8))
        )
        router = FaultTolerantRouter(is_available=lambda n: n not in failed)
        try:
            result = router.route(u, v)
        except RoutingError:
            return
        assert result.path[0] == u and result.path[-1] == v
        assert len(set(result.path)) == len(result.path)


class TestRouteGenerationBaseline:
    """The DFTR-style baseline used by the ablation bench."""

    def test_finds_d_paths(self):
        paths = route_generation_paths(K("0123", 4), K("2301", 4))
        assert len(paths) == 4

    def test_paths_valid_and_disjoint_interiors(self):
        g = KautzGraph(3, 3)
        u, v = K("012", 3), K("301", 3)
        paths = route_generation_paths(u, v)
        interiors = []
        for path in paths:
            for a, b in zip(path, path[1:]):
                assert b in a.successors()
            interiors.extend(path[1:-1])
        assert len(set(interiors)) == len(interiors)

    def test_trivial_pair(self):
        u = K("012")
        assert route_generation_paths(u, u) == [[u]]

    def test_first_path_is_shortest(self):
        u, v = K("0123", 4), K("2301", 4)
        paths = route_generation_paths(u, v)
        assert len(paths[0]) - 1 == kautz_distance(u, v)
