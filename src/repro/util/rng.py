"""Deterministic, per-component random number streams.

Large discrete-event simulations must stay reproducible when one
component changes its consumption of randomness.  A single shared
``random.Random`` couples every component: adding one extra draw in the
mobility model would perturb the workload.  :class:`RngStreams` derives
an independent ``random.Random`` per named component from a master seed,
so each subsystem owns its own stream.

A stream still couples the *entities* that share it: when every sensor
takes its next waypoint from the one mobility stream at the first read
past a leg's end, a node's trajectory depends on the order in which all
nodes are read.  Processes that advance lazily, per entity, take
:class:`KeyedStream` draws instead: the ``k``-th draw of entity ``e`` of
a stream is a hash of ``(master_seed, name, e, k)`` and of nothing else,
so a read can be skipped, repeated or reordered without moving any
other draw.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

from repro.errors import TelemetryError


class _TracedRandom(random.Random):
    """A ``random.Random`` that reports every underlying draw.

    Only :meth:`random` and :meth:`getrandbits` are overridden — every
    public draw method (``sample``, ``uniform``, ``expovariate``, …)
    funnels through these two primitives, and because ``getrandbits``
    stays defined the subclass keeps the base ``_randbelow`` strategy
    (see ``random.Random.__init_subclass__``), so a traced stream
    consumes the generator draw-for-draw identically to an untraced
    one.  The only side effect is one trace record per primitive draw.
    """

    def __init__(self, seed: int, name: str, trace) -> None:
        self._trace_name = name
        self._trace_sink = trace
        super().__init__(seed)

    def random(self) -> float:
        value = super().random()
        self._trace_sink.rng_draw(self._trace_name, "random", value)
        return value

    def getrandbits(self, k: int) -> int:
        value = super().getrandbits(k)
        self._trace_sink.rng_draw(self._trace_name, "getrandbits", value)
        return value


class KeyedStream:
    """Draws addressed by ``(entity, k)``, not by arrival order.

    A keyed view of a sequential stream: it takes one 64-bit draw from
    ``rng`` as its key, when it is built, and nothing from it
    afterwards — :meth:`draw` hashes ``(key, entity, k)``.  There is no
    generator state per entity, so the view costs a few dozen bytes
    however many entities draw from it, and the key draw is traced
    like any other; the keyed draws are functions of it, and *when*
    one is evaluated is by construction not an ordered occurrence.

    ``entity`` is an int or a tuple of ints (anything whose ``str`` is
    the same in every process).
    """

    __slots__ = ("_prefix",)

    def __init__(self, rng: random.Random) -> None:
        self._prefix = f"{rng.getrandbits(64)}:"

    def draw(self, entity: object, k: int) -> float:
        """The ``k``-th draw of ``entity``: uniform in ``[0, 1)``."""
        digest = hashlib.sha256(
            f"{self._prefix}{entity}:{k}".encode("utf-8")
        ).digest()
        # 53 bits, like ``random.random()``.
        return (int.from_bytes(digest[:8], "big") >> 11) * 2.0 ** -53

    def of(self, entity: object) -> "KeyedDraws":
        """``entity``'s draws taken in order, behind the call shape of
        a ``random.Random``."""
        return KeyedDraws(self, entity)


class KeyedDraws:
    """One entity's draws of a :class:`KeyedStream`, ``k = 0, 1, ...``.

    For a model written against ``rng.uniform(a, b)``
    (:class:`~repro.net.mobility.RandomWaypoint`): all it holds is the
    count of draws taken.
    """

    __slots__ = ("_stream", "_entity", "_taken")

    def __init__(self, stream: KeyedStream, entity: object) -> None:
        self._stream = stream
        self._entity = entity
        self._taken = 0

    def uniform(self, a: float, b: float) -> float:
        k = self._taken
        self._taken = k + 1
        return a + (b - a) * self._stream.draw(self._entity, k)


class RngStreams:
    """A family of named, independently-seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}
        self._trace = None

    def set_trace(self, trace) -> None:
        """Digest every stream's primitive draws into ``trace``
        (:class:`repro.telemetry.tracing.TraceStream`).

        Must be installed before the first :meth:`stream` call —
        tracing only some streams would make the trace lie about where
        randomness flowed, so a late install is a typed error.
        """
        if self._streams:
            raise TelemetryError(
                "set_trace must run before the first stream() call; "
                f"streams already created: {sorted(self._streams)}"
            )
        self._trace = trace

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created deterministically on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(
            f"{self._master_seed}:{name}".encode("utf-8")
        ).digest()
        seed = int.from_bytes(digest[:8], "big")
        if self._trace is not None:
            stream: random.Random = _TracedRandom(seed, name, self._trace)
        else:
            stream = random.Random(seed)
        self._streams[name] = stream
        return stream

