"""Deterministic, per-component random number streams.

Large discrete-event simulations must stay reproducible when one
component changes its consumption of randomness.  A single shared
``random.Random`` couples every component: adding one extra draw in the
mobility model would perturb the workload.  :class:`RngStreams` derives
an independent ``random.Random`` per named component from a master seed,
so each subsystem owns its own stream.
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


class RngStreams:
    """A family of named, independently-seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}
        self._trace = None

    @property
    def master_seed(self) -> int:
        """The seed this family was created from."""
        return self._master_seed

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

    def fork(self, name: str) -> "RngStreams":
        """A child family, deterministic in (master_seed, name).

        Used to give each simulation run in a sweep its own independent
        universe of streams.  The child starts untraced — each run
        installs its own trace stream (or none).
        """
        digest = hashlib.sha256(
            f"fork:{self._master_seed}:{name}".encode("utf-8")
        ).digest()
        return RngStreams(int.from_bytes(digest[:8], "big"))
