"""A saboteur ``work=`` callable for the supervisor's fault suites.

The supervisor runs whatever ``(system, config) -> payload`` callable
it is handed (:data:`repro.experiments.parallel.Work`).  A
:class:`Saboteur` is the honest job with a plan of misbehaviour in
front of it: on the leading attempts of chosen jobs it really exits
the process, really blocks, raises, or returns a blob the schema gate
must refuse.  It is a frozen dataclass of plain values, so a spawned
worker receives it by pickle, and it counts attempts per job in marker
files (one byte appended per attempt) because a crashed worker can
keep no other memory.
"""

import os
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.experiments.parallel import job_for, run_job
from repro.experiments.payload import PAYLOAD_VERSION

#: Exit code of a sabotaged crash (distinguishable from the
#: interpreter's own failure exits in test assertions).
CRASH_EXIT_CODE = 17

#: Attempt count meaning "every attempt".
ALWAYS = 10 ** 9


@dataclass(frozen=True)
class Saboteur:
    """Misbehave on the first ``attempts`` attempts of the listed jobs."""

    marker_dir: str
    #: ``(job key, action, attempts)`` rows; actions are ``"crash"``
    #: (spawned workers only: it would take the test process along),
    #: ``"hang"`` (likewise), ``"error"`` and ``"corrupt"``.
    plan: Tuple[Tuple[str, str, int], ...]

    @classmethod
    def of(
        cls,
        marker_dir,
        crash: Optional[Mapping[str, int]] = None,
        hang: Optional[Mapping[str, int]] = None,
        error: Optional[Mapping[str, int]] = None,
        corrupt: Optional[Mapping[str, int]] = None,
    ) -> "Saboteur":
        """Build from plain ``{job key: attempts}`` mappings."""
        tables = dict(crash=crash, hang=hang, error=error, corrupt=corrupt)
        return cls(
            marker_dir=str(marker_dir),
            plan=tuple(
                (key, action, attempts)
                for action, table in tables.items()
                for key, attempts in sorted((table or {}).items())
            ),
        )

    def _next_attempt(self, key: str) -> int:
        path = os.path.join(self.marker_dir, key.replace(":", "_"))
        with open(path, "a", encoding="ascii") as marker:
            marker.write("x")
        return os.path.getsize(path)

    def __call__(self, system, config):
        key = job_for(system, config).key
        attempt = self._next_attempt(key)
        for job_key, action, attempts in self.plan:
            if job_key != key or attempt > attempts:
                continue
            if action == "crash":
                os._exit(CRASH_EXIT_CODE)
            if action == "hang":
                while True:
                    # Block until the supervisor's deadline kills us.
                    time.sleep(3600)
            if action == "error":
                raise RuntimeError(f"sabotaged attempt {attempt}")
            assert action == "corrupt", action
            return {"version": PAYLOAD_VERSION, "corrupt": True}
        return run_job(system, config)
