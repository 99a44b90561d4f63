"""The campaign supervisor: the one way a grid of runs is executed.

The experiment grids (:mod:`repro.experiments.campaign`,
:mod:`repro.experiments.resilience`) hand :func:`supervise` their
``(system, scenario)`` points; it folds them into independent jobs
with stable content-addressed keys and a :class:`CampaignSupervisor`
runs every job, treating a failed attempt the way
:mod:`repro.recovery` treats a failed node — detect, retry,
quarantine, continue:

* **hang detection** — a supervisor-side wall-clock deadline per job
  attempt; an overrunning worker is killed, never waited on
  cooperatively;
* **crash detection** — a worker that dies (non-zero exit, OOM kill,
  broken result pipe) before delivering a payload is detected from the
  parent side;
* **bounded retries** — an attempt lost to the host (crash, hang,
  corrupt reply) reruns at once, up to ``max_attempts`` per job (a
  retry waits on no shared service, so there is nothing to pace);
* **poison-job quarantine** — a job that keeps failing is quarantined
  after ``max_attempts``, and one whose run *reported* an error on its
  first: a run is a pure function of ``(system, config)``, so a second
  attempt would raise the same exception.  The campaign completes and
  reports it in ``failed_jobs`` instead of dying;
* **checkpoint/resume** — completions append to a
  :class:`~repro.experiments.journal.CampaignJournal`; a killed
  campaign resumes from the journal and produces byte-identical output
  (the merge is keyed on job identity, never completion order);
* **schema-validated payloads** — every attempt ends in a JSON-safe
  blob (:mod:`repro.experiments.payload`); a corrupt one is rejected
  (and retried) instead of being merged.

Where an attempt runs is the only thing ``workers`` changes: in this
process when it is 0 or ``multiprocessing`` cannot spawn (the path
that works on every host), else in one spawned worker per attempt.
Either way the attempt is booked by the same
:meth:`CampaignSupervisor._settle`.  The fault-handling suites
substitute the ``work`` callable (``tests/experiments/sabotage.py``)
to make attempts really exit, hang, raise or return garbage.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

# Wall-clock time is the supervisor's problem domain: deadlines for
# *host* processes.  Nothing here ever enters simulated time — the
# suppressions below each justify one read.
import time

from repro.errors import CampaignError, ConfigError
from repro.experiments.config import ScenarioConfig
from repro.experiments.journal import CampaignJournal, spec_fingerprint
from repro.experiments.payload import (
    PAYLOAD_VERSION,
    payload_from_result,
    result_from_payload,
    validate_payload,
)
from repro.experiments.runner import RunResult, run_scenario_cached

__all__ = [
    "CampaignJob",
    "CampaignSupervisor",
    "FailedJob",
    "RetryPolicy",
    "SupervisorOutcome",
    "SupervisorStats",
    "job_for",
    "run_job",
    "supervise",
]


# ---------------------------------------------------------------------------
# Jobs: stable identities for every grid point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignJob:
    """One independent unit of campaign work: run one system once."""

    key: str
    spec_hash: str
    system: str
    config: ScenarioConfig


def job_for(system: str, config: ScenarioConfig) -> CampaignJob:
    """The job for one ``(system, scenario)`` point.

    The key is content-addressed (system plus a fingerprint of the
    frozen config), so identical points — e.g. the shared size sweeps
    of Figs 8-11 — map to one job, and merge lookups are pure functions
    of the grid.
    """
    spec_hash = spec_fingerprint(system, config)
    return CampaignJob(
        key=f"{system}:{spec_hash[:20]}",
        spec_hash=spec_hash,
        system=system,
        config=config,
    )


#: What one attempt executes: ``(system, config) -> payload``.  Must
#: pickle by import path (a module-level function, or an instance of a
#: module-level class) — a spawned worker receives it as an argument.
#: This is the seam a test substitutes a saboteur through.
Work = Callable[[str, ScenarioConfig], object]


def run_job(system: str, config: ScenarioConfig) -> dict:
    """The default :data:`Work`: run the scenario, encode the result.

    Memoised per process like every figure sweep, so in-process
    campaigns that share points pay for each run once.
    """
    return payload_from_result(run_scenario_cached(system, config))


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor fights for each job."""

    #: Total attempts per job before quarantine (>= 1).
    max_attempts: int = 3
    #: Wall-clock seconds one spawned attempt may run before it is
    #: declared hung and killed (supervisor-side timer; an in-process
    #: attempt cannot be interrupted and has no deadline).
    deadline_s: float = 300.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")


@dataclass(frozen=True)
class FailedJob:
    """One quarantined job of a completed campaign."""

    key: str
    system: str
    attempts: int
    reason: str          # "crash" | "hang" | "corrupt" | "error"
    detail: str

    def __str__(self) -> str:
        return (
            f"`{self.key}` — {self.reason} after {self.attempts} "
            f"attempt(s): {self.detail}"
        )


# ---------------------------------------------------------------------------
# One attempt, wherever it runs
# ---------------------------------------------------------------------------


def _attempt(work: Work, job: CampaignJob) -> object:
    """Run one attempt where it stands and return its reply.

    Never retries and never catches its way around a real failure: an
    exception becomes a typed ``worker_error`` reply for the supervisor
    to book, a kill is the supervisor's verdict.
    """
    try:
        return work(job.system, job.config)
    except Exception as exc:
        # Deliberately broad: whatever killed the run, the supervisor
        # must hear a typed error instead of diagnosing a bare exit.
        return {
            "version": PAYLOAD_VERSION,
            "worker_error": f"{type(exc).__name__}: {exc}",
        }


def _worker_main(conn, work: Work, job: CampaignJob) -> None:
    """Worker entry point: one attempt, one reply, exit.

    Runs in a freshly spawned interpreter; the parent owns deadlines
    and crash detection.
    """
    conn.send((job.key, _attempt(work, job)))
    conn.close()


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


@dataclass
class SupervisorStats:
    """Bookkeeping of one supervised campaign execution."""

    jobs: int = 0
    executed: int = 0          # jobs computed this run
    reused: int = 0            # jobs replayed from the journal
    retries: int = 0           # failed attempts that were retried
    crashes: int = 0
    hangs: int = 0
    corrupt: int = 0
    errors: int = 0
    quarantined: int = 0
    degraded_serial: bool = False


@dataclass
class SupervisorOutcome:
    """Everything a supervised execution produced."""

    payloads: Dict[str, dict]
    failed: Tuple[FailedJob, ...]
    stats: SupervisorStats

    def result_for(
        self, system: str, config: ScenarioConfig
    ) -> Optional[RunResult]:
        """The run of one grid point (None when its job was
        quarantined): the run provider of the merge sweeps."""
        payload = self.payloads.get(job_for(system, config).key)
        if payload is None:
            return None
        return result_from_payload(system, config, payload)


@dataclass
class _Running:
    """One in-flight spawned attempt."""

    job: CampaignJob
    attempt: int
    proc: object
    conn: object
    deadline_at: float


class CampaignSupervisor:
    """Executes a job list with failure supervision and checkpointing.

    One instance runs one campaign: construct with the decomposed job
    list, call :meth:`run` once, read the outcome.
    """

    def __init__(
        self,
        jobs: Sequence[CampaignJob],
        *,
        workers: int = 0,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[CampaignJournal] = None,
        work: Work = run_job,
    ) -> None:
        self.jobs = list(jobs)
        keys = [job.key for job in self.jobs]
        if len(set(keys)) != len(keys):
            raise CampaignError("duplicate job keys in campaign job list")
        if workers < 0:
            raise ConfigError("workers must be >= 0")
        self.workers = workers
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        self.work = work
        self._queue: Deque[Tuple[CampaignJob, int]] = deque()
        self._payloads: Dict[str, dict] = {}
        self._failed: List[FailedJob] = []
        self._stats = SupervisorStats(jobs=len(self.jobs))

    def _settle(
        self,
        job: CampaignJob,
        attempt: int,
        reply: object = None,
        failure: Optional[Tuple[str, str]] = None,
    ) -> None:
        """Book one finished attempt — the only place that does.

        A reply is validated, then accepted and journalled; a rejected
        reply or a ``failure`` (the ``(reason, detail)`` of an attempt
        that left no reply: crash, hang) is counted and the job
        requeued, or quarantined and journalled once its attempts are
        spent — at once for a reported error, which a rerun of the
        same ``(system, config)`` can only repeat.
        """
        if failure is None:
            try:
                payload = validate_payload(reply)
            except CampaignError as exc:
                rejected = "worker reported an error" not in str(exc)
                failure = ("corrupt" if rejected else "error", str(exc))
        if failure is None:
            self._payloads[job.key] = payload
            self._stats.executed += 1
            if self.journal is not None:
                self.journal.record_done(
                    job.key, job.spec_hash, attempt, payload
                )
            return
        reason, detail = failure
        if reason == "crash":
            self._stats.crashes += 1
        elif reason == "hang":
            self._stats.hangs += 1
        elif reason == "corrupt":
            self._stats.corrupt += 1
        else:
            self._stats.errors += 1
        if reason != "error" and attempt < self.retry.max_attempts:
            self._stats.retries += 1
            self._queue.append((job, attempt + 1))
            return
        self._stats.quarantined += 1
        self._failed.append(
            FailedJob(job.key, job.system, attempt, reason, detail)
        )
        if self.journal is not None:
            self.journal.record_failed(
                job.key, job.spec_hash, attempt, reason, detail
            )

    # -- attempts in spawned workers -----------------------------------------

    @staticmethod
    def _spawn_context():
        """The spawn multiprocessing context, or None when unusable."""
        try:
            import multiprocessing

            ctx = multiprocessing.get_context("spawn")
            # Some sandboxes expose the module but cannot create the
            # primitives; probing one pipe catches that up front.
            recv_end, send_end = ctx.Pipe(duplex=False)
            recv_end.close()
            send_end.close()
            return ctx
        except (ImportError, OSError, ValueError):
            return None

    def _launch(self, ctx, job: CampaignJob, attempt: int) -> _Running:
        recv_end, send_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(send_end, self.work, job),
            daemon=True,
        )
        proc.start()
        send_end.close()
        deadline = time.monotonic() + self.retry.deadline_s  # referlint: disable=REF002
        return _Running(job, attempt, proc, recv_end, deadline)

    @staticmethod
    def _kill(entry: _Running) -> None:
        proc = entry.proc
        proc.terminate()
        proc.join(1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)
        entry.conn.close()

    @staticmethod
    def _harvest(entry: _Running) -> Tuple[object, Optional[Tuple[str, str]]]:
        """Collect one finished worker: ``_settle``'s (reply, failure)."""
        try:
            message = entry.conn.recv()
        except (EOFError, OSError):
            entry.conn.close()
            entry.proc.join(5.0)
            code = entry.proc.exitcode
            return None, ("crash", (
                f"worker died before delivering a result (exit code {code})"
            ))
        entry.conn.close()
        entry.proc.join(5.0)
        if (
            not isinstance(message, tuple)
            or len(message) != 2
            or message[0] != entry.job.key
        ):
            return None, (
                "corrupt", "worker reply was not (job key, payload)"
            )
        return message[1], None

    def _run_pool(self, ctx) -> None:
        from multiprocessing.connection import wait as connection_wait

        running: Dict[object, _Running] = {}
        try:
            while self._queue or running:
                while self._queue and len(running) < self.workers:
                    entry = self._launch(ctx, *self._queue.popleft())
                    running[entry.conn] = entry
                horizon = min(r.deadline_at for r in running.values())
                now = time.monotonic()  # referlint: disable=REF002
                ready = connection_wait(
                    list(running), timeout=max(0.0, horizon - now)
                )
                for conn in ready:
                    entry = running.pop(conn)
                    self._settle(
                        entry.job, entry.attempt, *self._harvest(entry)
                    )
                now = time.monotonic()  # referlint: disable=REF002
                for conn in list(running):
                    entry = running[conn]
                    if now < entry.deadline_at:
                        continue
                    del running[conn]
                    self._kill(entry)
                    self._settle(
                        entry.job,
                        entry.attempt,
                        failure=(
                            "hang",
                            f"exceeded the {self.retry.deadline_s:g}s "
                            "per-attempt deadline and was killed",
                        ),
                    )
        finally:
            for entry in running.values():
                self._kill(entry)

    # -- entry point ---------------------------------------------------------

    def run(self) -> SupervisorOutcome:
        """Execute every job; always returns (quarantine, never raise,
        for job-level failures — only journal/config damage raises)."""
        for job in self.jobs:
            reused = (
                self.journal.completed(job.key, job.spec_hash)
                if self.journal is not None
                else None
            )
            if reused is not None:
                # Journal blobs pass the same schema gate as live ones;
                # a hand-edited journal cannot poison the merge.
                self._payloads[job.key] = validate_payload(reused)
                self._stats.reused += 1
            else:
                self._queue.append((job, 1))
        ctx = self._spawn_context() if self.workers > 0 else None
        if ctx is not None:
            self._run_pool(ctx)
        else:
            self._stats.degraded_serial = self.workers > 0
            while self._queue:
                job, attempt = self._queue.popleft()
                self._settle(job, attempt, _attempt(self.work, job))
        return SupervisorOutcome(
            payloads=self._payloads,
            failed=tuple(sorted(self._failed, key=lambda f: f.key)),
            stats=self._stats,
        )


def supervise(
    points: Iterable[Tuple[str, ScenarioConfig]],
    fingerprint: str,
    *,
    workers: int = 0,
    journal: Optional[str] = None,
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    work: Work = run_job,
) -> SupervisorOutcome:
    """Run a grid's ``(system, config)`` points, each distinct one once.

    ``fingerprint`` identifies the grid to the checkpoint ``journal``
    (a JSONL path): ``resume=True`` replays it first and executes only
    the jobs it is missing, and refuses one written for another grid.
    """
    if resume and journal is None:
        raise ConfigError("resume needs a journal")
    # Keyed by content, so a repeated point lands on its first job.
    jobs = {job.key: job for job in (job_for(*point) for point in points)}
    with (
        CampaignJournal(journal, fingerprint, resume=resume)
        if journal is not None
        else nullcontext()
    ) as ledger:
        return CampaignSupervisor(
            list(jobs.values()),
            workers=workers,
            retry=retry,
            journal=ledger,
            work=work,
        ).run()
