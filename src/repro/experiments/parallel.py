"""The campaign runner: the one way a grid of runs is executed.

The experiment grids (:mod:`repro.experiments.campaign`,
:mod:`repro.experiments.resilience`) hand :func:`supervise` their
``(system, scenario)`` points; it folds them into independent jobs
with stable content-addressed keys and runs each distinct job once:

* **replay** — a job already recorded in the checkpoint
  :class:`~repro.experiments.journal.CampaignJournal` is reused without
  running, so a killed campaign resumes where it stopped;
* **run** — the remaining jobs run in this process (``workers=0``, the
  path every host can take) or on a :mod:`concurrent.futures` pool of
  ``workers`` spawned processes, each of which imports the simulator
  once and is reused for job after job.  Every completion is decoded
  (:mod:`repro.experiments.payload`) and journalled as it arrives, and
  the merge is keyed on job identity, never completion order, so the
  numbers are the same either way;
* **fail loudly** — a run is a pure function of ``(system, config)``:
  one that raises would raise again, so a raising job, a payload that
  does not decode or a worker that dies fails the campaign with a
  :class:`~repro.errors.CampaignError` naming the job.  Pending jobs
  are cancelled; the journal makes the re-run cheap.
"""

from __future__ import annotations

import os
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import CampaignError, ConfigError
from repro.experiments.config import ScenarioConfig
from repro.experiments.journal import CampaignJournal, spec_fingerprint
from repro.experiments.payload import payload_from_result, result_from_payload
from repro.experiments.runner import RunResult, run_scenario_cached

__all__ = [
    "CampaignJob",
    "SupervisorOutcome",
    "job_for",
    "run_job",
    "supervise",
]


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


def run_job(system: str, config: ScenarioConfig) -> dict:
    """One job: run the scenario and encode the result.

    Memoised per process like every figure sweep, so in-process
    campaigns that share points pay for each run once.
    """
    return payload_from_result(run_scenario_cached(system, config))


@dataclass
class SupervisorOutcome:
    """Every job's payload, and its decoded run."""

    payloads: Dict[str, dict] = field(default_factory=dict)
    results: Dict[str, RunResult] = field(default_factory=dict)

    def result_for(self, system: str, config: ScenarioConfig) -> RunResult:
        """The run of one grid point: the run provider of the merge
        sweeps."""
        return self.results[job_for(system, config).key]


def _die_with_parent() -> None:
    """Pool initializer: exit as soon as the coordinator is gone.

    An idle pool worker holds the write end of its own call queue, so
    it never sees EOF when the coordinator is killed; it waits on the
    parent's sentinel instead.
    """
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    sentinel = parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def supervise(
    points: Iterable[Tuple[str, ScenarioConfig]],
    fingerprint: str,
    *,
    workers: int = 0,
    journal: Optional[str] = None,
    resume: bool = False,
) -> SupervisorOutcome:
    """Run a grid's ``(system, config)`` points, each distinct one once.

    ``fingerprint`` identifies the grid to the checkpoint ``journal``
    (a JSONL path): ``resume=True`` replays it first and executes only
    the jobs it is missing, and refuses one written for another grid.
    """
    if workers < 0:
        raise ConfigError("workers must be >= 0")
    if resume and journal is None:
        raise ConfigError("resume needs a journal")
    # Keyed by content, so a repeated point lands on its first job.
    jobs = {job.key: job for job in (job_for(*point) for point in points)}
    outcome = SupervisorOutcome()
    with ExitStack() as stack:
        ledger = None
        if journal is not None:
            ledger = stack.enter_context(
                CampaignJournal(journal, fingerprint, resume=resume)
            )
        pending = []
        for job in jobs.values():
            reused = (
                ledger.completed(job.key, job.spec_hash)
                if ledger is not None
                else None
            )
            if reused is None:
                pending.append(job)
            else:
                # Journal blobs pass the same decoding gate as live
                # ones; a hand-edited journal cannot poison the merge.
                outcome.results[job.key] = result_from_payload(
                    job.system, job.config, reused
                )
                outcome.payloads[job.key] = reused
        if workers and pending:
            # Imported here: a process that runs no pool (a plain run,
            # the e2e harness) loads no multiprocessing.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor, as_completed

            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_die_with_parent,
            )
            # On the way out, a failed job cancels the jobs not started.
            stack.callback(pool.shutdown, cancel_futures=True)
            futures = {
                pool.submit(run_job, job.system, job.config): job
                for job in pending
            }
            replies = ((futures[f], f.result) for f in as_completed(futures))
        else:
            replies = (
                (job, partial(run_job, job.system, job.config))
                for job in pending
            )
        for job, reply in replies:
            try:
                payload = reply()
                result = result_from_payload(job.system, job.config, payload)
            except Exception as exc:
                # Deliberately broad: whatever the run raised, the
                # campaign stops and names the job it came from.
                raise CampaignError(
                    f"job `{job.key}` failed: {type(exc).__name__}: {exc}"
                ) from exc
            outcome.payloads[job.key] = payload
            outcome.results[job.key] = result
            if ledger is not None:
                ledger.record_done(job.key, job.spec_hash, payload)
    return outcome
