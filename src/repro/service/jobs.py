"""The job queue behind ``repro serve``: one executor, one store, one pool.

Every submitted campaign runs on a single executor thread against one
shared :class:`~repro.campaign.store.ResultStore` and (when ``workers >
1``) one shared :class:`~repro.parallel.pipeline.SharedPool`.  That
single-writer discipline is what makes concurrent multi-user serving
"free": two submissions of the same spec and budget fingerprint to the
same job (coalesced at submit time), and a finished job's points are
instant cache hits for the next submission — the second run reuses
every store record and samples zero shots, returning byte-identical
tables.

Cancellation and drain both ride the orchestrator's ``stop=`` callback
(PR 8): ``DELETE /jobs/<id>`` flips the job's cancel flag, drain flips
a queue-wide flag, and the running campaign stops at the next point
boundary having already flushed everything finalised — the store is
left resumable, never corrupt.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.campaign import (
    CampaignInterrupted,
    CampaignSpec,
    ResultStore,
    run_campaign,
)
from repro.parallel.pipeline import SharedPool, resolve_workers
from repro.service.protocol import ProtocolError

__all__ = ["JOB_STATES", "Job", "JobQueue"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state a job can report; the last three are terminal.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submitted campaign and everything the API reports about it."""

    id: str
    spec: CampaignSpec
    budget: int
    fingerprint: str
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    progress: dict | None = None
    stats: dict | None = None
    tables: list | None = None
    error: str | None = None
    cancel_requested: bool = False
    dedup_hits: int = 0


class JobQueue:
    """Thread-safe queue + the single executor thread running jobs.

    All public methods are safe to call from the async frontend's event
    loop: they only take the queue lock briefly and never block on job
    execution.  The executor is a daemon thread so a hard kill of the
    process never hangs on it — graceful exit goes through
    :meth:`drain`.
    """

    def __init__(self, store: "ResultStore | str",
                 workers: int = 1) -> None:
        self.store = (store if isinstance(store, ResultStore)
                      else ResultStore(store))
        self.worker_count = resolve_workers(workers)
        self._pool = (SharedPool(self.worker_count)
                      if self.worker_count > 1 else None)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._pending: deque[Job] = deque()
        self._by_fp: dict[str, Job] = {}
        self._draining = False
        self._seq = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-executor", daemon=True)
        self._thread.start()

    # -- submission ----------------------------------------------------
    def submit(self, spec: CampaignSpec,
               budget: int | None = None) -> tuple[str, bool]:
        """Enqueue a campaign; returns ``(job_id, deduplicated)``.

        Submissions are coalesced by content fingerprint: while a job
        for the same spec *and* effective budget is queued or running,
        a new submission returns that job's id instead of enqueueing a
        duplicate (``deduplicated=True``) — two concurrent users of one
        spec pay for at most one cold run.  A finished fingerprint
        re-runs as a fresh job, which reuses every store record and
        samples nothing.
        """
        effective = int(budget) if budget is not None else spec.budget
        if effective < 1:
            raise ProtocolError(400, "budget must be a positive shot count")
        fp = spec.fingerprint(budget=effective)
        with self._wake:
            if self._draining:
                raise ProtocolError(
                    503, "service is draining; submissions are closed")
            active = self._by_fp.get(fp)
            if (active is not None and active.state in (QUEUED, RUNNING)
                    and not active.cancel_requested):
                active.dedup_hits += 1
                return active.id, True
            self._seq += 1
            job = Job(id=f"job-{self._seq:06d}", spec=spec,
                      budget=effective, fingerprint=fp,
                      submitted_at=time.time())
            self._jobs[job.id] = job
            self._by_fp[fp] = job
            self._pending.append(job)
            self._wake.notify_all()
            return job.id, False

    # -- views ---------------------------------------------------------
    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(404, f"no such job {job_id!r}")
        return job

    def describe(self, job_id: str) -> dict:
        """The ``GET /jobs/<id>`` payload (tables excluded — they have
        their own endpoint so status polling stays cheap)."""
        with self._lock:
            job = self._get(job_id)
            return {
                "job": job.id,
                "state": job.state,
                "campaign": job.spec.name,
                "fingerprint": job.fingerprint,
                "budget": job.budget,
                "submitted_at": job.submitted_at,
                "started_at": job.started_at,
                "finished_at": job.finished_at,
                "dedup_hits": job.dedup_hits,
                "error": job.error,
                "progress": job.progress,
                "stats": job.stats,
            }

    def jobs(self) -> list[dict]:
        """One summary row per job, in submission order."""
        with self._lock:
            return [
                {"job": job.id, "state": job.state,
                 "campaign": job.spec.name,
                 "fingerprint": job.fingerprint}
                for job in self._jobs.values()
            ]

    def tables(self, job_id: str) -> list:
        """The finished job's result tables (409 until it is done)."""
        with self._lock:
            job = self._get(job_id)
            if job.state != DONE:
                raise ProtocolError(
                    409, f"job {job_id} is {job.state}, not done")
            return job.tables or []

    def stats(self) -> dict:
        """The ``GET /healthz`` payload: queue + store state."""
        with self._lock:
            states = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "status": "draining" if self._draining else "serving",
                "workers": self.worker_count,
                "jobs": states,
                "store": self.store.stats(),
            }

    # -- cancellation / drain ------------------------------------------
    def cancel(self, job_id: str) -> dict:
        """``DELETE /jobs/<id>``: cancel a queued job immediately, ask
        a running one to stop at its next point boundary (everything it
        already finalised stays flushed — the store remains resumable).
        Cancelling a finished job is a 409."""
        with self._wake:
            job = self._get(job_id)
            if job.state == QUEUED:
                job.cancel_requested = True
                job.state = CANCELLED
                job.error = "cancelled while queued"
                job.finished_at = time.time()
                return {"job": job.id, "state": CANCELLED}
            if job.state == RUNNING:
                job.cancel_requested = True
                return {"job": job.id, "state": "cancelling"}
            raise ProtocolError(409, f"job {job_id} already {job.state}")

    def drain(self) -> None:
        """Graceful shutdown: close submissions, cancel queued jobs,
        stop the running job at its next point boundary, join the
        executor and release the pool.  Idempotent."""
        with self._wake:
            self._draining = True
            for job in self._pending:
                if job.state == QUEUED:
                    job.state = CANCELLED
                    job.error = "drained"
                    job.finished_at = time.time()
            self._pending.clear()
            self._wake.notify_all()
        self._thread.join()
        if self._pool is not None:
            self._pool.close()

    # -- executor ------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._draining:
                    self._wake.wait()
                if not self._pending:
                    return  # draining, nothing left
                job = self._pending.popleft()
                if job.state != QUEUED:
                    continue  # cancelled while queued
                job.state = RUNNING
                job.started_at = time.time()
            self._execute(job)

    def _execute(self, job: Job) -> None:
        def stop() -> bool:
            return job.cancel_requested or self._draining

        def progress(snapshot: dict) -> None:
            with self._lock:
                job.progress = snapshot

        try:
            result = run_campaign(job.spec, store=self.store,
                                  workers=self.worker_count,
                                  budget=job.budget, stop=stop,
                                  progress=progress, pool=self._pool)
        except CampaignInterrupted as exc:
            with self._lock:
                job.state = CANCELLED
                job.error = str(exc)
        except Exception as exc:  # noqa: BLE001 — a bad job must never
            # take the executor thread (and with it the service) down.
            with self._lock:
                job.state = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
        else:
            # Tables are snapshotted as plain JSON documents outside
            # the lock; the spec seeds make them a pure function of the
            # fingerprint, which is what byte-identity rides on.
            tables = [json.loads(table.to_json())
                      for table in result.tables]
            with self._lock:
                job.state = DONE
                job.stats = result.stats_dict()
                job.tables = tables
        finally:
            with self._lock:
                job.finished_at = time.time()
