"""The sweep service's job queue: submissions as first-class state machines.

A :class:`Job` is one submitted :class:`~repro.sweep.SweepPlan` walking
``queued`` → ``running`` → ``done``/``failed``/``cancelled``.  The
:class:`JobQueue` is the single synchronization point between the
connection handler threads (submit/status/cancel/watch) and the one
executor thread that actually runs sweeps — every transition happens
under its lock, and progress events fan out to per-job subscriber
queues so a watching client never blocks the runner.

Cancellation is cooperative: ``cancel()`` flips a queued job terminal
immediately, while a running job gets its ``cancel_event`` set and the
runner's progress checkpoint raises
:class:`~repro.errors.SweepCancelled` at the next scenario boundary —
the partial report is archived, so the cancelled job is resumable.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ServeError

#: Every state a job can be in; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One submitted sweep plan and everything known about its run."""

    id: str
    #: The SweepPlan and the SweepReport to resume from, if any; both are
    #: dropped once the job is terminal, so a finished job keeps only
    #: its ``scenarios`` count.
    plan: Any
    resume: Optional[Any] = None
    scenarios: int = 0
    label: Optional[str] = None
    state: str = "queued"
    error: Optional[str] = None
    submitted_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Last progress event seen (scenario-level completion lives here).
    progress: Dict[str, Any] = field(default_factory=dict)
    #: Archive path of the finished (or partial) report, when written.
    archive: Optional[str] = None
    #: Set to request cooperative cancellation of a running job.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Live watch subscriptions; each receives every progress event.
    subscribers: List["queue.Queue"] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def describe(self) -> Dict[str, Any]:
        """The job's wire form (``repro jobs`` / ``repro status``)."""
        return {
            "id": self.id,
            "label": self.label,
            "state": self.state,
            "scenarios": self.scenarios,
            "completed": self.progress.get("completed", 0),
            "resumed": self.progress.get("resumed", 0),
            "error": self.error,
            "archive": self.archive,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }


class JobQueue:
    """Thread-safe FIFO of jobs plus their full lifecycle bookkeeping."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        #: Every job ever submitted, in submission order.
        self._jobs: Dict[str, Job] = {}
        #: Ids still to dispatch, oldest first; ids cancelled while
        #: queued are skipped when they reach the front.
        self._queued: "deque[str]" = deque()
        self._sequence = 0

    # ------------------------------------------------------------------
    # handler-side API
    # ------------------------------------------------------------------
    def submit(
        self,
        plan,
        resume=None,
        label: Optional[str] = None,
    ) -> Job:
        """Enqueue a plan; returns the new ``queued`` job."""
        with self._lock:
            self._sequence += 1
            job = Job(
                id=f"job-{self._sequence:04d}",
                plan=plan,
                resume=resume,
                scenarios=len(plan.scenarios),
                label=label,
            )
            self._jobs[job.id] = job
            self._queued.append(job.id)
            self._ready.notify_all()
            return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServeError(
                    f"unknown job {job_id!r} ({len(self._jobs)} jobs "
                    "submitted; `repro jobs` lists them)"
                )
            return job

    def list(self) -> List[Job]:
        """Every job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued flips terminal now, running flips its
        cancel flag (the runner lands the state at its next scenario
        checkpoint), terminal states raise."""
        job = self.get(job_id)
        with self._lock:
            if job.state == "queued":
                self._publish_locked(job, {"event": "cancelled"})
                self._land_locked(job, "cancelled")
            elif job.state == "running":
                job.cancel_event.set()
            else:
                raise ServeError(
                    f"job {job_id} is already {job.state}; nothing to cancel"
                )
            return job

    def subscribe(self, job_id: str) -> "queue.Queue":
        """A queue receiving the job's future progress events (and a
        final ``None`` sentinel once the job is terminal)."""
        job = self.get(job_id)
        with self._lock:
            events: "queue.Queue" = queue.Queue()
            if job.terminal:
                events.put(None)
            else:
                job.subscribers.append(events)
            return events

    def unsubscribe(self, job_id: str, events: "queue.Queue") -> None:
        job = self.get(job_id)
        with self._lock:
            if events in job.subscribers:
                job.subscribers.remove(events)

    # ------------------------------------------------------------------
    # executor-side API
    # ------------------------------------------------------------------
    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block up to ``timeout`` for the oldest queued job and mark it
        ``running``; None on timeout.  The single consumer is the
        service's executor thread."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._lock:
            while True:
                while self._queued:
                    job = self._jobs[self._queued.popleft()]
                    if job.state == "queued":
                        job.state = "running"
                        job.started_s = time.time()
                        return job
                if deadline is None:
                    self._ready.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._ready.wait(remaining)

    def publish(self, job: Job, event: Dict[str, Any]) -> None:
        """Record and fan one progress event out to the subscribers."""
        with self._lock:
            self._publish_locked(job, event)

    def finish(
        self,
        job: Job,
        state: str,
        error: Optional[str] = None,
        archive: Optional[str] = None,
    ) -> None:
        """Land a running job in a terminal state and wake watchers."""
        if state not in TERMINAL_STATES:
            raise ServeError(f"{state!r} is not a terminal job state")
        with self._lock:
            job.error = error
            if archive is not None:
                job.archive = archive
            self._land_locked(job, state)

    # ------------------------------------------------------------------
    def _land_locked(self, job: Job, state: str) -> None:
        """Make ``job`` terminal, wake its watchers, and drop its plan
        and resume report: a daemon keeps every job record for its life."""
        job.state = state
        job.finished_s = time.time()
        job.plan = job.resume = None
        for events in job.subscribers:
            events.put(None)
        job.subscribers.clear()

    def _publish_locked(self, job: Job, event: Dict[str, Any]) -> None:
        job.progress = dict(event)
        for events in job.subscribers:
            events.put(dict(event))


__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "JobQueue"]
