"""The sweep service's job queue: submissions as first-class state machines.

A :class:`Job` is one submitted :class:`~repro.sweep.SweepPlan` walking
``queued`` → ``running`` → ``done``/``failed``/``cancelled``.  The
:class:`JobQueue` is the single synchronization point between the
connection handler threads (submit/status/cancel/watch) and the one
executor thread that actually runs sweeps — every transition happens
under its lock, and progress events fan out to per-job subscriber
queues so a watching client never blocks the runner.

The queue keeps the newest :data:`JOB_HISTORY` terminal jobs; older
ones age out (their archive files stay on disk), so a long-lived daemon
holds a bounded job table.  Queued and running jobs, and terminal jobs
a watcher is still attached to, are never dropped.

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

#: Terminal jobs a queue keeps (newest first); older ones age out.
JOB_HISTORY = 512


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
    #: Live watch subscriptions; each receives every progress event and
    #: stays listed until its watcher unsubscribes.
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
        #: Every job not yet aged out, in submission order.
        self._jobs: Dict[str, Job] = {}
        #: Ids of the queued jobs, oldest first (cancelling one removes
        #: it, so a trimmed terminal job never stays here).
        self._queued: "deque[str]" = deque()
        #: Ids of the retained terminal jobs, in the order they landed.
        self._finished: "deque[str]" = deque()
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
                if self._aged_out(job_id):
                    raise ServeError(
                        f"job {job_id} aged out of the service's history "
                        f"(it keeps the newest {JOB_HISTORY} finished "
                        "jobs); its archive file, if any, is still on disk"
                    )
                raise ServeError(
                    f"unknown job {job_id!r} ({self._sequence} jobs "
                    "submitted; `repro jobs` lists them)"
                )
            return job

    def _aged_out(self, job_id) -> bool:
        """Whether ``job_id`` names a job this queue issued and dropped."""
        number = str(job_id).partition("job-")[2]
        return number.isdigit() and 0 < int(number) <= self._sequence

    def list(self) -> List[Job]:
        """Every retained job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued flips terminal now, running flips its
        cancel flag (the runner lands the state at its next scenario
        checkpoint), terminal states raise."""
        job = self.get(job_id)
        with self._lock:
            if job.state == "queued":
                self._queued.remove(job.id)
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
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and events in job.subscribers:
                job.subscribers.remove(events)
                self._trim_locked()

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
                if self._queued:
                    job = self._jobs[self._queued.popleft()]
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
        """Make ``job`` terminal, wake its watchers, drop its plan and
        resume report, and age out the oldest terminal jobs."""
        job.state = state
        job.finished_s = time.time()
        job.plan = job.resume = None
        for events in job.subscribers:
            events.put(None)
        self._finished.append(job.id)
        self._trim_locked()

    def _trim_locked(self) -> None:
        """Drop the oldest terminal jobs past :data:`JOB_HISTORY`.  A
        job with a watcher still attached stops the trim until the
        watcher unsubscribes, so the history may briefly run over."""
        while len(self._finished) > JOB_HISTORY:
            oldest = self._jobs.get(self._finished[0])
            if oldest is not None and oldest.subscribers:
                return
            self._jobs.pop(self._finished.popleft(), None)

    def _publish_locked(self, job: Job, event: Dict[str, Any]) -> None:
        job.progress = dict(event)
        for events in job.subscribers:
            events.put(dict(event))


__all__ = ["JOB_HISTORY", "JOB_STATES", "TERMINAL_STATES", "Job", "JobQueue"]
