"""The sweep service daemon: many clients, one measurement substrate.

:class:`SweepService` is the shared daemon skeleton
(:mod:`repro.fleet.daemon`: hello, optional HMAC auth, request loop,
error frames) wrapped around exactly one :class:`~repro.session.Session`.
Its handlers translate ``submit_sweep``/``job_*`` requests into
:class:`~repro.serve.jobs.JobQueue` operations; a single executor thread
drains the queue and runs each job through ``Session.sweep`` —
sequentially, because a session's engines are not thread-safe, and
deliberately: concurrency across *clients* comes from the shared stats
cache (a scenario one job simulated is a cache hit for every later job),
not from racing sweeps against each other.  The session also keeps the
sweep engines and mapping memos a job built (a bounded LRU of hardware
configs, :data:`~repro.sweep.runner.ENGINE_ENTRIES`), so a later job at
the same hardware points goes straight to its cache lookups.

Every finished report — including the partial report of a cancelled
job — is archived as ``<archive_dir>/<job-id>.json``, a plain
:class:`~repro.sweep.SweepReport` document that feeds straight into
``repro report diff`` and ``repro submit --resume``.  Archives are
compact JSON with sorted keys, one line (the indented form costs the
pure-Python encoder, once per job, before the job is marked done), and
a ``job_result`` reply sends the archived bytes as they are, spliced
into its frame without a parse or re-encode.

Shutdown is graceful: SIGTERM/SIGINT stop the listener, cancel the
running job at its next scenario checkpoint (archiving the resumable
partial), close the session's cache tiers and fleet, and exit 0.
"""

from __future__ import annotations

import os
import queue
import socket
import sys
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import ServeError, SweepCancelled
from repro.fleet import protocol
from repro.fleet.daemon import (
    DaemonServer,
    parse_address,
    serve_until_stopped,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER
from repro.serve.jobs import Job, JobQueue
from repro.session.config import SessionConfig
from repro.sweep.report import SweepReport


class SweepService(DaemonServer):
    """The daemon: the shared server skeleton owning one session and a
    queue.  Per-connection state is nothing but the socket itself —
    every mutation goes through the lock-protected job queue — so two
    clients interleaving messages cannot corrupt each other.

    Args:
        address: ``(host, port)`` to bind; port 0 picks a free port.
        config: The :class:`SessionConfig` the owned session resolves
            from — its cache path is what every job shares.
        archive_dir: Directory for finished-job ``SweepReport`` JSON
            (created on demand).
        secret: Opt-in shared secret; same challenge-response contract
            as the fleet worker (``fleet.secret`` covers both).
    """

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        config: Optional[SessionConfig] = None,
        archive_dir: Optional[str] = None,
        secret: Optional[str] = None,
    ) -> None:
        self.config = config if config is not None else SessionConfig()
        super().__init__(
            address,
            secret=secret if secret is not None else self.config.fleet.secret,
        )
        self.archive_dir = Path(
            archive_dir if archive_dir is not None else "serve-archive"
        )
        self.jobs = JobQueue()
        self.metrics = MetricsRegistry()
        self._session = None
        self._session_lock = threading.Lock()
        self._stopping = threading.Event()
        self._serving = threading.Event()
        self._executor = threading.Thread(
            target=self._run_jobs, name="serve-executor", daemon=True
        )
        self._executor.start()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving.set()
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving.clear()

    def finish_request(self, request, client_address) -> None:
        self.metrics.counter("serve.connections").inc()
        super().finish_request(request, client_address)

    # ------------------------------------------------------------------
    def hello_fields(self) -> Dict:
        return {"capabilities": ["sweep"], "capacity": 1, "service": "sweep"}

    def handlers(self) -> Dict:
        def job_reply(job: Job) -> dict:
            return protocol.job_message(job.describe())

        def result_reply(conn, message) -> bytes:
            job, report_json = self.result(message.get("id"))
            return protocol.job_result_frame(job.describe(), report_json)

        return {
            "submit_sweep": lambda conn, m: job_reply(self.submit(m)),
            "job_list": lambda conn, m: protocol.jobs_message(
                [job.describe() for job in self.jobs.list()]
            ),
            "job_status": lambda conn, m: job_reply(
                self.jobs.get(m.get("id"))
            ),
            "job_result": result_reply,
            "job_cancel": lambda conn, m: job_reply(
                self.jobs.cancel(m.get("id"))
            ),
            "job_watch": self._watch,
        }

    def _watch(self, conn, message: dict) -> Optional[dict]:
        """Stream progress frames until the job lands, then its state.

        The wait on the subscriber queue is bounded: between events the
        socket is probed, so a watcher that vanished mid-job is
        unsubscribed promptly instead of pinning its handler thread (and
        every buffered progress event) until the job reaches a terminal
        state.
        """
        job = self.jobs.get(message.get("id"))
        events = self.jobs.subscribe(job.id)
        try:
            while True:
                try:
                    event = events.get(timeout=1.0)
                except queue.Empty:
                    if _peer_hung_up(conn.request):
                        return None
                    continue
                if event is None:
                    break
                conn.send(protocol.progress_message(job.id, event))
        finally:
            self.jobs.unsubscribe(job.id, events)
        return protocol.job_message(job.describe())

    def _session_for_jobs(self):
        """The one lazily-built session every job runs against."""
        from repro.session.session import Session

        with self._session_lock:
            if self._session is None:
                self._session = Session(self.config)
            return self._session

    # ------------------------------------------------------------------
    # handler entry points
    # ------------------------------------------------------------------
    def submit(self, message: dict) -> Job:
        """Validate one ``submit_sweep`` message into a queued job."""
        if self._stopping.is_set():
            raise ServeError("service is shutting down; not accepting jobs")
        plan = protocol.plan_from_wire(message.get("plan", {}))
        resume = None
        if isinstance(message.get("resume"), dict):
            try:
                resume = SweepReport.from_dict(message["resume"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ServeError(
                    f"malformed resume archive: {exc}"
                ) from exc
        job = self.jobs.submit(
            plan, resume=resume, label=message.get("label")
        )
        self.metrics.counter("serve.jobs_submitted").inc()
        return job

    def result(self, job_id: Optional[str]) -> Tuple[Job, bytes]:
        """A finished job and its archive's bytes (state-checked).

        The archive is compact, sorted JSON; it is read from disk per
        request, not parsed, and sent on as it is (so the daemon holds
        no report text between requests).  An archive that is gone or
        unreadable is a :class:`ServeError` naming the job and the path.
        """
        job = self.jobs.get(job_id)
        if job.archive is None:
            raise ServeError(
                f"job {job.id} is {job.state} and has no archived report yet"
            )
        try:
            return job, Path(job.archive).read_bytes()
        except OSError as exc:
            raise ServeError(
                f"job {job.id}'s archive {job.archive} cannot be read: "
                f"{exc.strerror or exc}"
            ) from exc

    # ------------------------------------------------------------------
    # the executor thread
    # ------------------------------------------------------------------
    def _run_jobs(self) -> None:
        while not self._stopping.is_set():
            job = self.jobs.next_job(timeout=0.1)
            if job is None:
                continue
            self._run_job(job)
        # Drain: anything still queued at shutdown is cancelled, so
        # clients polling across the restart see a terminal state.
        while True:
            job = self.jobs.next_job(timeout=0)
            if job is None:
                break
            self.jobs.finish(job, "cancelled", error="service shut down")

    def _run_job(self, job: Job) -> None:
        def progress(event: dict) -> None:
            if job.cancel_event.is_set():
                raise SweepCancelled(f"job {job.id} cancelled")
            self.jobs.publish(job, event)

        with TRACER.span(
            "serve.job", category="serve",
            job=job.id, scenarios=len(job.plan.scenarios),
        ):
            try:
                session = self._session_for_jobs()
                report = session.sweep(
                    job.plan, progress=progress, resume=job.resume
                )
            except SweepCancelled as exc:
                archive = (
                    self._archive(job, exc.partial)
                    if exc.partial is not None and exc.partial.scenarios
                    else None
                )
                self.jobs.finish(
                    job, "cancelled", error=str(exc), archive=archive
                )
                self.metrics.counter("serve.jobs_cancelled").inc()
            except Exception as exc:  # noqa: BLE001 - job isolation
                self.jobs.finish(job, "failed", error=str(exc))
                self.metrics.counter("serve.jobs_failed").inc()
            else:
                archive = self._archive(job, report)
                self.jobs.finish(job, "done", archive=archive)
                self.metrics.counter("serve.jobs_done").inc()
                self.metrics.counter("serve.scenarios_done").inc(
                    len(report.scenarios)
                )
                self.metrics.counter("serve.scenarios_resumed").inc(
                    int(report.counters.get("resumed_scenarios", 0))
                )

    def _archive(self, job: Job, report: SweepReport) -> str:
        self.archive_dir.mkdir(parents=True, exist_ok=True)
        path = self.archive_dir / f"{job.id}.json"
        path.write_text(report.to_json(indent=None) + "\n", encoding="utf-8")
        return str(path)

    # ------------------------------------------------------------------
    def close(self, drain_timeout: float = 30.0) -> None:
        """Graceful stop: no new jobs, cancel the running one at its
        next checkpoint (archiving the resumable partial), close the
        owned session's cache tiers and fleet.  Idempotent."""
        self._stopping.set()
        for job in self.jobs.list():
            if job.state == "running":
                job.cancel_event.set()
        if self._serving.is_set():
            self.shutdown()
        self._executor.join(drain_timeout)
        while self._executor.is_alive():
            # Cancellation only lands at scenario-boundary checkpoints;
            # a scenario outliving the drain timeout means the sweep is
            # still running.  Closing the session (and its cache tiers)
            # underneath it risks errors and partial cache writes, so
            # keep waiting — loudly — until the executor actually exits.
            print(
                "serve: in-flight scenario has not reached its "
                "cancellation checkpoint yet; waiting before closing "
                "caches...",
                file=sys.stderr,
                flush=True,
            )
            self._executor.join(10.0)
        self.server_close()
        with self._session_lock:
            if self._session is not None:
                self._session.close()
                self._session = None


def _peer_hung_up(sock: socket.socket) -> bool:
    """True when a watching client hung up (EOF on a peek).

    A watcher sends nothing while a watch is active, so a non-blocking
    peek either raises ``BlockingIOError`` (alive, idle), returns
    ``b""`` (clean hangup), or errors (reset).
    """
    try:
        return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
    except (BlockingIOError, InterruptedError):
        return False
    except OSError:
        return True


def serve(
    listen: str,
    config: Optional[SessionConfig] = None,
    archive_dir: Optional[str] = None,
    quiet: bool = False,
) -> int:
    """Blocking daemon entry point behind ``repro serve``.

    Serves until interrupted; SIGTERM/SIGINT shut down gracefully (the
    running job's partial report is archived for ``--resume``) and the
    process exits 0.
    """
    host, port = parse_address(listen, default_port=9462)
    config = config if config is not None else SessionConfig()
    service = SweepService(
        (host, port), config=config, archive_dir=archive_dir
    )
    banner = (
        f"sweep service pid {os.getpid()} listening on "
        f"{service.address} (cache: {config.cache.path or 'memory'}; "
        f"archive: {service.archive_dir}; "
        f"auth: {'on' if service.secret else 'off'})"
    )
    return serve_until_stopped(
        service, banner, "sweep service stopped", quiet=quiet
    )
