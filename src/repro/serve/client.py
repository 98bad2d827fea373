"""The sweep service's blocking client — the library behind the CLI.

:class:`ServeClient` keeps only the service's verbs.  Its transport is
one :class:`~repro.fleet.daemon.DaemonLink` (the shared client half of
the daemon skeleton: connect, hello, HMAC answer, request, bye), held
as :attr:`ServeClient.link`.  Every public method maps one-to-one onto a
CLI verb: :meth:`submit` (``repro submit``), :meth:`jobs`,
:meth:`status`, :meth:`result`, :meth:`cancel`, plus :meth:`watch` for
streamed scenario-level progress and :meth:`wait` for simple polling.

Server-side refusals arrive as error frames and raise
:class:`~repro.errors.ServeError`; transport/framing trouble raises
:class:`~repro.fleet.protocol.ProtocolError` — the same split callers
of the fleet backend already handle.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServeError
from repro.fleet import protocol
from repro.fleet.daemon import DaemonLink
from repro.sweep.report import SweepReport

#: Default per-response timeout.  Generous: ``watch`` can legitimately
#: sit idle between scenario events of a long sweep.
RESPONSE_TIMEOUT_S = 600.0


def _refused(response: dict) -> dict:
    """``response``, with an error frame raised as :class:`ServeError`."""
    if response.get("type") == "error":
        raise ServeError(
            response.get("error", "sweep service refused the request")
        )
    return response


class ServeClient:
    """One persistent client connection to a sweep service daemon."""

    def __init__(
        self,
        address: str,
        secret: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.address = address
        self.link = DaemonLink(
            address,
            peer="service",
            secret=secret,
            timeout=timeout if timeout is not None else RESPONSE_TIMEOUT_S,
            default_port=9462,
        )

    def request(self, message: dict) -> dict:
        """One request/response round trip (connecting if needed)."""
        return _refused(self.link.request(message))

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        try:
            return self.request({"type": "ping"}).get("type") == "pong"
        except (OSError, protocol.ProtocolError):
            return False

    def submit(
        self,
        plan,
        resume: Optional[SweepReport] = None,
        label: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a :class:`~repro.sweep.SweepPlan`; returns the queued
        job's description.  ``resume`` is an archived report whose
        config-hash-matched scenarios the service will not re-run."""
        message = protocol.submit_message(
            protocol.plan_to_wire(plan),
            resume=resume.to_dict() if resume is not None else None,
            label=label,
        )
        return self._job_reply(self.request(message))

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job the daemon knows, in submission order."""
        response = self.request({"type": "job_list"})
        return list(response.get("jobs", []))

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._job_reply(
            self.request(protocol.job_request_message("job_status", job_id))
        )

    def result(self, job_id: str) -> SweepReport:
        """A finished job's archived :class:`SweepReport`."""
        response = self.request(
            protocol.job_request_message("job_result", job_id)
        )
        return SweepReport.from_dict(response.get("report", {}))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._job_reply(
            self.request(protocol.job_request_message("job_cancel", job_id))
        )

    def watch(
        self,
        job_id: str,
        callback: Optional[Callable[[Dict[str, Any]], None]] = None,
        max_retries: int = 5,
        backoff_s: float = 0.5,
    ) -> Dict[str, Any]:
        """Stream a job's progress until it lands; returns its final
        state.  ``callback`` sees every scenario-level event.

        A transient transport drop (worker restart, flaky link) does not
        kill the stream: the client reconnects with exponential backoff
        and resubscribes by job id — the service replays a terminal
        job's final state on resubscribe, so a job that finished during
        the outage is still reported.  Each reconnect surfaces as a
        one-line notice on stderr; only ``max_retries`` *consecutive*
        failed attempts re-raise (any received progress frame resets
        the count).  Server-side refusals (:class:`ServeError`, e.g. an
        unknown job id) are never retried.
        """
        attempts = 0
        while True:
            try:
                with self.link.lock:
                    self.link.send(
                        protocol.job_request_message("job_watch", job_id)
                    )
                    while True:
                        response = _refused(self.link.recv())
                        kind = response.get("type")
                        if kind == "progress":
                            attempts = 0
                            if callback is not None:
                                callback(dict(response.get("event", {})))
                        elif kind == "job":
                            return dict(response.get("job", {}))
                        # Unknown frame kinds are skipped
                        # (version tolerance).
            except (OSError, protocol.ProtocolError) as exc:
                attempts += 1
                if attempts > max_retries:
                    raise
                delay = backoff_s * (2 ** (attempts - 1))
                print(
                    f"watch: connection to {self.address} dropped "
                    f"({exc}); reconnecting in {delay:.1f}s "
                    f"(attempt {attempts}/{max_retries})",
                    file=sys.stderr,
                )
                time.sleep(delay)

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_s: float = 0.1,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state (or timeout)."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            job = self.status(job_id)
            if job.get("state") in ("done", "failed", "cancelled"):
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"job {job_id} still {job.get('state')} after "
                    f"{timeout:g}s"
                )
            time.sleep(poll_s)

    # ------------------------------------------------------------------
    @staticmethod
    def _job_reply(response: dict) -> Dict[str, Any]:
        if response.get("type") != "job":
            raise ServeError(
                f"unexpected reply type {response.get('type')!r} "
                f"(wanted 'job')"
            )
        return dict(response.get("job", {}))

    def close(self) -> None:
        self.link.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ServeClient"]
