"""repro.serve — the resident sweep service.

One daemon process (``repro serve --listen HOST:PORT``) owns one
:class:`~repro.session.Session` — one shared stats cache, one
executor/fleet backend — and multiplexes many clients onto it over the
fleet wire protocol.  That is the paper's traffic model made concrete:
overlapping scenario matrices submitted by independent users hit one
measurement substrate, so the millionth AlexNet sweep is nearly all
cache hits.

* :class:`Job` / :class:`JobQueue` — submissions with states
  (``queued`` → ``running`` → ``done``/``failed``/``cancelled``),
  cooperative cancellation, and per-job progress subscription;
* :class:`SweepService` — the threading TCP server: accepts
  ``submit_sweep``/``job_*`` messages, runs jobs one at a time on an
  executor thread (cross-job dedup comes from the shared cache), and
  archives every finished ``SweepReport`` as JSON that feeds straight
  into ``repro report diff`` and ``--resume``;
* :class:`ServeClient` — the blocking client behind ``repro submit`` /
  ``jobs`` / ``status`` / ``result`` / ``cancel``, with progress
  streaming via :meth:`~ServeClient.watch`.

Results are bit-identical to the same plan run via ``repro sweep``
locally: submissions travel as resolved config dicts and replay through
the exact same :class:`~repro.sweep.SweepRunner` path.

The names above are imported on first use (:mod:`repro.lazy`), so a
client imports no server: ``from repro.serve import ServeClient`` loads
the wire protocol and the report types, not the service, the engine or
the fleet worker.  The daemon in turn defers its session, and with it
numpy, the model builders and the engine, to its first job.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.client": ("ServeClient",),
    "repro.serve.jobs": ("JOB_STATES", "Job", "JobQueue"),
    "repro.serve.server": ("SweepService", "serve"),
})
