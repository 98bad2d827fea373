"""Tests for the resident sweep service (repro.serve) and sweep resume.

Covers the acceptance surface of the service tier: config-hash resume
(locally and over the wire), the job queue state machine, a live daemon
under concurrent clients (shared-cache dedup, bit-identity with local
``repro sweep``), progress streaming and cancellation, protocol edge
cases on real sockets (oversized frames, mid-frame disconnects,
interleaved clients), shared-secret auth on both daemons, and graceful
SIGTERM shutdown of the ``repro worker`` and ``repro serve``
subprocesses.
"""

import gc
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.engine import EvaluationEngine
from repro.errors import ReproError, ServeError, SweepCancelled
from repro.fleet import protocol
from repro.fleet.daemon import DaemonLink
from repro.fleet.remote_backend import RemoteBackend
from repro.fleet.worker import FleetWorker, start_worker
from repro.serve import JobQueue, ServeClient, SweepService
from repro.serve import jobs as jobs_mod
from repro.session import Session, SessionConfig
from repro.sweep import (
    SweepPlan,
    SweepReport,
    diff_reports,
    load_report,
    scenario_fingerprint,
    split_resume,
)


def _plan(models=("mlp",), **axes):
    return SweepPlan.matrix(
        SessionConfig(), models=list(models), axes=axes or None
    )


def _fingerprint(scenario):
    """A scenario's resume hash on the default-params engine its
    architecture section resolves to."""
    sim_config, _ = scenario.config.build_simulator_config()
    return scenario_fingerprint(
        scenario, EvaluationEngine(sim_config).fingerprint
    )


def _hashes(plan):
    return {s.name: _fingerprint(s) for s in plan.scenarios}


def _hold_next_job(service):
    """Hold the service's executor before its next job; the returned
    function releases it once a watcher has subscribed to ``job_id``.

    Without the hold a fast job can finish before the watch under test
    attaches, and the watch then sees no progress events at all.
    """
    release = threading.Event()
    open_session = service._session_for_jobs

    def held_session():
        release.wait(timeout=30)
        return open_session()

    service._session_for_jobs = held_session

    def release_once_watched(job_id):
        def wait_for_watcher():
            deadline = time.monotonic() + 30
            while (
                not service.jobs.get(job_id).subscribers
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            release.set()

        threading.Thread(target=wait_for_watcher, daemon=True).start()

    return release_once_watched


# ----------------------------------------------------------------------
# resume: fingerprints and plan splitting
# ----------------------------------------------------------------------
class TestResume:
    def test_fingerprint_is_stable_and_semantic(self):
        a = _plan().scenarios[0]
        b = _plan().scenarios[0]
        assert _fingerprint(a) == _fingerprint(b)

    def test_fingerprint_tracks_config_and_model(self):
        base = _plan(models=["mlp", "lenet"])
        small, other = base.scenarios
        changed = _plan(ms_size=[64]).scenarios[0]
        prints = {
            _fingerprint(small),
            _fingerprint(other),
            _fingerprint(changed),
        }
        assert len(prints) == 3

    def test_fingerprint_ignores_environmental_knobs(self):
        """Executor/cache/fleet/obs differences must not break resume
        matching — and fleet.secret must never influence (or leak via)
        an archived hash."""
        base = SessionConfig.resolve(env=False)
        envy = SessionConfig.resolve(
            env=False,
            fleet_secret="s3cret",
            cache_path="elsewhere.sqlite",
            executor="thread",
            workers="hostA:9461,hostB:9461",
            trace=True,
        )
        a = SweepPlan.matrix(base, models=["mlp"]).scenarios[0]
        b = SweepPlan.matrix(envy, models=["mlp"]).scenarios[0]
        assert _fingerprint(a) == _fingerprint(b)

    def test_fingerprint_tracks_result_determining_knobs(self):
        base = SweepPlan.matrix(
            SessionConfig.resolve(env=False), models=["mlp"]
        ).scenarios[0]
        functional = SweepPlan.matrix(
            SessionConfig.resolve(env=False, functional=True),
            models=["mlp"],
        ).scenarios[0]
        tuned = SweepPlan.matrix(
            SessionConfig.resolve(env=False, seed=7), models=["mlp"]
        ).scenarios[0]
        prints = {
            _fingerprint(base),
            _fingerprint(functional),
            _fingerprint(tuned),
        }
        assert len(prints) == 3

    def test_target_scenarios_never_fingerprint(self):
        from repro.stonne.layer import ConvLayer

        layer = ConvLayer("c", C=4, H=8, W=8, K=4, R=3, S=3)
        plan = SweepPlan.single(SessionConfig(), kind="tune", target=layer)
        assert scenario_fingerprint(plan.scenarios[0], "any engine") is None

    def test_split_resume_partitions_and_relabels(self):
        plan = _plan(models=["mlp", "lenet"])
        mlp = plan.scenarios[0]
        archived = SweepReport(
            scenarios=[],
            counters={},
        )
        # Archive carries the mlp cell under a different name: matching
        # is by hash, so it still resumes, re-labelled to the new name.
        from repro.sweep import ScenarioResult

        archived.scenarios.append(
            ScenarioResult(
                name="old-name", kind="run", report=None, model="mlp",
                config_hash=_fingerprint(mlp),
            )
        )
        pending, reused = split_resume(plan, _hashes(plan), archived)
        assert [s.name for s in pending] == ["lenet"]
        assert list(reused) == ["mlp"]
        assert reused["mlp"].name == "mlp"

    def test_archives_without_hashes_never_match(self):
        plan = _plan()
        from repro.sweep import ScenarioResult

        archived = SweepReport(
            scenarios=[
                ScenarioResult(name="mlp", kind="run", report=None,
                               model="mlp")
            ]
        )
        pending, reused = split_resume(plan, _hashes(plan), archived)
        assert len(pending) == 1 and not reused

    def test_config_hash_round_trips_json(self):
        with Session(SessionConfig()) as session:
            report = session.sweep(_plan())
        loaded = SweepReport.from_json(report.to_json())
        assert loaded.scenarios[0].config_hash
        assert (
            loaded.scenarios[0].config_hash
            == report.scenarios[0].config_hash
        )

    def test_session_sweep_resume_runs_only_missing(self):
        with Session(SessionConfig()) as session:
            first = session.sweep(_plan(models=["mlp"]))
        archive = SweepReport.from_json(first.to_json())
        with Session(SessionConfig()) as session:
            lenet_only = session.sweep(_plan(models=["lenet"]))
        with Session(SessionConfig()) as session:
            resumed = session.sweep(
                _plan(models=["mlp", "lenet"]), resume=archive
            )
            assert resumed.counters["resumed_scenarios"] == 1
            # Fresh session, no shared cache: only lenet's layers
            # simulated, mlp adopted without touching the engine.
            assert (
                session.counters()["num_simulations"]
                == lenet_only.counters["num_simulations"]
            )
        assert resumed.names == ["mlp", "lenet"]
        assert diff_reports(first, resumed.filter(model="mlp")).max_regression == 0

    def test_resume_everything_simulates_nothing(self):
        with Session(SessionConfig()) as session:
            first = session.sweep(_plan())
        with Session(SessionConfig()) as session:
            again = session.sweep(_plan(), resume=first)
            assert session.counters()["num_simulations"] == 0
        assert again.counters["resumed_scenarios"] == 1

    def test_progress_events_and_cancellation(self):
        events = []

        def progress(event):
            events.append(event)
            if event["event"] == "scenario":
                raise SweepCancelled("stop here")

        with Session(SessionConfig()) as session:
            with pytest.raises(SweepCancelled) as excinfo:
                session.sweep(_plan(models=["mlp", "lenet"]),
                              progress=progress)
        partial = excinfo.value.partial
        assert partial is not None and len(partial.scenarios) == 1
        assert partial.counters.get("cancelled") is True
        assert [e["event"] for e in events][:2] == ["start", "plan"]
        # The partial is resumable: only the missing scenario re-runs.
        with Session(SessionConfig()) as session:
            finished = session.sweep(
                _plan(models=["mlp", "lenet"]), resume=partial
            )
        assert finished.counters["resumed_scenarios"] == 1
        assert finished.names == ["mlp", "lenet"]

    def _resume_on(self, session_kwargs):
        """Sweep lenet on a default session, then resume that archive
        on a session built with ``session_kwargs``; returns the
        (archive, resumed, fresh) reports, the last two on the second
        session's hardware."""
        plan = _plan(models=["lenet"])
        with Session(SessionConfig()) as session:
            archive = session.sweep(plan)
        with Session(SessionConfig(), **session_kwargs) as session:
            resumed = session.sweep(plan, resume=archive)
        with Session(SessionConfig(), **session_kwargs) as session:
            fresh = session.sweep(plan)
        return archive, resumed, fresh

    @staticmethod
    def _cycles(report):
        return sum(s.cycles for s in report.scenarios[0].report.layer_stats)

    def test_resume_under_custom_params_resimulates(self):
        from dataclasses import replace

        from repro.stonne.params import DEFAULT_PARAMS

        params = replace(
            DEFAULT_PARAMS, config_cycles=DEFAULT_PARAMS.config_cycles + 10_000
        )
        archive, resumed, fresh = self._resume_on({"params": params})
        assert "resumed_scenarios" not in resumed.counters
        assert self._cycles(resumed) == self._cycles(fresh)
        assert self._cycles(resumed) != self._cycles(archive)

    def test_resume_on_hand_built_config_resimulates(self):
        from repro.stonne import maeri_config

        hand_built = maeri_config(ms_size=32, dn_bw=8, rn_bw=8)
        archive, resumed, fresh = self._resume_on(
            {"simulator_config": hand_built}
        )
        assert "resumed_scenarios" not in resumed.counters
        assert self._cycles(resumed) == self._cycles(fresh)
        assert self._cycles(resumed) != self._cycles(archive)

    @pytest.mark.parametrize(
        "arch, knob, values",
        [("maeri", "sparsity_ratio", [0.0, 0.5]),
         ("tpu", "ms_size", [128, 64])],
    )
    def test_knobs_the_hardware_ignores_hash_equal(self, arch, knob, values):
        """Two cells that resolve to the same hardware hash equal, so
        one resumes the other."""
        plan = SweepPlan.matrix(
            SessionConfig.resolve(env=False, arch=arch),
            models=["mlp"],
            axes={knob: values},
        )
        with Session(SessionConfig()) as session:
            report = session.sweep(plan)
        first, second = (s.config_hash for s in report.scenarios)
        assert first == second
        second_only = SweepPlan.matrix(
            SessionConfig.resolve(env=False, arch=arch),
            models=["mlp"],
            axes={knob: values[1:]},
        )
        with Session(SessionConfig()) as session:
            resumed = session.sweep(
                second_only, resume=SweepReport(scenarios=report.scenarios[:1])
            )
        assert resumed.counters["resumed_scenarios"] == 1


# ----------------------------------------------------------------------
# job queue state machine
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_submit_list_get_in_order(self):
        queue = JobQueue()
        first = queue.submit(_plan())
        second = queue.submit(_plan(), label="two")
        assert [job.id for job in queue.list()] == [first.id, second.id]
        assert queue.get(second.id).label == "two"
        with pytest.raises(ServeError):
            queue.get("job-9999")

    def test_next_job_claims_fifo_and_marks_running(self):
        queue = JobQueue()
        first = queue.submit(_plan())
        queue.submit(_plan())
        claimed = queue.next_job(timeout=0)
        assert claimed is first and claimed.state == "running"
        assert queue.next_job(timeout=0).state == "running"
        assert queue.next_job(timeout=0) is None

    def test_fifo_across_interleaved_submits_and_cancels(self):
        queue = JobQueue()
        jobs = [queue.submit(_plan()) for _ in range(3)]
        queue.cancel(jobs[0].id)
        jobs.append(queue.submit(_plan()))
        queue.cancel(jobs[2].id)
        assert queue.next_job(timeout=0) is jobs[1]
        jobs.append(queue.submit(_plan()))
        queue.cancel(jobs[4].id)
        jobs.append(queue.submit(_plan()))
        claimed = [queue.next_job(timeout=0) for _ in range(3)]
        assert claimed == [jobs[3], jobs[5], None]
        assert [job.id for job in queue.list()] == [job.id for job in jobs]

    def test_unknown_job_error_does_not_list_every_id(self):
        queue = JobQueue()
        for _ in range(3):
            queue.submit(_plan())
        with pytest.raises(ServeError, match="unknown job") as info:
            queue.get("job-9999")
        assert "job-0001" not in str(info.value)

    def test_cancel_queued_is_immediate(self):
        queue = JobQueue()
        job = queue.submit(_plan())
        queue.cancel(job.id)
        assert job.state == "cancelled" and job.terminal
        assert queue.next_job(timeout=0) is None

    def test_cancel_running_flips_flag_only(self):
        queue = JobQueue()
        job = queue.submit(_plan())
        queue.next_job(timeout=0)
        queue.cancel(job.id)
        assert job.state == "running" and job.cancel_event.is_set()
        queue.finish(job, "cancelled")
        with pytest.raises(ServeError):
            queue.cancel(job.id)

    def test_subscribers_get_events_then_sentinel(self):
        queue = JobQueue()
        job = queue.submit(_plan())
        events = queue.subscribe(job.id)
        queue.publish(job, {"event": "scenario", "completed": 1})
        queue.finish(job, "done")
        assert events.get(timeout=1)["completed"] == 1
        assert events.get(timeout=1) is None
        # Subscribing to a terminal job yields the sentinel immediately.
        assert queue.subscribe(job.id).get(timeout=1) is None

    def test_finish_requires_terminal_state(self):
        queue = JobQueue()
        job = queue.submit(_plan())
        with pytest.raises(ServeError):
            queue.finish(job, "running")

    def test_terminal_jobs_drop_plan_and_resume_but_keep_the_count(self):
        queue = JobQueue()
        finished = queue.submit(
            _plan(models=("mlp", "lenet")), resume=object()
        )
        cancelled = queue.submit(_plan(), resume=object())
        before = [finished.describe()["scenarios"],
                  cancelled.describe()["scenarios"]]
        assert before == [2, 1]
        queue.next_job(timeout=0)
        queue.finish(finished, "done")
        queue.cancel(cancelled.id)
        for job in (finished, cancelled):
            assert job.plan is None and job.resume is None
        assert [finished.describe()["scenarios"],
                cancelled.describe()["scenarios"]] == before



def _run_to_done(queue, count):
    """Submit and finish ``count`` jobs; returns them in order."""
    jobs = []
    for _ in range(count):
        job = queue.submit(_plan())
        assert queue.next_job(timeout=0) is job
        queue.finish(job, "done", archive=f"{job.id}.json")
        jobs.append(job)
    return jobs


class TestJobHistory:
    @pytest.fixture(autouse=True)
    def short_history(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "JOB_HISTORY", 2)

    def test_keeps_the_newest_terminal_jobs(self):
        queue = JobQueue()
        jobs = _run_to_done(queue, 5)
        assert [job.id for job in queue.list()] == [jobs[3].id, jobs[4].id]
        with pytest.raises(ServeError, match="aged out"):
            queue.get(jobs[0].id)
        with pytest.raises(ServeError, match="unknown job"):
            queue.get("job-0099")
        with pytest.raises(ServeError, match="unknown job"):
            queue.get("nonsense")

    def test_queued_and_running_jobs_are_never_dropped(self):
        queue = JobQueue()
        running = queue.submit(_plan())
        assert queue.next_job(timeout=0) is running
        queued = queue.submit(_plan())
        cancelled = []
        for _ in range(4):
            job = queue.submit(_plan())
            cancelled.append(job)
            queue.cancel(job.id)  # queued -> terminal at once
        kept = [job.id for job in queue.list()]
        assert kept == [running.id, queued.id] + [
            job.id for job in cancelled[-2:]
        ]
        assert running.state == "running" and queued.state == "queued"
        # The cancelled jobs that aged out are never dispatched.
        queue.finish(running, "done")
        assert queue.next_job(timeout=0) is queued
        assert queue.next_job(timeout=0) is None

    def test_a_watched_job_waits_for_its_watcher(self):
        queue = JobQueue()
        watched = queue.submit(_plan())
        events = queue.subscribe(watched.id)
        queue.next_job(timeout=0)
        queue.finish(watched, "done")
        later = _run_to_done(queue, 3)
        # The oldest terminal job still has a watcher: nothing ages out.
        assert queue.get(watched.id) is watched
        assert len(queue.list()) == 4
        assert events.get(timeout=1) is None
        queue.unsubscribe(watched.id, events)
        assert [job.id for job in queue.list()] == [
            later[1].id, later[2].id
        ]
        with pytest.raises(ServeError, match="aged out"):
            queue.get(watched.id)
        queue.unsubscribe(watched.id, events)  # an aged-out id is a no-op

    def test_service_result_of_an_aged_out_job_keeps_its_archive(
        self, tmp_path
    ):
        svc = SweepService(
            ("127.0.0.1", 0), config=SessionConfig(),
            archive_dir=str(tmp_path / "archive"),
        )
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        try:
            with ServeClient(svc.address) as client:
                finals = []
                for _ in range(3):
                    job = client.submit(_plan())
                    finals.append(client.wait(job["id"], timeout=120))
                with pytest.raises(ServeError, match="aged out"):
                    client.result(finals[0]["id"])
                with pytest.raises(ServeError, match="aged out"):
                    client.status(finals[0]["id"])
                assert client.result(finals[2]["id"]).scenarios
                assert client.ping()
        finally:
            svc.close()
        assert Path(finals[0]["archive"]).exists()


# ----------------------------------------------------------------------
# live service
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    svc = SweepService(
        ("127.0.0.1", 0),
        config=SessionConfig(),
        archive_dir=str(tmp_path / "archive"),
    )
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.close()


class TestServeService:
    def test_submit_wait_result_matches_local_sweep(self, service):
        with ServeClient(service.address) as client:
            job = client.submit(_plan(models=["mlp", "lenet"]))
            assert job["state"] in ("queued", "running")
            final = client.wait(job["id"], timeout=120)
            assert final["state"] == "done"
            served = client.result(job["id"])
        with Session(SessionConfig()) as session:
            local = session.sweep(_plan(models=["mlp", "lenet"]))
        # Bit-identical measurement: every scenario's per-layer stats
        # match the local run exactly, and the typed diff is all-zero.
        for name in local.names:
            assert [s.to_dict() for s in served[name].layer_stats] == [
                s.to_dict() for s in local[name].layer_stats
            ]
        diff = diff_reports(local, served)
        assert diff.max_regression == 0 and not diff.only_before

    def test_concurrent_clients_share_the_cache(self, service):
        """Two clients, overlapping matrices: the overlap simulates once."""
        reports = {}

        def run_client(tag, models):
            with ServeClient(service.address) as client:
                job = client.submit(_plan(models=models), label=tag)
                client.wait(job["id"], timeout=120)
                reports[tag] = client.result(job["id"])

        first = threading.Thread(
            target=run_client, args=("one", ["mlp", "lenet"])
        )
        second = threading.Thread(target=run_client, args=("two", ["mlp"]))
        first.start(); second.start()
        first.join(120); second.join(120)
        assert set(reports) == {"one", "two"}
        sims = [
            reports[tag].counters["num_simulations"] for tag in ("one", "two")
        ]
        # Jobs run sequentially against one shared cache: between them
        # the distinct layers simulate exactly once — whichever job ran
        # second scored its overlap as pure cache hits.
        with Session(SessionConfig()) as session:
            solo = session.sweep(_plan(models=["mlp", "lenet"]))
        assert sum(sims) == solo.counters["num_simulations"]
        assert min(sims) < solo.counters["num_simulations"]

    def test_watch_streams_scenario_events(self, service):
        release_once_watched = _hold_next_job(service)
        with ServeClient(service.address) as client:
            job = client.submit(_plan())
            release_once_watched(job["id"])
            events = []
            final = client.watch(job["id"], callback=events.append)
        assert final["state"] == "done"
        kinds = [event.get("event") for event in events]
        assert "scenario" in kinds and kinds[-1] == "done"

    def test_status_reports_scenarios_after_the_plan_is_dropped(
        self, service, capsys
    ):
        from repro.cli import main

        with ServeClient(service.address) as client:
            job = client.submit(_plan(models=["mlp", "lenet"]))
            final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        assert job["scenarios"] == final["scenarios"] == 2
        record = service.jobs.get(job["id"])
        assert record.plan is None and record.resume is None
        assert main(["status", job["id"], "--connect", service.address]) == 0
        assert "2/2 scenarios" in capsys.readouterr().out

    def test_cancel_lands_terminal(self, service):
        with ServeClient(service.address) as client:
            blocker = client.submit(_plan(models=["mlp", "lenet"]))
            victim = client.submit(_plan(models=["alexnet"]))
            cancelled = client.cancel(victim["id"])
            assert cancelled["state"] in ("queued", "running", "cancelled")
            final = client.wait(victim["id"], timeout=120)
            assert final["state"] == "cancelled"
            client.wait(blocker["id"], timeout=120)
            with pytest.raises(ServeError):
                client.result(victim["id"])

    def test_submit_with_resume_skips_matched_scenarios(self, service):
        with ServeClient(service.address) as client:
            job = client.submit(_plan())
            client.wait(job["id"], timeout=120)
            archive = client.result(job["id"])
            resumed = client.submit(
                _plan(models=["mlp", "lenet"]), resume=archive
            )
            client.wait(resumed["id"], timeout=120)
            report = client.result(resumed["id"])
        assert report.counters["resumed_scenarios"] == 1
        assert report.names == ["mlp", "lenet"]

    def test_archive_dir_holds_diffable_json(self, service):
        with ServeClient(service.address) as client:
            job = client.submit(_plan())
            final = client.wait(job["id"], timeout=120)
        path = Path(final["archive"])
        assert path.is_file() and path.suffix == ".json"
        archived = SweepReport.from_dict(json.loads(path.read_text()))
        assert archived.names == ["mlp"]
        assert diff_reports(archived, archived).max_regression == 0

    def test_resume_reads_indented_and_compact_archives_alike(
        self, service, tmp_path
    ):
        """Archives written before they went compact (``to_json()``'s
        indent) and the daemon's one-line archives resume and diff the
        same."""
        plan = _plan(models=["mlp", "lenet"])
        with ServeClient(service.address) as client:
            job = client.submit(plan)
            final = client.wait(job["id"], timeout=120)
        text = Path(final["archive"]).read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        compact = load_report(final["archive"])
        indented_path = tmp_path / "indented.json"
        indented_path.write_text(compact.to_json() + "\n")
        indented = load_report(indented_path)
        splits = [
            split_resume(plan, _hashes(plan), archive)
            for archive in (indented, compact)
        ]
        for pending, reused in splits:
            assert not pending and list(reused) == ["mlp", "lenet"]
        assert {k: v.to_dict() for k, v in splits[0][1].items()} == {
            k: v.to_dict() for k, v in splits[1][1].items()
        }
        assert diff_reports(indented, compact).is_zero

    def test_torn_archive_is_a_typed_error_and_keeps_the_client(
        self, service
    ):
        """``job_result`` sends the archive's bytes unparsed, so a torn
        archive reaches the client as a frame it cannot decode: a typed
        error within the timeout, after which the client still works."""
        with ServeClient(service.address, timeout=10) as client:
            job = client.submit(_plan())
            final = client.wait(job["id"], timeout=120)
            path = Path(final["archive"])
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
            started = time.monotonic()
            with pytest.raises(ReproError):
                client.result(job["id"])
            assert time.monotonic() - started < 10
            assert client.ping()

    def test_missing_archive_is_a_typed_error_naming_job_and_path(
        self, service, capsys
    ):
        with ServeClient(service.address) as client:
            job = client.submit(_plan())
            final = client.wait(job["id"], timeout=120)
            os.remove(final["archive"])
            with pytest.raises(ServeError) as info:
                client.result(job["id"])
            assert job["id"] in str(info.value)
            assert final["archive"] in str(info.value)
            assert client.ping()
        assert "Traceback" not in capsys.readouterr().err

    def test_identical_jobs_archive_identical_bytes(self, service):
        """A job on the engines and mapping memos an earlier job left in
        the session archives the same bytes as the one before it."""
        plan = _plan(models=["mlp", "lenet"], ms_size=[64, 128])
        with ServeClient(service.address) as client:
            finals = []
            for _ in range(3):
                job = client.submit(plan)
                finals.append(client.wait(job["id"], timeout=120))
        # The first job simulates; the next two are fully warm.
        warm = [Path(final["archive"]).read_bytes() for final in finals[1:]]
        assert warm[0] == warm[1]
        assert json.loads(warm[0])["counters"]["num_simulations"] == 0

    def test_unknown_job_is_an_error_frame_not_a_hangup(self, service):
        with ServeClient(service.address) as client:
            with pytest.raises(ServeError, match="unknown job"):
                client.status("job-9999")
            assert client.ping()  # connection survived the refusal

    def test_submit_frames_never_carry_the_secret(self):
        """The wire form of a plan holds only result-determining config
        sections — in particular no fleet section, whose secret in a
        plaintext frame would hand authentication to any observer."""
        config = SessionConfig.resolve(
            env=False,
            fleet_secret="hunter2",
            cache_path="private.sqlite",
            workers="hostA:9461",
        )
        plan = SweepPlan.matrix(config, models=["mlp"])
        wire = protocol.plan_to_wire(plan)
        blob = json.dumps(wire)
        assert "hunter2" not in blob
        assert "secret" not in blob
        assert "fleet" not in blob
        # The reduced form still round-trips to the same resume hash.
        rebuilt = protocol.plan_from_wire(wire)
        assert _fingerprint(rebuilt.scenarios[0]) == (
            _fingerprint(plan.scenarios[0])
        )

    def test_dead_watcher_unsubscribes_mid_job(self, tmp_path, monkeypatch):
        """A watcher that hangs up while its job is still running must
        be unsubscribed promptly, not pinned (buffering every progress
        event) until the job lands."""
        from repro.session.session import Session as RealSession
        from repro.sweep.report import SweepReport as Report

        release = threading.Event()

        def slow_sweep(self, plan, progress=None, resume=None):
            release.wait(30)
            return Report(scenarios=[], counters={})

        monkeypatch.setattr(RealSession, "sweep", slow_sweep)
        svc = SweepService(
            ("127.0.0.1", 0),
            config=SessionConfig(),
            archive_dir=str(tmp_path / "archive"),
        )
        threading.Thread(target=svc.serve_forever, daemon=True).start()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", svc.port), timeout=5
            )
            assert protocol.recv_message(sock)["type"] == "hello"
            protocol.send_message(
                sock,
                protocol.submit_message(protocol.plan_to_wire(_plan())),
            )
            job_id = protocol.recv_message(sock)["job"]["id"]
            protocol.send_message(
                sock, protocol.job_request_message("job_watch", job_id)
            )
            deadline = time.monotonic() + 5
            while not svc.jobs.get(job_id).subscribers:
                assert time.monotonic() < deadline, "watch never attached"
                time.sleep(0.05)
            sock.close()  # watcher vanishes mid-job
            deadline = time.monotonic() + 10
            while svc.jobs.get(job_id).subscribers:
                assert time.monotonic() < deadline, (
                    "dead watcher still subscribed"
                )
                time.sleep(0.05)
            # The probe, not job completion, did the cleanup.
            assert svc.jobs.get(job_id).state == "running"
        finally:
            release.set()
            svc.close()

    def test_plans_with_targets_are_refused(self, service):
        from repro.stonne.layer import ConvLayer

        layer = ConvLayer("c", C=4, H=8, W=8, K=4, R=3, S=3)
        plan = SweepPlan.single(SessionConfig(), kind="tune", target=layer)
        with pytest.raises(protocol.ProtocolError, match="bare layer"):
            protocol.plan_to_wire(plan)


# ----------------------------------------------------------------------
# protocol edge cases on a live daemon (both daemons share one skeleton)
# ----------------------------------------------------------------------
def _raw(daemon):
    sock = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
    hello = protocol.recv_message(sock)
    assert hello["type"] == "hello"
    return sock


class _DaemonEdgeCases:
    """Edge cases of the shared daemon skeleton.  Each subclass runs
    them against one daemon through its ``daemon`` and ``malformed``
    fixtures and its ``assert_serving`` check."""

    def test_oversized_frame_drops_only_that_connection(self, daemon):
        bad = _raw(daemon)
        bad.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        bad.sendall(b"x" * 64)
        # The daemon refuses the frame and hangs up on this connection.
        try:
            reply = protocol.recv_message(bad)
        except (protocol.ProtocolError, OSError):
            reply = None
        assert reply is None
        bad.close()
        self.assert_serving(daemon)

    def test_mid_frame_disconnect_leaves_daemon_serving(self, daemon):
        half = _raw(daemon)
        frame = protocol.encode_frame({"type": "job_list"})
        half.sendall(frame[: len(frame) // 2])
        half.close()  # vanish mid-frame
        self.assert_serving(daemon)

    def test_unknown_message_type_gets_error_frame(self, daemon):
        sock = _raw(daemon)
        protocol.send_message(sock, {"type": "make_coffee"})
        reply = protocol.recv_message(sock)
        assert reply["type"] == "error"
        assert "make_coffee" in reply["error"]
        sock.close()

    def test_malformed_request_gets_error_frame_and_keeps_the_line(
        self, daemon, malformed
    ):
        sock = _raw(daemon)
        protocol.send_message(sock, malformed)
        reply = protocol.recv_message(sock)
        assert reply["type"] == "error"
        assert reply["error_type"] == "AttributeError"
        # The same connection still answers.
        protocol.send_message(sock, {"type": "ping"})
        assert protocol.recv_message(sock)["type"] == "pong"
        sock.close()


class TestProtocolEdges(_DaemonEdgeCases):
    @pytest.fixture
    def daemon(self, service):
        return service

    @pytest.fixture
    def malformed(self):
        return {"type": "submit_sweep", "plan": 5}

    def assert_serving(self, daemon):
        with ServeClient(daemon.address) as client:
            assert client.ping()
            assert client.jobs() == []

    def test_interleaved_clients_are_isolated(self, service):
        with ServeClient(service.address) as one, ServeClient(
            service.address
        ) as two:
            job = one.submit(_plan(), label="mine")
            # Interleave requests from both connections against the
            # shared queue; each connection's replies stay its own.
            assert two.status(job["id"])["label"] == "mine"
            with pytest.raises(ServeError):
                two.status("job-0042")
            assert one.status(job["id"])["id"] == job["id"]
            assert [j["id"] for j in two.jobs()] == [job["id"]]
            one.wait(job["id"], timeout=120)
            assert two.status(job["id"])["state"] == "done"


class TestWorkerProtocolEdges(_DaemonEdgeCases):
    @pytest.fixture
    def daemon(self):
        worker, _ = start_worker()
        yield worker
        worker.close()

    @pytest.fixture
    def malformed(self):
        from repro.engine import EvaluationEngine
        from repro.stonne.config import maeri_config

        spec = protocol.engine_spec(EvaluationEngine(maeri_config()))
        return {"type": "evaluate_batch", "spec": spec, "items": [1]}

    def assert_serving(self, daemon):
        with DaemonLink(daemon.address) as link:
            assert link.request({"type": "ping"})["type"] == "pong"


# ----------------------------------------------------------------------
# failed handshakes
# ----------------------------------------------------------------------
@pytest.fixture
def silent_listener():
    """An address that accepts connections but never says hello."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    yield f"127.0.0.1:{listener.getsockname()[1]}"
    listener.close()


def _without_unclosed_sockets(call):
    gc.collect()  # earlier tests' garbage is not this call's leak
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]
    return result


class TestHandshakeFailure:
    def test_remote_backend_closes_socket_on_hello_timeout(
        self, silent_listener
    ):
        backend = RemoteBackend(workers=[silent_listener], shard_timeout=0.3)
        status = _without_unclosed_sockets(backend.ping)
        assert status == {silent_listener: False}

    def test_serve_client_closes_socket_on_hello_timeout(
        self, silent_listener
    ):
        client = ServeClient(silent_listener, timeout=0.3)
        assert _without_unclosed_sockets(client.ping) is False


# ----------------------------------------------------------------------
# shared-secret auth
# ----------------------------------------------------------------------
class _SecuredDaemonCases:
    """Accept, wrong-secret and missing-secret handshakes against one
    daemon secured with ``s3cret`` (the subclass's ``secured`` fixture)."""

    def test_accepts_matching_secret(self, secured):
        with DaemonLink(secured.address, secret="s3cret") as link:
            assert link.connect() is not None
            assert link.request({"type": "ping"})["type"] == "pong"

    def test_rejects_wrong_and_missing_secret(self, secured):
        wrong = DaemonLink(secured.address, secret="nope")
        with pytest.raises(protocol.ProtocolError, match="rejected"):
            wrong.connect()
        missing = DaemonLink(secured.address)
        with pytest.raises(protocol.ProtocolError, match="requires"):
            missing.connect()
        # No state was built for the refused connections.
        self.assert_untouched(secured)


class TestWorkerAuth(_SecuredDaemonCases):
    @pytest.fixture
    def secured(self):
        worker = FleetWorker(("127.0.0.1", 0), secret="s3cret")
        thread = threading.Thread(target=worker.serve_forever, daemon=True)
        thread.start()
        yield worker
        worker.close()

    def assert_untouched(self, worker):
        assert worker.batches_served == 0
        assert not worker._engines


class TestServiceAuth(_SecuredDaemonCases):
    @pytest.fixture
    def secured(self, tmp_path):
        svc = SweepService(
            ("127.0.0.1", 0),
            config=SessionConfig(),
            archive_dir=str(tmp_path),
            secret="s3cret",
        )
        threading.Thread(target=svc.serve_forever, daemon=True).start()
        yield svc
        svc.close()

    def assert_untouched(self, service):
        assert not service.jobs.list()


class TestAuth:
    def test_digest_round_trip_and_mismatch(self):
        nonce = protocol.make_nonce()
        message = protocol.auth_message("hunter2", nonce)
        assert protocol.verify_auth("hunter2", nonce, message)
        assert not protocol.verify_auth("hunter3", nonce, message)
        assert not protocol.verify_auth("hunter2", protocol.make_nonce(),
                                        message)
        assert not protocol.verify_auth("hunter2", nonce, {"type": "auth"})

    def test_config_carries_fleet_secret(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_SECRET", "from-env")
        assert SessionConfig.resolve().fleet.secret == "from-env"
        monkeypatch.delenv("REPRO_FLEET_SECRET")
        assert SessionConfig.resolve(fleet_secret="direct").fleet.secret == (
            "direct"
        )

    def test_unsecured_worker_ignores_client_secret(self):
        worker, _ = start_worker()
        try:
            link = DaemonLink(worker.address, secret="anything")
            assert link.connect() is not None
            link.close()
        finally:
            worker.close()

    def test_service_enforces_secret(self, tmp_path):
        svc = SweepService(
            ("127.0.0.1", 0),
            config=SessionConfig(),
            archive_dir=str(tmp_path),
            secret="s3cret",
        )
        threading.Thread(target=svc.serve_forever, daemon=True).start()
        try:
            with pytest.raises(protocol.ProtocolError, match="rejected"):
                ServeClient(svc.address, secret="wrong").jobs()
            with pytest.raises(protocol.ProtocolError, match="requires"):
                ServeClient(svc.address).jobs()
            assert not svc.jobs.list()  # refused hellos changed nothing
            with ServeClient(svc.address, secret="s3cret") as client:
                assert client.ping()
        finally:
            svc.close()

    def test_every_client_verb_resolves_config_file_secret(
        self, tmp_path, capsys
    ):
        """A secret configured via fleet.secret in a --config file (not
        the environment) must authenticate jobs/status/result/cancel the
        same way it authenticates submit."""
        from repro.cli import main

        svc = SweepService(
            ("127.0.0.1", 0),
            config=SessionConfig(),
            archive_dir=str(tmp_path),
            secret="cfg-secret",
        )
        threading.Thread(target=svc.serve_forever, daemon=True).start()
        cfg = tmp_path / "client.toml"
        cfg.write_text('[fleet]\nsecret = "cfg-secret"\n')
        try:
            assert main(
                ["jobs", "--connect", svc.address, "--config", str(cfg)]
            ) == 0
            # The other verbs authenticate too: they get past the
            # handshake and are refused only for the unknown job id.
            for verb in ("status", "result", "cancel"):
                assert main(
                    [verb, "job-9999", "--connect", svc.address,
                     "--config", str(cfg)]
                ) == 1
                assert "unknown job" in capsys.readouterr().err
            # Without the config file there is no secret to present.
            assert main(["jobs", "--connect", svc.address]) == 1
            assert "requires a shared secret" in capsys.readouterr().err
        finally:
            svc.close()

    def test_service_secret_defaults_from_config(self, tmp_path):
        config = SessionConfig.resolve(fleet_secret="cfg-secret")
        svc = SweepService(
            ("127.0.0.1", 0), config=config, archive_dir=str(tmp_path)
        )
        try:
            assert svc.secret == "cfg-secret"
        finally:
            svc.close()


# ----------------------------------------------------------------------
# graceful shutdown (subprocess daemons)
# ----------------------------------------------------------------------
_BANNER = re.compile(r"listening on (\S+)")


def _spawn(*argv):
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    banner = process.stdout.readline()
    match = _BANNER.search(banner)
    assert match, f"no banner: {banner!r}"
    return process, match.group(1)


class TestGracefulShutdown:
    def test_worker_sigterm_exits_zero(self):
        process, address = _spawn("worker", "--listen", "127.0.0.1:0")
        try:
            # Prove it serves, then ask it to stop.
            host, port = address.rsplit(":", 1)
            sock = socket.create_connection((host, int(port)), timeout=5)
            assert protocol.recv_message(sock)["type"] == "hello"
            protocol.send_message(sock, {"type": "ping"})
            assert protocol.recv_message(sock)["type"] == "pong"
            sock.close()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()

    def test_serve_sigterm_exits_zero(self, tmp_path):
        process, address = _spawn(
            "serve", "--listen", "127.0.0.1:0",
            "--archive-dir", str(tmp_path / "archive"),
        )
        try:
            with ServeClient(address) as client:
                assert client.ping()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()


# ----------------------------------------------------------------------
# watch reconnect
# ----------------------------------------------------------------------
class TestWatchReconnect:
    def test_mid_stream_drop_resumes_with_a_notice(self, service, capsys):
        """Killing the transport mid-watch must not kill the stream: the
        client reconnects, resubscribes by job id, and still returns the
        job's final state — with a one-line stderr notice, no traceback."""
        dropped = []
        release_once_watched = _hold_next_job(service)

        with ServeClient(service.address) as client:
            job = client.submit(_plan(models=["mlp", "lenet", "alexnet"]))
            release_once_watched(job["id"])

            def sabotage_once(event):
                # The callback runs inside the watch loop, so shutting
                # the socket down here is a deterministic mid-stream drop.
                if not dropped:
                    dropped.append(event)
                    client.link.drop()

            final = client.watch(job["id"], callback=sabotage_once,
                                 backoff_s=0.01)
        assert dropped, "watch never streamed an event to sabotage"
        assert final["state"] == "done"
        err = capsys.readouterr().err
        assert "reconnecting in" in err
        assert "Traceback" not in err

    def test_terminal_job_replayed_after_drop(self, service, capsys):
        """A job that finished during the outage is still reported —
        the service replays terminal state on resubscribe."""
        with ServeClient(service.address) as client:
            job = client.submit(_plan())
            client.wait(job["id"], timeout=120)

            original_recv = client.link.recv
            failed = []

            def recv_flaky():
                if not failed:
                    failed.append(True)
                    client.link.drop()
                    raise protocol.ProtocolError("synthetic drop")
                return original_recv()

            client.link.recv = recv_flaky
            final = client.watch(job["id"], backoff_s=0.01)
        assert failed and final["state"] == "done"
        assert "reconnecting in" in capsys.readouterr().err

    def test_server_refusals_are_never_retried(self, service, capsys):
        with ServeClient(service.address) as client:
            start = time.monotonic()
            with pytest.raises(ServeError):
                client.watch("job-9999", backoff_s=5.0)
        # No backoff sleep happened: the refusal surfaced immediately.
        assert time.monotonic() - start < 2.0
        assert "reconnecting" not in capsys.readouterr().err

    def test_gives_up_after_max_consecutive_failures(self, monkeypatch):
        # Nothing listens on this address: every connect attempt fails.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        client = ServeClient(f"127.0.0.1:{port}")
        delays = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", delays.append
        )
        with pytest.raises((OSError, protocol.ProtocolError)):
            client.watch("job-0001", max_retries=3, backoff_s=0.5)
        # Exactly max_retries sleeps, exponentially backed off.
        assert delays == [0.5, 1.0, 2.0]
