"""Tests for the asyncio campaign daemon.

Covers the submit/status/jobs/result wire format, tenant namespacing,
streaming endpoints, 429 backpressure, the HTTP parsing sweep, the
worker pool's commit path, and a differential proving the daemon's
job records equal a ``campaign run`` drain of the same specs.
"""

from __future__ import annotations

import http.client
import json
import queue
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import (
    AsyncCampaignService,
    CampaignStore,
    JobSpec,
    StoreTrialCache,
    run_campaign,
)

from .test_store import scientific_content


def http_json(url: str, body: dict | None = None) -> tuple[int, dict, dict]:
    """GET (body None) or POST json; returns (status, payload, headers)."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def stream_lines(service, path: str, timeout: float = 30.0) -> list[dict]:
    """Read a finite (``once=1`` or terminal) ndjson stream fully."""
    host, port = service.address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        assert resp.status == 200, resp.read()
        assert resp.getheader("Content-Type") == "application/x-ndjson"
        raw = resp.read().decode()
    finally:
        conn.close()
    return [json.loads(line) for line in raw.splitlines() if line]


SPEC = {
    "protocol": "uniform-k-partition", "params": {"k": 3},
    "n": 9, "trials": 2, "seed": 5,
}


@pytest.fixture()
def service(tmp_path):
    svc = AsyncCampaignService(tmp_path / "campaign.db", workers=0).start()
    yield svc
    svc.stop()


@pytest.fixture()
def worker_service(tmp_path):
    svc = AsyncCampaignService(
        tmp_path / "campaign.db", workers=2, poll_interval=0.02,
        stream_interval=0.02,
    ).start()
    yield svc
    svc.stop()


def wait_done(service, digest, tenant="default", timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body, _ = http_json(
            service.url + f"/result/{digest}?tenant={tenant}"
        )
        if body["status"] in ("done", "failed"):
            return body
        time.sleep(0.05)
    raise AssertionError("job did not finish in time")


class TestRoutes:
    def test_healthz_reports_v2(self, service):
        code, body, _ = http_json(service.url + "/healthz")
        assert code == 200 and body["ok"] is True and body["v"] == 2

    def test_submit_status_jobs_result_parity(self, service):
        code, body, _ = http_json(service.url + "/submit", {"specs": [SPEC]})
        assert code == 200 and body["submitted"] == 1
        digest = body["digests"][0]
        code, body, _ = http_json(service.url + "/submit", {"specs": [SPEC]})
        assert body["submitted"] == 0 and body["already_known"] == 1

        code, body, _ = http_json(service.url + "/status")
        assert code == 200
        assert body["jobs"]["pending"] == 1
        assert body["queue_depth"] == 1
        assert body["queue_limit"] == 256
        assert body["workers"] == [] and body["workers_alive"] == 0

        code, body, _ = http_json(service.url + "/jobs?status=pending")
        assert [j["digest"] for j in body["jobs"]] == [digest]
        assert body["jobs"][0]["tenant"] == "default"

        code, body, _ = http_json(service.url + "/result/" + digest)
        assert code == 200
        assert body["status"] == "pending" and body["summary"] is None
        assert body["spec"]["n"] == SPEC["n"]

    @pytest.mark.parametrize("engine, ran", [
        ("graph", "graph:complete"), ("count", "uniform"),
    ])
    def test_result_says_which_scheduler_ran(self, service, engine, ran):
        spec = {**SPEC, "engine": engine}
        _, body, _ = http_json(service.url + "/submit", {"specs": [spec]})
        code, body, _ = http_json(service.url + "/result/" + body["digests"][0])
        assert code == 200
        assert body["spec"]["scheduler"] == "uniform"
        assert body["ran_scheduler"] == ran

    def test_submit_experiment_grid(self, service):
        code, body, _ = http_json(
            service.url + "/submit",
            {"experiment": "fig6", "quick": True, "trials": 1},
        )
        assert code == 200
        assert body["submitted"] == len(body["digests"]) > 0

    def test_metrics_carries_telemetry(self, service):
        http_json(service.url + "/submit", {"specs": [SPEC]})
        code, body, _ = http_json(service.url + "/metrics")
        assert code == 200
        assert body["submitted"] == 1
        assert body["jobs"]["pending"] == 1
        assert body["queue_limit"] == 256
        assert body["telemetry"]["counters"]["campaign.http.requests"] >= 1

    def test_keep_alive_connection_reuse(self, service):
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):  # several requests over one connection
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()


class TestTenants:
    def test_tenant_scoped_views(self, service):
        http_json(service.url + "/submit", {"specs": [SPEC], "tenant": "alice"})
        http_json(
            service.url + "/submit",
            {"specs": [{**SPEC, "seed": 6}], "tenant": "bob"},
        )
        _, body, _ = http_json(service.url + "/tenants")
        assert body["tenants"] == ["alice", "bob"]
        _, body, _ = http_json(service.url + "/status?tenant=alice")
        assert body["jobs"]["pending"] == 1 and body["tenant"] == "alice"
        _, body, _ = http_json(service.url + "/status")
        assert body["jobs"]["pending"] == 2
        _, body, _ = http_json(service.url + "/jobs?tenant=bob")
        assert [j["tenant"] for j in body["jobs"]] == ["bob"]

    def test_result_is_tenant_scoped(self, service):
        _, body, _ = http_json(
            service.url + "/submit", {"specs": [SPEC], "tenant": "alice"}
        )
        digest = body["digests"][0]
        code, _, _ = http_json(service.url + f"/result/{digest}?tenant=alice")
        assert code == 200
        code, _, _ = http_json(service.url + "/result/" + digest)
        assert code == 404  # default tenant has no such job

    def test_tenant_from_query_param(self, service):
        code, body, _ = http_json(
            service.url + "/submit?tenant=carol", {"specs": [SPEC]}
        )
        assert code == 200 and body["tenant"] == "carol"

    def test_invalid_tenant_400(self, service):
        code, body, _ = http_json(
            service.url + "/submit", {"specs": [SPEC], "tenant": "no spaces"}
        )
        assert code == 400 and "tenant" in body["error"]
        code, _, _ = http_json(service.url + "/status?tenant=no%20spaces")
        assert code == 400


class TestErrors:
    def test_unknown_routes_404(self, service):
        assert http_json(service.url + "/nope")[0] == 404
        assert http_json(service.url + "/nope", {})[0] == 404

    def test_method_not_allowed_405(self, service):
        req = urllib.request.Request(service.url + "/healthz", method="PUT")
        try:
            urllib.request.urlopen(req, timeout=10)
            code = 200
        except urllib.error.HTTPError as exc:
            code = exc.code
        assert code == 405

    def test_jobs_bad_status_400(self, service):
        code, body, _ = http_json(service.url + "/jobs?status=sleeping")
        assert code == 400 and "sleeping" in body["error"]

    def test_jobs_bad_limit_400(self, service):
        assert http_json(service.url + "/jobs?limit=abc")[0] == 400
        assert http_json(service.url + "/jobs?limit=0")[0] == 400
        assert http_json(service.url + "/jobs?limit=-2")[0] == 400

    def test_submit_bad_bodies_400(self, service):
        assert http_json(service.url + "/submit", {})[0] == 400
        code, body, _ = http_json(
            service.url + "/submit", {"specs": [{**SPEC, "trials": 0}]}
        )
        assert code == 400 and "trials" in body["error"]

    @pytest.mark.parametrize(
        "body, known",
        [
            ({"experiment": "fig3", "quick": True, "engine": "nope"}, "count"),
            ({"experiment": "fig3", "quick": True, "engine": 5}, "count"),
            ({"specs": [{"protocol": "nope", "n": 10, "trials": 2}]},
             "uniform-k-partition"),
        ],
        ids=["engine-name", "engine-int", "protocol"],
    )
    def test_submit_unknown_names_400(self, service, body, known):
        code, payload, _ = http_json(service.url + "/submit", body)
        assert code == 400
        assert "unknown" in payload["error"] and known in payload["error"]
        _, metrics, _ = http_json(service.url + "/metrics")
        assert metrics["jobs"]["pending"] == 0

    def test_bad_json_body_400(self, service):
        req = urllib.request.Request(
            service.url + "/submit", data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            code = 200
        except urllib.error.HTTPError as exc:
            code = exc.code
        assert code == 400

    def test_malformed_content_length_400(self, service):
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(
                b"POST /submit HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            sock.settimeout(10)
            chunks = []
            try:
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            except TimeoutError:
                pass
        response = b"".join(chunks)
        assert response.startswith(b"HTTP/1.1 400")
        assert b"Content-Length" in response

    def test_oversized_headers_431(self, service):
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n"
                + b"X-Junk: " + b"a" * 40_000 + b"\r\n\r\n"
            )
            sock.settimeout(10)
            chunks = []
            try:
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            except TimeoutError:
                pass
        assert b"".join(chunks).startswith(b"HTTP/1.1 431")

    def test_stream_bad_interval_400(self, service):
        code, body, _ = http_json(service.url + "/jobs/stream?interval=soon")
        assert code == 400 and "interval" in body["error"]


class TestBackpressure:
    def test_saturated_queue_gets_429_with_retry_after(self, tmp_path):
        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=0, queue_limit=2, retry_after=3.0
        ).start()
        try:
            for seed in (1, 2):
                code, _, _ = http_json(
                    svc.url + "/submit", {"specs": [{**SPEC, "seed": seed}]}
                )
                assert code == 200
            code, body, headers = http_json(
                svc.url + "/submit", {"specs": [{**SPEC, "seed": 3}]}
            )
            assert code == 429
            assert "saturated" in body["error"]
            assert body["retry_after"] == 3.0
            assert headers.get("Retry-After") == "3"
            # Reads still work while submits are refused.
            assert http_json(svc.url + "/status")[0] == 200
        finally:
            svc.stop()

    def test_draining_clears_backpressure(self, tmp_path):
        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=1, queue_limit=1, poll_interval=0.02
        ).start()
        try:
            code, body, _ = http_json(svc.url + "/submit", {"specs": [SPEC]})
            assert code == 200
            wait_done(svc, body["digests"][0])
            deadline = time.monotonic() + 10
            while True:  # depth decays once the worker commits
                code, _, _ = http_json(
                    svc.url + "/submit", {"specs": [{**SPEC, "seed": 99}]}
                )
                if code == 200:
                    break
                assert code == 429
                assert time.monotonic() < deadline, "429 never cleared"
                time.sleep(0.05)
        finally:
            svc.stop()


class TestWorkerPool:
    def test_executes_submitted_jobs(self, worker_service):
        specs = [{**SPEC, "seed": s} for s in range(3)]
        _, body, _ = http_json(worker_service.url + "/submit", {"specs": specs})
        for digest in body["digests"]:
            result = wait_done(worker_service, digest)
            assert result["status"] == "done"
            assert result["summary"]["trials"] == SPEC["trials"]
            assert result["package_version"]
        _, metrics, _ = http_json(worker_service.url + "/metrics")
        assert metrics["executed"] == 3
        assert metrics["jobs"]["done"] == 3

    def test_drained_job_consults_no_trial_cache(self, tmp_path):
        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=1, poll_interval=0.02
        ).start()
        try:
            _, body, _ = http_json(svc.url + "/submit", {"specs": [SPEC]})
            assert wait_done(svc, body["digests"][0])["status"] == "done"
            counters = svc.telemetry.snapshot()["counters"]
        finally:
            svc.stop()
        assert counters["runner.calls"] == 1
        assert not [name for name in counters if name.startswith("runner.cache.")]

    def test_worker_records_failures(self, worker_service):
        bad = {**SPEC, "params": {"k": 3, "bogus": 1}}
        _, body, _ = http_json(worker_service.url + "/submit", {"specs": [bad]})
        result = wait_done(worker_service, body["digests"][0])
        assert result["status"] == "failed"
        assert "bogus" in result["error"]

    def test_failed_trial_cache_write_never_reports_done(
        self, worker_service, monkeypatch
    ):
        """A failed cache write fails the job before mark_done commits."""
        svc = worker_service

        def disk_full(self, key, record):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(StoreTrialCache, "put", disk_full)
            _, body, _ = http_json(svc.url + "/submit", {"specs": [SPEC]})
            result = wait_done(svc, body["digests"][0])
        assert result["status"] == "failed"
        assert result["summary"] is None
        assert "result commit failed: OSError: disk full" in result["error"]
        _, body, _ = http_json(
            svc.url + "/submit", {"specs": [{**SPEC, "seed": 78}]}
        )
        assert wait_done(svc, body["digests"][0])["status"] == "done"

    def test_post_execute_failure_marks_failed_not_wedged(self, worker_service):
        svc = worker_service
        real_mark_done = svc.store.mark_done
        svc.store.mark_done = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("synthetic store hiccup")
        )
        try:
            _, body, _ = http_json(svc.url + "/submit", {"specs": [SPEC]})
            result = wait_done(svc, body["digests"][0])
            assert result["status"] == "failed"
            assert "result commit failed" in result["error"]
        finally:
            svc.store.mark_done = real_mark_done
        # Workers survive and drain the next job normally.
        _, body, _ = http_json(
            svc.url + "/submit", {"specs": [{**SPEC, "seed": 77}]}
        )
        assert wait_done(svc, body["digests"][0])["status"] == "done"
        _, status, _ = http_json(svc.url + "/status")
        assert status["workers_alive"] == 2

    def test_status_reports_worker_heartbeats(self, worker_service):
        _, body, _ = http_json(worker_service.url + "/status")
        assert len(body["workers"]) == 2
        assert body["workers_alive"] == 2
        for w in body["workers"]:
            assert w["last_beat_age"] is not None

    def test_tenant_jobs_share_the_global_drain(self, worker_service):
        _, body, _ = http_json(
            worker_service.url + "/submit",
            {"specs": [SPEC], "tenant": "alice"},
        )
        result = wait_done(worker_service, body["digests"][0], tenant="alice")
        assert result["status"] == "done" and result["tenant"] == "alice"


class TestStreams:
    def test_jobs_stream_once_snapshots(self, service):
        specs = [{**SPEC, "seed": s} for s in range(3)]
        http_json(service.url + "/submit", {"specs": specs})
        lines = stream_lines(service, "/jobs/stream?once=1")
        assert len(lines) == 3
        assert {line["type"] for line in lines} == {"snapshot"}
        assert {line["status"] for line in lines} == {"pending"}

    def test_jobs_stream_scoped_by_tenant(self, service):
        http_json(service.url + "/submit", {"specs": [SPEC], "tenant": "alice"})
        http_json(
            service.url + "/submit",
            {"specs": [{**SPEC, "seed": 6}], "tenant": "bob"},
        )
        lines = stream_lines(service, "/jobs/stream?once=1&tenant=alice")
        assert [line["tenant"] for line in lines] == ["alice"]

    def test_jobs_stream_emits_status_changes(self, worker_service):
        host, port = worker_service.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/jobs/stream?interval=0.02")
            resp = conn.getresponse()
            assert resp.status == 200
            http_json(worker_service.url + "/submit", {"specs": [SPEC]})
            seen_done = False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not seen_done:
                line = resp.readline()
                if not line.strip():
                    continue
                event = json.loads(line)
                if event["type"] == "status" and event["status"] == "done":
                    seen_done = True
            assert seen_done, "stream never reported the job done"
        finally:
            conn.close()

    def test_progress_stream_follows_to_terminal(self, worker_service):
        _, body, _ = http_json(worker_service.url + "/submit", {"specs": [SPEC]})
        digest = body["digests"][0]
        lines = stream_lines(
            worker_service, f"/jobs/{digest}/progress?interval=0.02"
        )
        assert lines, "empty progress stream"
        last = lines[-1]
        assert last["type"] == "progress"
        assert last["status"] in ("done", "failed")
        assert last["trials"] == SPEC["trials"]
        assert "wall_time" in last

    def test_progress_stream_once(self, service):
        _, body, _ = http_json(service.url + "/submit", {"specs": [SPEC]})
        lines = stream_lines(
            service, f"/jobs/{body['digests'][0]}/progress?once=1"
        )
        assert len(lines) == 1 and lines[0]["status"] == "pending"

    def test_progress_stream_unknown_digest_404(self, service):
        code, _, _ = http_json(service.url + "/jobs/deadbeef/progress")
        assert code == 404


class TestDrainDifferential:
    def test_same_specs_identical_results(self, tmp_path):
        """The daemon's job records equal a ``campaign run`` drain's."""
        specs = [{**SPEC, "seed": s} for s in (11, 12)]
        svc = AsyncCampaignService(
            tmp_path / "daemon.db", workers=2, poll_interval=0.02
        ).start()
        drain = CampaignStore(tmp_path / "drain.db")
        try:
            _, body, _ = http_json(svc.url + "/submit", {"specs": specs})
            drain.submit_many([JobSpec.from_dict(s) for s in specs])
            report = run_campaign(drain)
            assert report.executed == len(specs) and not report.failed
            # Digests hash the spec alone, whichever path submits it.
            assert body["digests"] == [
                JobSpec.from_dict(s).digest for s in specs
            ]
            for digest in body["digests"]:
                result = wait_done(svc, digest)
                drained = drain.get(digest)
                assert result["status"] == drained.status == "done"
                assert result["summary"] == drained.summary
                assert result["spec"] == drained.spec.canonical()
                assert scientific_content(
                    svc.store.result_record(digest)
                ) == scientific_content(drain.result_record(digest))
        finally:
            svc.stop()
            drain.close()

    def test_overlapping_stop_does_not_clobber_live_telemetry(self, tmp_path):
        """Stopping an older service must not displace a newer one's hook."""
        from repro.obs import get_telemetry, set_telemetry

        original = get_telemetry()
        older = AsyncCampaignService(tmp_path / "a.db", workers=0).start()
        newer = AsyncCampaignService(tmp_path / "b.db", workers=0).start()
        try:
            older.stop()  # out of order: the newer telemetry must stay
            assert get_telemetry() is newer.telemetry
        finally:
            newer.stop()
            set_telemetry(original)


class TestWakeups:
    """Submits wake workers and commits wake streams; the timers only
    bound the wait for rows another process writes.

    Each test sets a timer far longer than its deadline, so it passes
    only if a notice, not the timer, ends the wait.
    """

    SLOW = 2.0  # poll_interval / stream interval no test may wait out
    DEADLINE = 0.5

    @staticmethod
    def started(service, digest, timeout):
        """Seconds until ``digest`` leaves ``pending``, or None."""
        t0 = time.monotonic()
        while time.monotonic() - t0 < timeout:
            _, body, _ = http_json(service.url + f"/result/{digest}")
            if body["status"] != "pending":
                return time.monotonic() - t0
            time.sleep(0.005)
        return None

    def test_submit_wakes_an_idle_worker(self, tmp_path):
        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=2, poll_interval=self.SLOW
        ).start()
        try:
            time.sleep(0.2)  # both workers have claimed nothing and wait
            _, body, _ = http_json(svc.url + "/submit", {"specs": [SPEC]})
            waited = self.started(svc, body["digests"][0], self.DEADLINE)
            assert waited is not None, "the submit did not wake a worker"
        finally:
            svc.stop()

    def test_submit_during_an_empty_claim_is_not_lost(self, tmp_path):
        """A submit that commits while a worker's empty claim is still
        in flight is claimed at once, not after ``poll_interval``."""
        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=1, poll_interval=self.SLOW
        ).start()
        real_claim = svc.store.claim_next
        armed = threading.Event()
        held: queue.Queue[threading.Event] = queue.Queue()

        def claim_next(**kwargs):
            job = real_claim(**kwargs)
            if job is None and armed.is_set():
                armed.clear()
                release = threading.Event()
                held.put(release)
                release.wait(10)  # hold the empty answer past the submit
            return job

        svc.store.claim_next = claim_next
        try:
            armed.set()
            for round_ in range(50):
                release = held.get(timeout=10)  # an empty claim in flight
                _, body, _ = http_json(
                    svc.url + "/submit", {"specs": [{**SPEC, "seed": 1000 + round_}]}
                )
                armed.set()  # hold the empty claim that follows this job
                release.set()
                waited = self.started(svc, body["digests"][0], self.DEADLINE)
                assert waited is not None, f"round {round_}: wake-up lost"
                wait_done(svc, body["digests"][0])
        finally:
            armed.clear()
            while not held.empty():
                held.get().set()
            svc.stop()

    def test_commit_wakes_the_progress_stream(self, tmp_path, monkeypatch):
        from repro.campaign import service_v2

        gate = threading.Event()
        real_execute = service_v2.execute_spec

        def gated_execute(spec):
            gate.wait(10)
            return real_execute(spec)

        monkeypatch.setattr(service_v2, "execute_spec", gated_execute)
        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=1, poll_interval=0.02
        ).start()
        host, port = svc.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            _, body, _ = http_json(svc.url + "/submit", {"specs": [SPEC]})
            conn.request(
                "GET", f"/jobs/{body['digests'][0]}/progress?interval={self.SLOW:g}"
            )
            resp = conn.getresponse()
            assert resp.status == 200
            status = None
            while status != "running":  # the worker holds the job at the gate
                status = json.loads(resp.readline())["status"]
            gate.set()
            released = time.monotonic()
            while status not in ("done", "failed"):
                status = json.loads(resp.readline())["status"]
            lag = time.monotonic() - released
            assert status == "done"
            assert lag < self.DEADLINE, f"terminal line {lag:.2f}s after release"
        finally:
            gate.set()
            conn.close()
            svc.stop()

    def test_external_submit_is_picked_up_by_the_timer(self, tmp_path):
        poll = 0.3
        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=1, poll_interval=poll
        ).start()
        outside = CampaignStore(tmp_path / "c.db")
        try:
            time.sleep(0.1)
            digest, created = outside.submit(JobSpec.from_dict(SPEC))
            assert created
            waited = self.started(svc, digest, poll + 1.0)
            assert waited is not None, "the fallback poll never claimed the job"
            assert wait_done(svc, digest)["status"] == "done"
        finally:
            outside.close()
            svc.stop()

    def test_progress_stream_follows_an_external_runner(self, tmp_path):
        """No notice comes from another process; the stream's interval
        still bounds its wait, so it ends on the terminal line."""
        svc = AsyncCampaignService(tmp_path / "c.db", workers=0).start()
        outside = CampaignStore(tmp_path / "c.db")
        host, port = svc.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            _, body, _ = http_json(svc.url + "/submit", {"specs": [SPEC]})
            conn.request("GET", f"/jobs/{body['digests'][0]}/progress?interval=0.05")
            resp = conn.getresponse()
            assert json.loads(resp.readline())["status"] == "pending"
            assert run_campaign(outside).executed == 1
            last = None
            for line in resp.read().decode().splitlines():
                if line:
                    last = json.loads(line)
            assert last["status"] == "done"
        finally:
            conn.close()
            outside.close()
            svc.stop()
