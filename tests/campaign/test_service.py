"""Core routes of the campaign daemon (stdlib client, ephemeral port).

Submit/status/jobs/result/metrics, their 4xx errors and the drain
worker.  Tenants, streams and backpressure live in
``test_service_v2.py``.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import AsyncCampaignService


def raw_request(address: tuple[str, int], payload: bytes) -> bytes:
    """Send raw bytes over a fresh socket, return whatever comes back."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        sock.settimeout(10)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except TimeoutError:
            pass
        return b"".join(chunks)


def http(url: str, body: dict | None = None) -> tuple[int, dict]:
    """GET (body None) or POST json; returns (status, payload) incl. 4xx."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


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
        tmp_path / "campaign.db", workers=1, poll_interval=0.05
    ).start()
    yield svc
    svc.stop()


class TestRoutes:
    def test_healthz(self, service):
        code, body = http(service.url + "/healthz")
        assert code == 200 and body["ok"] is True

    def test_status_reports_queue(self, service):
        http(service.url + "/submit", {"specs": [SPEC]})
        code, body = http(service.url + "/status")
        assert code == 200
        assert body["jobs"]["pending"] == 1
        assert body["queue_depth"] == 1
        assert body["workers"] == []

    def test_submit_specs_idempotent(self, service):
        code, body = http(service.url + "/submit", {"specs": [SPEC]})
        assert code == 200 and body["submitted"] == 1
        code, body = http(service.url + "/submit", {"specs": [SPEC]})
        assert body["submitted"] == 0 and body["already_known"] == 1

    def test_submit_experiment_grid(self, service):
        code, body = http(
            service.url + "/submit",
            {"experiment": "fig6", "quick": True, "trials": 1},
        )
        assert code == 200
        assert body["submitted"] == len(body["digests"]) > 0

    def test_jobs_listing(self, service):
        _, submitted = http(service.url + "/submit", {"specs": [SPEC]})
        code, body = http(service.url + "/jobs?status=pending")
        assert code == 200
        assert [j["digest"] for j in body["jobs"]] == submitted["digests"]

    def test_result_of_pending_job(self, service):
        _, submitted = http(service.url + "/submit", {"specs": [SPEC]})
        code, body = http(service.url + "/result/" + submitted["digests"][0])
        assert code == 200
        assert body["status"] == "pending" and body["summary"] is None
        assert body["spec"]["n"] == SPEC["n"]


class TestErrors:
    def test_unknown_get_route_404(self, service):
        code, body = http(service.url + "/nope")
        assert code == 404 and "no route" in body["error"]

    def test_unknown_post_route_404(self, service):
        code, _ = http(service.url + "/nope", {})
        assert code == 404

    def test_result_unknown_digest_404(self, service):
        code, body = http(service.url + "/result/deadbeef")
        assert code == 404 and "deadbeef" in body["error"]

    def test_jobs_bad_status_400(self, service):
        code, body = http(service.url + "/jobs?status=sleeping")
        assert code == 400 and "sleeping" in body["error"]

    def test_submit_empty_body_400(self, service):
        code, body = http(service.url + "/submit", {})
        assert code == 400 and "specs" in body["error"]

    def test_submit_invalid_spec_400(self, service):
        code, body = http(
            service.url + "/submit", {"specs": [{**SPEC, "trials": 0}]}
        )
        assert code == 400 and "trials" in body["error"]

    def test_submit_unknown_experiment_400(self, service):
        code, _ = http(service.url + "/submit", {"experiment": "fig99"})
        assert code == 400


class TestWorker:
    def wait_done(self, service, digest, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, body = http(service.url + "/result/" + digest)
            if body["status"] in ("done", "failed"):
                return body
            time.sleep(0.05)
        raise AssertionError("job did not finish in time")

    def test_worker_executes_submitted_job(self, worker_service):
        _, submitted = http(worker_service.url + "/submit", {"specs": [SPEC]})
        body = self.wait_done(worker_service, submitted["digests"][0])
        assert body["status"] == "done"
        assert body["summary"]["trials"] == SPEC["trials"]
        assert body["package_version"]
        assert body["wall_time"] > 0

        _, metrics = http(worker_service.url + "/metrics")
        assert metrics["executed"] == 1
        assert metrics["jobs"]["done"] == 1

    def test_worker_records_failures(self, worker_service):
        bad = {**SPEC, "params": {"k": 3, "bogus": 1}}
        _, submitted = http(worker_service.url + "/submit", {"specs": [bad]})
        body = self.wait_done(worker_service, submitted["digests"][0])
        assert body["status"] == "failed"
        assert "bogus" in body["error"]

    def test_post_execute_failure_does_not_kill_worker(self, worker_service):
        # Regression: an exception from mark_done (after a successful
        # execute) used to propagate out of the worker loop, silently
        # killing the worker and wedging the job in 'running'.
        svc = worker_service
        real_mark_done = svc.store.mark_done
        calls = {"n": 0}

        def flaky_mark_done(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic store hiccup")
            return real_mark_done(*args, **kwargs)

        svc.store.mark_done = flaky_mark_done
        try:
            _, submitted = http(svc.url + "/submit", {"specs": [SPEC]})
            body = self.wait_done(svc, submitted["digests"][0])
            assert body["status"] == "failed"
            assert "result commit failed" in body["error"]
            assert "synthetic store hiccup" in body["error"]
            # The worker survives and still drains subsequent jobs.
            _, status = http(svc.url + "/status")
            assert status["workers_alive"] == 1
            follow_up = {**SPEC, "seed": SPEC["seed"] + 1}
            _, submitted = http(svc.url + "/submit", {"specs": [follow_up]})
            body = self.wait_done(svc, submitted["digests"][0])
            assert body["status"] == "done"
        finally:
            svc.store.mark_done = real_mark_done

    def test_status_exposes_worker_liveness(self, worker_service):
        _, body = http(worker_service.url + "/status")
        deadline = time.monotonic() + 5
        while body["workers_alive"] == 0:
            assert time.monotonic() < deadline, "worker never heartbeat"
            time.sleep(0.05)
            _, body = http(worker_service.url + "/status")
        assert body["workers_alive"] == 1
        assert body["workers"][0]["last_beat_age"] >= 0

    def test_status_worker_alive_false_without_worker(self, service):
        _, body = http(service.url + "/status")
        assert body["workers_alive"] == 0


class TestHTTPRegressions:
    """Fail-on-main regressions for the HTTP parsing sweep."""

    def test_jobs_non_integer_limit_400(self, service):
        # Regression: bare int(query['limit']) raised ValueError in the
        # handler and surfaced as a 500.
        code, body = http(service.url + "/jobs?limit=abc")
        assert code == 400
        assert "limit" in body["error"]

    @pytest.mark.parametrize("limit", ["-5", "0"])
    def test_jobs_non_positive_limit_400(self, service, limit):
        # Regression: negative/zero limits flowed unvalidated into SQL.
        code, body = http(service.url + f"/jobs?limit={limit}")
        assert code == 400

    def test_jobs_valid_limit_applies(self, service):
        specs = [{**SPEC, "seed": s} for s in range(40, 45)]
        http(service.url + "/submit", {"specs": specs})
        code, body = http(service.url + "/jobs?limit=2")
        assert code == 200 and len(body["jobs"]) == 2

    def test_jobs_huge_limit_clamped(self, service):
        code, _ = http(service.url + "/jobs?limit=999999999")
        assert code == 200

    def test_malformed_content_length_gets_400(self, service):
        # Regression: int(self.headers['Content-Length']) raised and the
        # connection dropped with no response bytes at all.
        response = raw_request(
            service.address,
            b"POST /submit HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: banana\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400")
        assert b"Content-Length" in response

    def test_negative_content_length_gets_400(self, service):
        response = raw_request(
            service.address,
            b"POST /submit HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: -7\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400")
