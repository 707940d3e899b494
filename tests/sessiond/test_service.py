"""HTTP daemon tests (stdlib client, ephemeral port)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.sessiond import SessionService


def http(url: str, body: dict | None = None, method: str | None = None):
    """GET (body None) or POST json; returns (status, payload) incl. 4xx."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def service(tmp_path):
    svc = SessionService(
        tmp_path / "sessions.db", port=0, checkpoint_interval=64
    ).start()
    yield svc
    svc.stop()


@pytest.fixture()
def config(driven_config):
    return dict(driven_config)


class TestRoutes:
    def test_healthz(self, service):
        code, body = http(service.url + "/healthz")
        assert code == 200 and body["ok"] is True

    def test_create_and_status(self, service, config):
        code, body = http(service.url + "/sessions", dict(config, id="a"))
        assert code == 200
        assert body["id"] == "a"
        assert body["status"] == "running"
        assert len(body["config_digest"]) == 64
        code, body = http(service.url + "/sessions/a")
        assert code == 200 and body["mode"] == "driven"
        code, listing = http(service.url + "/sessions")
        assert [s["id"] for s in listing["sessions"]] == ["a"]

    def test_advance_fork_rewind_result(self, service, config, schedule):
        http(service.url + "/sessions", dict(config, id="a"))
        code, body = http(service.url + "/sessions/a/advance", {"budget": 128})
        assert code == 200 and body["interactions"] == 128
        code, body = http(service.url + "/sessions/a/fork", {"at": 64, "id": "b"})
        assert code == 200 and body["interactions"] == 64
        assert body["lineage"][-1] == {"id": "b", "forked_at": 64}
        http(service.url + "/sessions/a/advance", {})
        http(service.url + "/sessions/b/advance", {})
        _, ra = http(service.url + "/sessions/a/result")
        _, rb = http(service.url + "/sessions/b/result")
        assert ra == rb
        assert ra["final_counts"] == schedule.final_counts
        code, body = http(service.url + "/sessions/a/rewind", {"at": 64})
        assert code == 200 and body["status"] == "running"

    def test_snapshot_listing(self, service, config):
        http(service.url + "/sessions", dict(config, id="a"))
        http(service.url + "/sessions/a/advance", {"budget": 128})
        code, body = http(service.url + "/sessions/a/snapshots")
        assert code == 200
        assert [s["interactions"] for s in body["snapshots"]] == [0, 64, 128]

    def test_bisect_endpoint(self, service, config, tmp_path):
        http(service.url + "/sessions", dict(config, id="clean"))
        http(
            service.url + "/sessions",
            dict(config, id="mutated", mutate_rule=1),
        )
        code, body = http(
            service.url + "/bisect",
            {"a": "clean", "b": "mutated", "reproducer_dir": str(tmp_path)},
        )
        assert code == 200
        assert isinstance(body["first_divergence"], int)
        assert body["probes"] > 0

    def test_gc_and_delete(self, service, config):
        http(service.url + "/sessions", dict(config, id="a"))
        http(service.url + "/sessions/a/advance", {})
        code, body = http(service.url + "/gc", {})
        assert code == 200 and body["snapshots_removed"] > 0
        code, body = http(service.url + "/sessions/a", method="DELETE")
        assert code == 200 and body == {"deleted": "a"}
        code, _ = http(service.url + "/sessions/a")
        assert code == 404

    def test_metrics_carries_telemetry(self, service, config):
        http(service.url + "/sessions", dict(config, id="a"))
        http(service.url + "/sessions/a/advance", {"budget": 64})
        code, body = http(service.url + "/metrics")
        assert code == 200
        assert body["created"] == 1
        assert body["advanced_interactions"] == 64
        assert body["store"]["sessions"] == 1
        counters = body["telemetry"]["counters"]
        assert counters["sessiond.snapshots.stored"] >= 2
        gauges = body["telemetry"]["gauges"]
        assert gauges["sessiond.sessions.active"] == 1


class TestErrors:
    def test_unknown_routes_404(self, service):
        assert http(service.url + "/nope")[0] == 404
        assert http(service.url + "/nope", {})[0] == 404
        assert http(service.url + "/sessions/ghost")[0] == 404

    def test_bad_create_400(self, service):
        code, body = http(
            service.url + "/sessions", {"mode": "driven", "protocol": "x"}
        )
        assert code == 400 and "error" in body

    def test_misspelled_free_engine_400_with_hint(self, service, free_config):
        code, body = http(
            service.url + "/sessions", dict(free_config, engine="cuont")
        )
        assert code == 400
        assert "unknown engine 'cuont'" in body["error"]
        assert "did you mean 'count'?" in body["error"]

    def test_rewind_requires_at(self, service, config):
        http(service.url + "/sessions", dict(config, id="a"))
        code, body = http(service.url + "/sessions/a/rewind", {})
        assert code == 400 and "at" in body["error"]

    def test_bad_json_body_400(self, service):
        req = urllib.request.Request(
            service.url + "/sessions", data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            code = 200
        except urllib.error.HTTPError as exc:
            code = exc.code
        assert code == 400

    def test_sessions_non_integer_limit_400(self, service):
        # Regression: a bare int(...) on ?limit= surfaced as a 500.
        code, body = http(service.url + "/sessions?limit=abc")
        assert code == 400 and "limit" in body["error"]

    def test_sessions_non_positive_limit_400(self, service):
        assert http(service.url + "/sessions?limit=0")[0] == 400
        assert http(service.url + "/sessions?limit=-3")[0] == 400

    def test_sessions_limit_applies(self, service, config):
        for sid in ("a", "b", "c"):
            http(service.url + "/sessions", dict(config, id=sid))
        code, body = http(service.url + "/sessions?limit=2")
        assert code == 200 and len(body["sessions"]) == 2

    def test_snapshots_limit_applies(self, service, config):
        http(service.url + "/sessions", dict(config, id="a"))
        http(service.url + "/sessions/a/advance", {"budget": 128})
        code, body = http(service.url + "/sessions/a/snapshots?limit=1")
        assert code == 200 and len(body["snapshots"]) == 1

    def test_malformed_content_length_gets_400(self, service):
        # Regression: int(self.headers['Content-Length']) raised and the
        # connection dropped with no response bytes at all.
        import socket

        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: banana\r\n"
                b"Connection: close\r\n\r\n"
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


class TestTelemetryInstall:
    def test_start_installs_and_stop_restores_registry(self, tmp_path):
        from repro.obs import get_telemetry

        before = get_telemetry()
        svc = SessionService(tmp_path / "s.db", port=0).start()
        try:
            assert get_telemetry() is svc.telemetry
        finally:
            svc.stop()
        assert get_telemetry() is before

    def test_overlapping_stop_does_not_clobber_live_telemetry(self, tmp_path):
        """Stopping sessiond first must not displace a later daemon's hook."""
        from repro.campaign import AsyncCampaignService
        from repro.obs import get_telemetry, set_telemetry

        original = get_telemetry()
        sessiond = SessionService(tmp_path / "s.db", port=0).start()
        campaign = AsyncCampaignService(tmp_path / "c.db", workers=0).start()
        try:
            sessiond.stop()  # out of order: campaign telemetry must stay
            assert get_telemetry() is campaign.telemetry
        finally:
            campaign.stop()
            set_telemetry(original)
