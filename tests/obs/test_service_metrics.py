"""Tests: the campaign service exposes live engine/runner telemetry."""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro.campaign import AsyncCampaignService
from repro.obs import get_telemetry


def get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def post(url: str, body: dict) -> tuple[int, dict]:
    req = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


SPEC = {
    "protocol": "uniform-k-partition", "params": {"k": 3},
    "n": 9, "trials": 2, "seed": 5,
}


class TestServiceTelemetry:
    def test_metrics_endpoint_includes_telemetry(self, tmp_path):
        svc = AsyncCampaignService(tmp_path / "c.db", workers=0).start()
        try:
            code, body = get(svc.url + "/metrics")
            assert code == 200
            assert body["telemetry"]["enabled"] is True
            assert "counters" in body["telemetry"]
            # Service counters are still present alongside.
            assert "requests" in body and "jobs" in body
        finally:
            svc.stop()

    def test_start_installs_and_stop_restores_registry(self, tmp_path):
        before = get_telemetry()
        svc = AsyncCampaignService(tmp_path / "c.db", workers=0).start()
        try:
            assert get_telemetry() is svc.telemetry
        finally:
            svc.stop()
        assert get_telemetry() is before

    def test_worker_activity_shows_in_telemetry(self, tmp_path):
        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=1, poll_interval=0.05
        ).start()
        try:
            post(svc.url + "/submit", {"specs": [SPEC]})
            deadline = time.time() + 30
            while time.time() < deadline:
                _, body = get(svc.url + "/metrics")
                if body["executed"] >= 1:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("worker never executed the job")
            counters = body["telemetry"]["counters"]
            assert counters.get("runner.trials", 0) >= 2
            assert counters.get("engine.count.runs", 0) >= 2
        finally:
            svc.stop()
