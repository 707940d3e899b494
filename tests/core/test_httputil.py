"""Unit tests for the shared HTTP request-parsing helpers."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.campaign import AsyncCampaignService
from repro.core.httputil import (
    MAX_BODY_BYTES,
    MAX_LIMIT,
    BadRequest,
    json_response,
    parse_content_length,
    parse_json_object,
    parse_limit,
)
from repro.obs import get_telemetry
from repro.sessiond import SessionService


class TestParseLimit:
    def test_absent_uses_default(self):
        assert parse_limit(None) == 100
        assert parse_limit(None, default=7) == 7

    def test_default_is_clamped_too(self):
        assert parse_limit(None, default=5000) == MAX_LIMIT

    def test_valid_values_pass_through(self):
        assert parse_limit("1") == 1
        assert parse_limit("250") == 250

    def test_above_maximum_clamps(self):
        assert parse_limit(str(MAX_LIMIT + 1)) == MAX_LIMIT
        assert parse_limit("50", maximum=10) == 10

    @pytest.mark.parametrize("raw", ["abc", "1.5", "", "0x10", "1e3"])
    def test_non_integer_raises(self, raw):
        with pytest.raises(BadRequest, match="limit"):
            parse_limit(raw)

    @pytest.mark.parametrize("raw", ["0", "-1", "-100"])
    def test_non_positive_raises(self, raw):
        with pytest.raises(BadRequest, match="positive"):
            parse_limit(raw)

    def test_badrequest_is_a_valueerror(self):
        # Services catch ValueError as a fallback; BadRequest must fold in.
        assert issubclass(BadRequest, ValueError)


class TestParseContentLength:
    def test_absent_means_zero(self):
        assert parse_content_length({}) == 0
        assert parse_content_length(None, None) == 0
        assert parse_content_length(None, "") == 0

    def test_mapping_and_raw_forms_agree(self):
        assert parse_content_length({"Content-Length": "42"}) == 42
        assert parse_content_length(None, "42") == 42

    @pytest.mark.parametrize("raw", ["banana", "12.5", " ", "+-3"])
    def test_malformed_raises(self, raw):
        with pytest.raises(BadRequest, match="Content-Length"):
            parse_content_length(None, raw)

    def test_negative_raises(self):
        with pytest.raises(BadRequest, match="negative"):
            parse_content_length(None, "-7")

    def test_oversized_raises_before_any_read(self):
        with pytest.raises(BadRequest, match="cap"):
            parse_content_length(None, str(MAX_BODY_BYTES + 1))
        assert parse_content_length(None, str(MAX_BODY_BYTES)) == MAX_BODY_BYTES


class TestParseJsonObject:
    def test_empty_body_is_an_empty_object(self):
        assert parse_json_object(b"") == {}

    def test_object_passes_through(self):
        assert parse_json_object(b'{"a": 1}') == {"a": 1}

    @pytest.mark.parametrize("raw", [b"{", b"[1, 2]", b"\xff", b"3"])
    def test_malformed_or_non_object_raises(self, raw):
        with pytest.raises(BadRequest, match="bad JSON body"):
            parse_json_object(raw)


class TestJsonResponse:
    def test_head_and_body_in_one_buffer(self):
        raw = json_response(429, {"error": "busy"}, {"Retry-After": "3"})
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 429 Too Many Requests"
        assert "Content-Type: application/json" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert "Retry-After: 3" in lines
        assert json.loads(body) == {"error": "busy"}


def _daemon(kind: str, path):
    if kind == "campaign":
        return AsyncCampaignService(path / "c.db", workers=0)
    return SessionService(path / "s.db", port=0)


class TestDaemonLifecycle:
    @pytest.mark.parametrize("kind", ["campaign", "sessiond"])
    def test_stop_before_start_returns_and_repeats_as_a_no_op(self, tmp_path, kind):
        before = get_telemetry()
        svc = _daemon(kind, tmp_path)
        for _ in range(2):
            stopper = threading.Thread(target=svc.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=2)
            assert not stopper.is_alive(), f"{kind} stop() hung before start()"
        assert get_telemetry() is before

    @pytest.mark.parametrize("first", ["campaign", "sessiond"])
    def test_overlapping_daemons_restore_the_prior_registry(self, tmp_path, first):
        before = get_telemetry()
        daemons = {
            kind: _daemon(kind, tmp_path).start()
            for kind in ("campaign", "sessiond")
        }
        try:
            assert get_telemetry() is daemons["sessiond"].telemetry
            daemons.pop(first).stop()
            (last,) = daemons.values()
            assert get_telemetry() is last.telemetry
        finally:
            for svc in daemons.values():
                svc.stop()
        assert get_telemetry() is before

    def test_startup_error_is_raised_by_start(self, tmp_path):
        before = get_telemetry()
        taken = SessionService(tmp_path / "a.db", port=0).start()
        try:
            clash = SessionService(tmp_path / "b.db", port=taken.address[1])
            with pytest.raises(OSError):
                clash.start()
            assert get_telemetry() is taken.telemetry
        finally:
            taken.stop()
        assert get_telemetry() is before

    def test_counts_from_many_threads_are_not_lost(self, tmp_path):
        # Sessiond's handler threads count concurrently.
        svc = _daemon("sessiond", tmp_path)
        threads, per_thread = 8, 2000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [svc.count("requests") for _ in range(per_thread)]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
            svc.stop()
        assert svc.metrics_payload()["requests"] == threads * per_thread
