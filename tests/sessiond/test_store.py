"""Snapshot-store tests: rows, content addressing, lineage, GC."""

from __future__ import annotations

import pytest

from repro.core import SimulationError
from repro.engine.session import SNAPSHOT_VERSION, SessionState
from repro.obs import Telemetry, use_telemetry
from repro.sessiond import SnapshotStore


def state(engine="count", **extra) -> SessionState:
    """A synthetic SessionState — the store treats payloads as opaque."""
    return SessionState(
        engine=engine,
        protocol="uniform-3-partition",
        fingerprint="f" * 64,
        num_states=7,
        version=SNAPSHOT_VERSION,
        config={"n": 24, "max_interactions": None, "track": None},
        shared={"interactions": 0},
        extra=dict(extra) or {"x": 0},
    )


@pytest.fixture()
def store(tmp_path):
    s = SnapshotStore(tmp_path / "store.db")
    yield s
    s.close()


def make_session(store, sid, **kw):
    defaults = dict(
        engine="count",
        protocol="uniform-3-partition",
        fingerprint="f" * 64,
        config={"mode": "free"},
        mode="free",
    )
    defaults.update(kw)
    store.create_session(sid, **defaults)


class TestSessions:
    def test_create_get_roundtrip(self, store):
        make_session(store, "a", config={"n": 24, "seed": 5})
        row = store.get_session("a")
        assert row.id == "a"
        assert row.config == {"n": 24, "seed": 5}
        assert row.status == "running"
        assert row.cursor == 0
        assert row.parent_id is None

    def test_duplicate_id_rejected(self, store):
        make_session(store, "a")
        with pytest.raises(SimulationError, match="already exists"):
            make_session(store, "a")

    def test_require_rejects_missing_and_deleted(self, store):
        with pytest.raises(SimulationError, match="no session"):
            store.require_session("ghost")
        make_session(store, "a")
        store.delete_session("a")
        with pytest.raises(SimulationError, match="no session"):
            store.require_session("a")
        # The tombstone row survives for lineage queries.
        assert store.get_session("a").status == "deleted"

    def test_update_session_fields(self, store):
        make_session(store, "a")
        store.update_session("a", status="converged", cursor=100, effective=7)
        row = store.get_session("a")
        assert (row.status, row.cursor, row.effective) == ("converged", 100, 7)

    def test_update_rejects_unknown_status(self, store):
        make_session(store, "a")
        with pytest.raises(SimulationError, match="unknown session status"):
            store.update_session("a", status="zombie")

    def test_list_excludes_deleted_by_default(self, store):
        make_session(store, "a")
        make_session(store, "b")
        store.delete_session("b")
        assert [r.id for r in store.list_sessions()] == ["a"]
        assert [r.id for r in store.list_sessions(include_deleted=True)] == [
            "a",
            "b",
        ]

    def test_lineage_chain(self, store):
        make_session(store, "root")
        make_session(store, "mid", parent_id="root", parent_interactions=100)
        make_session(store, "leaf", parent_id="mid", parent_interactions=250)
        assert store.lineage("leaf") == [
            ("root", None),
            ("mid", 100),
            ("leaf", 250),
        ]
        assert [r.id for r in store.children("root")] == ["mid"]


class TestSnapshots:
    def test_put_get_roundtrip_with_driver(self, store):
        make_session(store, "a")
        st = state(x=1)
        digest, created = store.put_snapshot(
            "a", 64, st, effective=9, driver={"shadow": [0, 1, 2]}
        )
        assert created and digest == st.digest()
        ckpt = store.get_snapshot("a", 64)
        assert ckpt.interactions == 64
        assert ckpt.effective == 9
        assert ckpt.driver == {"shadow": [0, 1, 2]}
        assert SessionState.from_bytes(ckpt.payload).extra == {"x": 1}
        assert store.get_snapshot("a", 65) is None

    def test_content_addressed_dedup(self, store):
        make_session(store, "a")
        make_session(store, "b")
        _, first = store.put_snapshot("a", 0, state(x=1))
        _, second = store.put_snapshot("b", 0, state(x=1))
        assert first and not second
        assert store.stats()["blobs"] == 1
        assert store.stats()["snapshots"] == 2

    def test_nearest_and_latest(self, store):
        make_session(store, "a")
        for at in (0, 64, 128):
            store.put_snapshot("a", at, state(x=at))
        assert store.nearest_snapshot("a", 100).interactions == 64
        assert store.nearest_snapshot("a", 64).interactions == 64
        assert store.latest_snapshot("a").interactions == 128
        assert store.nearest_snapshot("ghost", 10) is None

    def test_replace_same_slot_keeps_one_row(self, store):
        make_session(store, "a")
        store.put_snapshot("a", 64, state(x=1))
        store.put_snapshot("a", 64, state(x=2))
        assert len(store.list_snapshots("a")) == 1
        ckpt = store.get_snapshot("a", 64)
        assert SessionState.from_bytes(ckpt.payload).extra == {"x": 2}

    def test_telemetry_counters(self, store):
        make_session(store, "a")
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            store.put_snapshot("a", 0, state(x=1))
            store.put_snapshot("a", 64, state(x=1))  # dedup: no new bytes
        snap = telemetry.snapshot()["counters"]
        assert snap["sessiond.snapshots.stored"] == 2
        assert snap["sessiond.snapshots.bytes"] > 0


class TestGC:
    def fill(self, store, sid, points):
        make_session(store, sid)
        for at in points:
            store.put_snapshot(sid, at, state(x=(sid, at)))

    def test_protects_first_latest_and_fork_bases(self, store):
        self.fill(store, "a", [0, 64, 128, 192, 256])
        make_session(store, "child", parent_id="a", parent_interactions=128)
        store.put_snapshot("child", 128, state(x=("a", 128)))
        removed = store.gc()
        assert removed["snapshots_removed"] == 2  # 64 and 192 dominated
        kept = [s.interactions for s in store.list_snapshots("a")]
        assert kept == [0, 128, 256]
        assert removed["bytes_freed"] > 0

    def test_keep_every_grid(self, store):
        self.fill(store, "a", [0, 50, 100, 150, 200])
        store.gc(keep_every=100)
        kept = [s.interactions for s in store.list_snapshots("a")]
        assert kept == [0, 100, 200]

    def test_deleted_sessions_fully_collected(self, store):
        self.fill(store, "a", [0, 64])
        store.delete_session("a", drop_snapshots=False)
        assert store.gc()["snapshots_removed"] == 2
        assert store.stats()["blobs"] == 0

    def test_rejects_bad_keep_every(self, store):
        with pytest.raises(SimulationError, match="keep_every"):
            store.gc(keep_every=0)


class TestClose:
    def test_use_after_close_raises_named_error(self, tmp_path):
        # Regression: a call after close() used to open and register a
        # fresh connection and answer from it.
        from repro.core.errors import StoreClosedError

        store = SnapshotStore(tmp_path / "store.db")
        make_session(store, "a")
        store.close()
        with pytest.raises(StoreClosedError, match="closed"):
            store.list_sessions()
        with pytest.raises(StoreClosedError):
            store.put_snapshot("a", 64, state())
        assert store.closed
        assert store._conns == []
        store.close()  # idempotent
