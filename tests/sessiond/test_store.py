"""Snapshot-store tests: rows, content addressing, lineage, GC."""

from __future__ import annotations

import statistics
import time

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


class TestDelete:
    def test_drops_own_blobs_keeps_shared_ones(self, store):
        make_session(store, "a")
        make_session(store, "b")
        store.put_snapshot("a", 0, state(x="shared"))
        store.put_snapshot("b", 0, state(x="shared"))
        store.put_snapshot("b", 64, state(x="b only"))
        store.delete_session("b")
        assert store.stats()["blobs"] == 1
        ckpt = store.get_snapshot("a", 0)
        assert SessionState.from_bytes(ckpt.payload).extra == {"x": "shared"}

    def test_unrelated_orphans_wait_for_gc(self, store):
        # An unreferenced blob, as a store written by an earlier version
        # can hold; deleting an unrelated session does not sweep it.
        planted = state(x="orphan")
        with store._write() as conn:
            conn.execute(
                "INSERT INTO blobs (digest, payload, size, created_at) "
                "VALUES (?, ?, 1, 0)",
                (planted.digest(), planted.to_bytes()),
            )
        make_session(store, "a")
        store.put_snapshot("a", 0, state(x="a"))
        make_session(store, "b")
        store.put_snapshot("b", 0, state(x="b"))
        store.delete_session("b")
        assert store.stats()["blobs"] == 2  # a's live blob and the orphan
        assert store.gc()["blobs_removed"] == 1
        assert store.stats()["blobs"] == 1

    def test_replaced_checkpoint_drops_its_unshared_blob(self, store):
        make_session(store, "a")
        make_session(store, "b")
        store.put_snapshot("a", 0, state(x="shared"))
        store.put_snapshot("b", 0, state(x="shared"))
        store.put_snapshot("a", 64, state(x="old"))
        store.put_snapshot("a", 64, state(x="new"))  # drops "old"
        store.put_snapshot("b", 0, state(x="b"))  # "shared" stays for a
        assert store.stats()["blobs"] == 3
        assert store.gc(vacuum=False)["blobs_removed"] == 0

    def test_latency_does_not_grow_with_the_store(self, tmp_path):
        """Deleting a session costs about the same beside 800 kept
        sessions as beside 50: it touches only that session's rows.
        A whole-store orphan sweep made it about 10x slower."""
        doomed = 21

        def build(name: str, kept: int) -> SnapshotStore:
            s = SnapshotStore(tmp_path / name)
            for i in range(kept + doomed):
                make_session(s, f"s{i}")
                for at in (0, 4096, 8192):
                    s.put_snapshot(f"s{i}", at, state(x=[i, at]))
            return s

        small, large = build("small.db", 50), build("large.db", 800)
        times: dict[int, list[float]] = {50: [], 800: []}
        try:
            for i in range(doomed):  # alternate, so drift hits both alike
                for s, kept in ((small, 50), (large, 800)):
                    t0 = time.perf_counter()
                    s.delete_session(f"s{kept + i}")
                    times[kept].append(time.perf_counter() - t0)
        finally:
            small.close()
            large.close()
        ratio = statistics.median(times[800]) / statistics.median(times[50])
        assert ratio < 2.0, times


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

    def test_close_releases_other_threads_connections(self, tmp_path):
        # Regression: connections opened on other threads were bound to
        # them, so close() on this thread failed on each one (the error
        # was swallowed) and their file handles stayed open until a
        # garbage collection.
        import gc
        import os
        import threading

        path = tmp_path / "store.db"
        store = SnapshotStore(path)
        make_session(store, "a")

        def touch() -> None:
            assert store.get_session("a") is not None

        def open_handles() -> list[str]:
            found = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    continue
                if target.startswith(str(path)):
                    found.append(target)
            return found

        gc.disable()
        try:
            threads = [threading.Thread(target=touch) for _ in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(store._conns) == 6
            store.close()
            assert open_handles() == []
        finally:
            gc.enable()


class TestReleaseConnection:
    """A thread that is about to end closes its own connection."""

    def test_release_then_reuse_opens_a_fresh_connection(self, store):
        make_session(store, "a")
        store.release_connection()
        assert store._conns == []
        assert store.get_session("a").id == "a"
        assert len(store._conns) == 1

    def test_release_after_close_is_a_no_op(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.db")
        store.close()
        store.release_connection()
        assert store.closed and store._conns == []

    def test_threads_that_release_leave_no_connections(self, store):
        import sys
        import threading

        make_session(store, "a")
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                for _ in range(20):
                    assert store.get_session("a") is not None
                    store.release_connection()
            except BaseException as exc:  # reported on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(store._conns) == 1  # the main thread's, still open
