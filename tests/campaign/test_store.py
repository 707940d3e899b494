"""Tests for the SQLite job store (the satellite checklist items).

Covers: digest-keyed idempotent submission, the pending -> running ->
done/failed lifecycle, resume-after-kill recovery, bit-identical cache
hits, and concurrent submission from multiple threads.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import subprocess
import threading
import time
import types
from pathlib import Path

import pytest

from repro.campaign import CampaignStore, JobSpec, run_campaign
from repro.campaign import store as store_module
from repro.campaign.executor import execute_spec, execute_spec_resumable
from repro.core.errors import CampaignError, UnknownEngineError, UnknownProtocolError
from repro.obs import trace as trace_module


def make_spec(seed: int = 7, **overrides) -> JobSpec:
    base = dict(
        protocol="uniform-k-partition", params={"k": 3}, n=9, trials=2, seed=seed
    )
    base.update(overrides)
    return JobSpec(**base)


def scientific_content(record: dict) -> dict:
    """A trial record minus wall-clock timings (the reproducible part)."""
    return {
        **record,
        "results": [
            {k: v for k, v in r.items() if k != "elapsed"}
            for r in record["results"]
        ],
    }


@pytest.fixture()
def store(tmp_path):
    s = CampaignStore(tmp_path / "campaign.db")
    yield s
    s.close()


def trial_row_count(store: CampaignStore) -> int:
    return store._query("SELECT COUNT(*) AS c FROM checkpoint_trials").fetchone()["c"]


def user_version(path) -> int:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA user_version").fetchone()[0]
    finally:
        conn.close()


def table_columns(path) -> dict[str, list[str]]:
    """``{table: [column, ...]}`` of a database file, read with raw SQL."""
    conn = sqlite3.connect(path)
    try:
        tables = [
            r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        ]
        return {
            t: [r[1] for r in conn.execute(f"PRAGMA table_info({t})")]
            for t in tables
        }
    finally:
        conn.close()


class TestSubmission:
    def test_submit_creates_pending(self, store):
        digest, created = store.submit(make_spec())
        assert created
        job = store.get(digest)
        assert job.status == "pending"
        assert job.spec == make_spec()

    def test_submit_idempotent(self, store):
        d1, c1 = store.submit(make_spec())
        d2, c2 = store.submit(make_spec())
        assert d1 == d2 and c1 and not c2
        assert store.counts()["pending"] == 1

    def test_submit_many_counts_done(self, store):
        specs = [make_spec(seed=s) for s in range(3)]
        outcome = store.submit_many(specs)
        assert outcome == {"created": 3, "existing": 0, "done": 0}
        run_campaign(store)
        outcome = store.submit_many(specs)
        assert outcome == {"created": 0, "existing": 3, "done": 3}

    def test_unknown_engine_or_protocol_is_refused(self, store):
        with pytest.raises(UnknownEngineError, match="known engines: .*count"):
            store.submit(make_spec(engine="nope"))
        with pytest.raises(UnknownEngineError, match="unknown engine 5"):
            store.submit(make_spec(engine=5))
        with pytest.raises(
            UnknownProtocolError, match="known protocols: .*uniform-k-partition"
        ):
            store.submit(make_spec(protocol="nope"))
        assert store.counts()["pending"] == 0

    def test_submit_many_refuses_the_whole_batch(self, store):
        specs = [make_spec(seed=1), make_spec(seed=2, engine="nope")]
        with pytest.raises(UnknownEngineError):
            store.submit_many(specs)
        assert store.counts()["pending"] == 0

    def test_stored_spec_naming_a_deleted_engine_still_loads(self, store):
        # Only submission checks names: a job stored before its engine
        # was deleted must still load (and then fail at drain).
        spec = make_spec(engine="gone")
        with store._write() as conn:
            conn.execute(
                "INSERT INTO jobs (tenant, digest, spec, campaign, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (store_module.DEFAULT_TENANT, spec.digest, spec.to_json(), None, 0.0),
            )
        assert store.get(spec.digest).spec == spec

    def test_concurrent_submit_from_two_threads(self, store):
        # The same grid submitted racily from two threads must land
        # exactly once per digest, with no exceptions.
        specs = [make_spec(seed=s) for s in range(20)]
        errors: list[Exception] = []

        def submit_all():
            try:
                for spec in specs:
                    store.submit(spec)
            except Exception as exc:  # noqa: BLE001 — recorded for assertion
                errors.append(exc)

        threads = [threading.Thread(target=submit_all) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.counts()["pending"] == len(specs)


class TestLifecycle:
    def test_claim_marks_running_and_increments_attempts(self, store):
        store.submit(make_spec())
        job = store.claim_next()
        assert job.status == "running"
        assert job.attempts == 1
        assert store.counts() == {"pending": 0, "running": 1, "done": 0, "failed": 0}
        assert store.claim_next() is None

    def test_mark_done_records_provenance(self, store):
        digest, _ = store.submit(make_spec())
        job = store.claim_next()
        payload = execute_spec(job.spec.canonical())
        store.mark_done(
            digest,
            summary=payload["summary"],
            record=payload["record"],
            wall_time=payload["wall_time"],
        )
        job = store.get(digest)
        assert job.status == "done"
        assert job.package_version == "1.0.0"
        assert job.wall_time > 0
        assert job.summary["trials"] == 2
        assert store.result_record(digest) == payload["record"]

    def test_mark_failed_and_gc(self, store):
        digest, _ = store.submit(make_spec())
        store.claim_next()
        store.mark_failed(digest, "boom")
        assert store.get(digest).error == "boom"
        removed = store.gc()
        assert removed["failed"] == 1
        assert store.get(digest) is None

    def test_reset_to_pending(self, store):
        digest, _ = store.submit(make_spec())
        store.claim_next()
        store.reset_to_pending(digest)
        assert store.get(digest).status == "pending"

    def test_unknown_status_rejected(self, store):
        with pytest.raises(CampaignError, match="unknown status"):
            store.list_jobs(status="sleeping")


class TestResumeAfterKill:
    def test_recover_running_requeues(self, store):
        # Simulate a mid-sweep kill: jobs claimed but never finished.
        for s in range(3):
            store.submit(make_spec(seed=s))
        store.claim_next()
        store.claim_next()
        assert store.counts()["running"] == 2
        # New process starts up:
        assert store.recover_running() == 2
        assert store.counts()["pending"] == 3

    def test_resume_produces_identical_results(self, tmp_path):
        specs = [make_spec(seed=s) for s in range(4)]

        uninterrupted = CampaignStore(tmp_path / "a.db")
        uninterrupted.submit_many(specs)
        run_campaign(uninterrupted)

        interrupted = CampaignStore(tmp_path / "b.db")
        interrupted.submit_many(specs)
        # First invocation dies after two jobs, mid-claim on a third.
        run_campaign(interrupted, max_jobs=2)
        interrupted.claim_next()  # claimed but never finished = killed
        # Second invocation recovers and finishes the sweep.
        report = run_campaign(interrupted)
        assert report.recovered == 1
        assert interrupted.counts()["done"] == 4

        for spec in specs:
            a = uninterrupted.get(spec.digest)
            b = interrupted.get(spec.digest)
            assert a.status == b.status == "done"
            assert a.summary == b.summary
            assert scientific_content(
                uninterrupted.result_record(spec.digest)
            ) == scientific_content(interrupted.result_record(spec.digest))
        uninterrupted.close()
        interrupted.close()


class TestCacheHits:
    def test_cache_hit_returns_bit_identical_summaries(self, store):
        spec = make_spec()
        store.submit(spec)
        first = run_campaign(store)
        assert first.executed == 1 and first.cache_hits == 0
        summary_before = store.get(spec.digest).summary
        record_before = store.result_record(spec.digest)

        # Re-submitting and re-running is a pure cache hit: nothing
        # executes and the stored bytes are untouched.
        store.submit(spec)
        second = run_campaign(store)
        assert second.executed == 0 and second.cache_hits == 1
        assert store.get(spec.digest).summary == summary_before
        assert store.result_record(spec.digest) == record_before

    def test_trial_cache_populated_by_jobs(self, store):
        store.submit(make_spec())
        run_campaign(store)
        assert store.trial_cache_size() == 1

    def test_store_trial_cache_counts_hits(self, store):
        cache = store.trial_cache()
        assert cache.get("nope") is None
        cache.put("k1", {"results": []})
        assert cache.get("k1") == {"results": []}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_gc_prunes_old_done_jobs(self, store):
        store.submit(make_spec())
        run_campaign(store)
        removed = store.gc(done_older_than=0.0)
        assert removed["done"] == 1
        assert removed["trial_cache"] == 1
        assert store.counts()["done"] == 0


class TestCheckpoints:
    def test_round_trip(self, store):
        spec = make_spec()
        digest, _ = store.submit(spec)
        assert store.load_checkpoint(digest) is None
        store.save_checkpoint(
            digest, trial_index=3,
            completed=[{"interactions": 5}], session=b"\x00snap",
        )
        ckpt = store.load_checkpoint(digest)
        assert ckpt["trial_index"] == 3
        assert ckpt["completed"] == [{"interactions": 5}]
        assert ckpt["session"] == b"\x00snap"
        # One row per digest: a later save replaces, None session allowed.
        store.save_checkpoint(digest, trial_index=4, completed=[], session=None)
        ckpt = store.load_checkpoint(digest)
        assert ckpt["trial_index"] == 4
        assert ckpt["session"] is None
        assert store.checkpoint_count() == 1
        store.clear_checkpoint(digest)
        assert store.load_checkpoint(digest) is None

    def test_mark_done_and_failed_clear_checkpoint(self, store):
        for verb in ("done", "failed"):
            spec = make_spec(seed={"done": 41, "failed": 42}[verb])
            digest, _ = store.submit(spec)
            store.save_checkpoint(
                digest, trial_index=0, completed=[], session=b"s"
            )
            if verb == "done":
                store.mark_done(digest, summary={}, record={}, wall_time=0.0)
            else:
                store.mark_failed(digest, "boom")
            assert store.load_checkpoint(digest) is None

    def test_gc_prunes_orphan_checkpoints(self, store):
        spec = make_spec(seed=9)
        digest, _ = store.submit(spec)
        store.save_checkpoint(digest, trial_index=0, completed=[], session=None)
        # A checkpoint whose job row is gone is an orphan.
        store.save_checkpoint("feed" * 16, trial_index=0, completed=[], session=None)
        removed = store.gc(vacuum=False)
        assert removed["checkpoints"] == 1
        assert store.load_checkpoint(digest) is not None


class TestCheckpointTrialRows:
    """Schema v3: one ``checkpoint_trials`` row per finished trial."""

    def test_each_finished_trial_is_encoded_once(self, store, monkeypatch):
        # Commits come by work, not by trial: with a small checkpoint
        # budget a 200-trial job commits mid-trial and at boundaries, and
        # each save encodes only the trials finished since the last one —
        # no record is ever encoded twice, so the last save costs what
        # the first does.
        encoded: list[dict] = []

        def dumps(obj, *args, **kwargs):
            encoded.append(obj)
            return json.dumps(obj, *args, **kwargs)

        saves: list[int] = []
        real_save = CampaignStore.save_checkpoint

        def save(self, digest, **kwargs):
            saves.append(len(kwargs["completed"]))
            real_save(self, digest, **kwargs)

        spec = make_spec(trials=200, seed=5)
        digest, _ = store.submit(spec)
        monkeypatch.setattr(
            store_module, "json", types.SimpleNamespace(dumps=dumps, loads=json.loads)
        )
        monkeypatch.setattr(CampaignStore, "save_checkpoint", save)
        payload = execute_spec_resumable(
            spec.canonical(), store, digest=digest, checkpoint_interactions=500
        )
        results = payload["record"]["results"]
        assert 10 < len(saves) < 200
        assert max(saves) < 200 // 10
        # Each record once, in trial order; the trials after the last
        # commit are encoded by nobody until mark_done stores the job.
        assert encoded == results[: len(encoded)] and len(encoded) == sum(saves)
        assert len(encoded) > 150
        assert store.load_checkpoint(digest)["completed"] == encoded

    def test_partial_and_full_lists_store_the_same_state(self, store):
        records = [{"trial": t, "x": t / 3} for t in range(4)]
        a, b = "a" * 64, "b" * 64
        for t in range(4):
            store.save_checkpoint(a, trial_index=t + 1, completed=[records[t]], session=None)
            store.save_checkpoint(b, trial_index=t + 1, completed=records[: t + 1], session=None)
        store.save_checkpoint(a, trial_index=4, completed=[], session=b"mid")
        store.save_checkpoint(b, trial_index=4, completed=records, session=b"mid")
        assert store.load_checkpoint(a) == store.load_checkpoint(b) == {
            "trial_index": 4, "completed": records, "session": b"mid",
        }
        assert trial_row_count(store) == 8

    def test_trial_rows_past_trial_index_are_not_loaded(self, store):
        digest = "c" * 64
        store.save_checkpoint(
            digest, trial_index=3, completed=[{"t": 0}, {"t": 1}, {"t": 2}], session=None
        )
        store.save_checkpoint(digest, trial_index=1, completed=[], session=b"s")
        assert store.load_checkpoint(digest)["completed"] == [{"t": 0}]

    @pytest.mark.parametrize("verb", ["done", "failed", "clear"])
    def test_finishing_a_job_deletes_its_trial_rows(self, store, verb):
        digest, _ = store.submit(make_spec(seed=60))
        other, _ = store.submit(make_spec(seed=61))
        for d in (digest, other):
            store.save_checkpoint(
                d, trial_index=2, completed=[{"t": 0}, {"t": 1}], session=b"s"
            )
        if verb == "done":
            store.mark_done(digest, summary={}, record={}, wall_time=0.0)
        elif verb == "failed":
            store.mark_failed(digest, "boom")
        else:
            store.clear_checkpoint(digest)
        assert store.load_checkpoint(digest) is None
        assert trial_row_count(store) == 2  # the other job's rows remain
        assert store.load_checkpoint(other)["completed"] == [{"t": 0}, {"t": 1}]

    def test_gc_prunes_orphan_trial_rows(self, store):
        digest, _ = store.submit(make_spec(seed=62))
        store.save_checkpoint(digest, trial_index=1, completed=[{"t": 0}], session=None)
        # Orphans: a checkpoint whose job row is gone, and trial rows
        # whose checkpoint row is gone.
        store.save_checkpoint("feed" * 16, trial_index=2, completed=[{}, {}], session=None)
        with store._write() as conn:
            conn.execute(
                "INSERT INTO checkpoint_trials (tenant, digest, trial, record) "
                "VALUES ('default', ?, 0, '{}')",
                ("beef" * 16,),
            )
        assert trial_row_count(store) == 4
        removed = store.gc(vacuum=False)
        assert removed["checkpoints"] == 1
        assert trial_row_count(store) == 1
        assert store.load_checkpoint(digest)["completed"] == [{"t": 0}]


class TestProvenance:
    """``git_rev`` names the package's own checkout, resolved once."""

    @pytest.fixture()
    def other_repo(self, tmp_path):
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        repo = tmp_path / "other-repo"
        repo.mkdir()
        git = [
            "git", "-C", str(repo),
            "-c", "user.name=test", "-c", "user.email=test@example.invalid",
        ]
        subprocess.run(git + ["init", "-q"], check=True)
        (repo / "file.txt").write_text("unrelated\n")
        subprocess.run(git + ["add", "file.txt"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "unrelated"], check=True)
        head = subprocess.run(
            git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        return repo, head

    def test_mark_done_ignores_cwd_and_runs_git_once(
        self, store, other_repo, monkeypatch
    ):
        repo, head = other_repo
        git_calls = []
        real_run = subprocess.run

        def run(args, *a, **kw):
            if args and args[0] == "git":
                git_calls.append(args)
            return real_run(args, *a, **kw)

        digests = [store.submit(make_spec(seed=200 + s))[0] for s in range(20)]
        monkeypatch.setattr(subprocess, "run", run)
        monkeypatch.chdir(repo)
        for digest in digests:
            store.mark_done(digest, summary={}, record={}, wall_time=0.0)
        revs = {store.get(digest).git_rev for digest in digests}
        assert len(revs) == 1
        assert head not in revs
        assert len(git_calls) <= 1

    def test_provenance_names_the_package_checkout(self, other_repo, monkeypatch):
        repo, head = other_repo
        package_dir = Path(trace_module.__file__).resolve().parent
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=package_dir,
            capture_output=True, text=True, check=False,
        )
        expected = out.stdout.strip() if out.returncode == 0 else None
        monkeypatch.chdir(repo)
        trace_module.git_rev.cache_clear()
        assert trace_module.provenance()["git_rev"] == expected != head


class TestTenancy:
    def test_same_spec_distinct_tenants(self, store):
        spec = make_spec()
        d1, c1 = store.submit(spec, tenant="alice")
        d2, c2 = store.submit(spec, tenant="bob")
        assert d1 == d2 and c1 and c2  # digest is tenant-independent
        assert store.counts()["pending"] == 2
        assert store.counts(tenant="alice")["pending"] == 1
        assert store.tenants() == ["alice", "bob"]

    def test_default_tenant_is_the_implicit_namespace(self, store):
        digest, _ = store.submit(make_spec())
        assert store.get(digest).tenant == "default"
        assert store.get(digest, tenant="other") is None
        assert store.tenants() == ["default"]

    def test_claim_scoped_and_global(self, store):
        store.submit(make_spec(seed=1), tenant="alice")
        store.submit(make_spec(seed=2), tenant="bob")
        job = store.claim_next(tenant="bob")
        assert job.tenant == "bob"
        job = store.claim_next()  # global drain picks up the rest
        assert job.tenant == "alice"
        assert store.claim_next() is None

    def test_trial_cache_isolated_by_tenant(self, store):
        store.trial_cache("alice").put("k", {"v": 1})
        assert store.trial_cache("alice").get("k") == {"v": 1}
        assert store.trial_cache("bob").get("k") is None
        assert store.trial_cache().get("k") is None
        assert store.trial_cache_size() == 1
        assert store.trial_cache_size(tenant="bob") == 0

    def test_list_jobs_by_tenant(self, store):
        store.submit(make_spec(seed=1), tenant="alice")
        store.submit(make_spec(seed=2), tenant="bob")
        assert [j.tenant for j in store.list_jobs(tenant="alice")] == ["alice"]
        assert len(store.list_jobs()) == 2

    def test_mark_done_scoped_to_tenant(self, store):
        spec = make_spec()
        store.submit(spec, tenant="alice")
        store.submit(spec, tenant="bob")
        store.mark_done(
            spec.digest, summary={}, record={}, wall_time=0.0, tenant="alice"
        )
        assert store.get(spec.digest, tenant="alice").status == "done"
        assert store.get(spec.digest, tenant="bob").status == "pending"

    @pytest.mark.parametrize("bad", ["", "a b", "x" * 65, "sp/lash", 42, None])
    def test_invalid_tenant_rejected(self, store, bad):
        with pytest.raises(CampaignError, match="tenant"):
            store.submit(make_spec(), tenant=bad)


class TestCloseSemantics:
    def test_close_is_idempotent(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        store.close()
        store.close()  # regression: second close must not raise
        assert store.closed

    def test_use_after_close_raises_named_error(self, tmp_path):
        from repro.core.errors import StoreClosedError

        store = CampaignStore(tmp_path / "c.db")
        store.submit(make_spec())
        store.close()
        with pytest.raises(StoreClosedError, match="closed"):
            store.counts()
        with pytest.raises(StoreClosedError):
            store.submit(make_spec(seed=2))

    def test_fresh_thread_after_close_raises_not_leaks(self, tmp_path):
        # Regression: a handler thread touching the store after close()
        # used to open (and leak) a brand-new SQLite connection.
        from repro.core.errors import StoreClosedError

        store = CampaignStore(tmp_path / "c.db")
        store.close()
        outcome: list[object] = []

        def probe():
            try:
                store.counts()
                outcome.append("no error")
            except StoreClosedError:
                outcome.append("closed")

        t = threading.Thread(target=probe)
        t.start()
        t.join()
        assert outcome == ["closed"]
        assert store._conns == []

    def test_reopen_with_new_instance(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        digest, _ = store.submit(make_spec())
        store.close()
        reopened = CampaignStore(tmp_path / "c.db")
        try:
            assert reopened.get(digest).status == "pending"
        finally:
            reopened.close()


_V1_SCHEMA = """
CREATE TABLE jobs (
    digest          TEXT PRIMARY KEY,
    spec            TEXT NOT NULL,
    status          TEXT NOT NULL DEFAULT 'pending'
                    CHECK (status IN ('pending', 'running', 'done', 'failed')),
    attempts        INTEGER NOT NULL DEFAULT 0,
    error           TEXT,
    summary         TEXT,
    record          TEXT,
    campaign        TEXT,
    git_rev         TEXT,
    package_version TEXT,
    wall_time       REAL,
    created_at      REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL
);
CREATE INDEX jobs_by_status ON jobs (status, created_at);
CREATE INDEX jobs_by_campaign ON jobs (campaign);
CREATE TABLE trial_cache (
    key        TEXT PRIMARY KEY,
    record     TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE checkpoints (
    digest      TEXT PRIMARY KEY,
    trial_index INTEGER NOT NULL,
    completed   TEXT NOT NULL,
    session     BLOB,
    updated_at  REAL NOT NULL
);
"""


class TestV1Migration:
    def _build_v1(self, path):
        import json as _json
        import sqlite3
        import time as _time

        spec = make_spec(seed=77)
        conn = sqlite3.connect(path)
        conn.executescript(_V1_SCHEMA)
        now = _time.time()
        conn.execute(
            "INSERT INTO jobs (digest, spec, status, attempts, summary, "
            "record, wall_time, created_at, finished_at) "
            "VALUES (?, ?, 'done', 1, ?, ?, 0.5, ?, ?)",
            (
                spec.digest, spec.to_json(),
                _json.dumps({"trials": 2}), _json.dumps({"results": []}),
                now, now,
            ),
        )
        pending = make_spec(seed=78)
        conn.execute(
            "INSERT INTO jobs (digest, spec, created_at) VALUES (?, ?, ?)",
            (pending.digest, pending.to_json(), now),
        )
        conn.execute(
            "INSERT INTO trial_cache (key, record, created_at) VALUES (?, ?, ?)",
            ("cache-key", _json.dumps({"cached": True}), now),
        )
        conn.execute(
            "INSERT INTO checkpoints (digest, trial_index, completed, "
            "session, updated_at) VALUES (?, 1, '[]', ?, ?)",
            (pending.digest, b"\x01snap", now),
        )
        conn.commit()
        conn.close()
        return spec, pending

    def test_v1_database_migrates_in_place(self, tmp_path):
        path = tmp_path / "old.db"
        done_spec, pending_spec = self._build_v1(path)
        store = CampaignStore(path)
        try:
            # Every v1 row lands under the default tenant, bytes intact.
            job = store.get(done_spec.digest)
            assert job.status == "done" and job.tenant == "default"
            assert job.summary == {"trials": 2}
            assert store.result_record(done_spec.digest) == {"results": []}
            assert store.get(pending_spec.digest).status == "pending"
            assert store.trial_cache().get("cache-key") == {"cached": True}
            ckpt = store.load_checkpoint(pending_spec.digest)
            assert ckpt["trial_index"] == 1 and ckpt["session"] == b"\x01snap"
            assert store.tenants() == ["default"]
            # The migrated store is fully writable under new tenants.
            store.submit(make_spec(seed=99), tenant="alice")
            assert store.counts()["pending"] == 2
        finally:
            store.close()

    def test_migration_drops_v1_tables_and_stamps_version(self, tmp_path):
        import sqlite3

        path = tmp_path / "old.db"
        self._build_v1(path)
        store = CampaignStore(path)
        store.close()
        conn = sqlite3.connect(path)
        try:
            names = {
                r[0] for r in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            assert "jobs_v1" not in names and "trial_cache_v1" not in names
            assert conn.execute("PRAGMA user_version").fetchone()[0] == 3
        finally:
            conn.close()

    def test_migration_is_idempotent(self, tmp_path):
        path = tmp_path / "old.db"
        done_spec, _ = self._build_v1(path)
        for _ in range(2):  # reopening a migrated store must be a no-op
            store = CampaignStore(path)
            assert store.get(done_spec.digest).status == "done"
            store.close()

    def test_v1_lands_directly_at_v3(self, tmp_path):
        path = tmp_path / "old.db"
        _, pending_spec = self._build_v1(path)
        records = [{"interactions": 11, "elapsed": 0.1}, {"interactions": 12, "elapsed": 0.2}]
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE checkpoints SET trial_index = 2, completed = ? WHERE digest = ?",
            (json.dumps(records), pending_spec.digest),
        )
        conn.commit()
        conn.close()
        store = CampaignStore(path)
        try:
            ckpt = store.load_checkpoint(pending_spec.digest)
            assert ckpt == {"trial_index": 2, "completed": records, "session": b"\x01snap"}
        finally:
            store.close()
        assert user_version(path) == 3
        tables = table_columns(path)
        assert "completed" not in tables["checkpoints"]
        assert tables["checkpoint_trials"] == ["tenant", "digest", "trial", "record"]
        assert not {"jobs_v1", "checkpoints_v1", "checkpoints_v2"} & tables.keys()


#: The schema-v2 layout as the v2 store created it: tenant-aware, with
#: each job's finished trials in one ``completed`` JSON list.
_V2_SCHEMA = """
CREATE TABLE jobs (
    tenant          TEXT NOT NULL DEFAULT 'default',
    digest          TEXT NOT NULL,
    spec            TEXT NOT NULL,
    status          TEXT NOT NULL DEFAULT 'pending'
                    CHECK (status IN ('pending', 'running', 'done', 'failed')),
    attempts        INTEGER NOT NULL DEFAULT 0,
    error           TEXT,
    summary         TEXT,
    record          TEXT,
    campaign        TEXT,
    git_rev         TEXT,
    package_version TEXT,
    wall_time       REAL,
    created_at      REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    PRIMARY KEY (tenant, digest)
);
CREATE INDEX jobs_by_tenant_status ON jobs (tenant, status, created_at);
CREATE INDEX jobs_by_status ON jobs (status, created_at);
CREATE INDEX jobs_by_campaign ON jobs (campaign);
CREATE TABLE trial_cache (
    tenant     TEXT NOT NULL DEFAULT 'default',
    key        TEXT NOT NULL,
    record     TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (tenant, key)
);
CREATE TABLE checkpoints (
    tenant      TEXT NOT NULL DEFAULT 'default',
    digest      TEXT NOT NULL,
    trial_index INTEGER NOT NULL,
    completed   TEXT NOT NULL,
    session     BLOB,
    updated_at  REAL NOT NULL,
    PRIMARY KEY (tenant, digest)
);
PRAGMA user_version = 2;
"""


class TestV2Migration:
    """v2 → v3: each stored ``completed`` list becomes per-trial rows."""

    SPEC = make_spec(n=40, trials=3, seed=7)

    @pytest.fixture(scope="class")
    def interrupted(self, tmp_path_factory):
        """A real mid-job checkpoint (killed inside trial 1) and the
        uninterrupted record of the same job."""
        spec = self.SPEC
        store = CampaignStore(tmp_path_factory.mktemp("v3") / "run.db")
        try:
            digest, _ = store.submit(spec)

            def bomb(trial_index, interactions):
                if trial_index == 1:
                    raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                execute_spec_resumable(
                    spec.canonical(), store, digest=digest,
                    checkpoint_interactions=40, on_slice=bomb,
                )
            ckpt = store.load_checkpoint(digest)
        finally:
            store.close()
        assert ckpt["trial_index"] == 1 and len(ckpt["completed"]) == 1
        assert ckpt["session"] is not None
        return ckpt, execute_spec(spec.canonical())["record"]

    def _build_v2(self, path, ckpt):
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript(_V2_SCHEMA)
        now = time.time()
        done = make_spec(seed=70)
        conn.execute(
            "INSERT INTO jobs (tenant, digest, spec, status, attempts, summary, "
            "record, wall_time, created_at, finished_at) "
            "VALUES ('alice', ?, ?, 'done', 1, ?, ?, 0.5, ?, ?)",
            (done.digest, done.to_json(), json.dumps({"trials": 2}),
             json.dumps({"results": []}), now, now),
        )
        conn.execute(
            "INSERT INTO jobs (tenant, digest, spec, status, attempts, created_at, "
            "started_at) VALUES ('default', ?, ?, 'running', 1, ?, ?)",
            (self.SPEC.digest, self.SPEC.to_json(), now, now),
        )
        conn.execute(
            "INSERT INTO trial_cache (tenant, key, record, created_at) "
            "VALUES ('alice', 'cache-key', ?, ?)",
            (json.dumps({"cached": True}), now),
        )
        conn.execute(
            "INSERT INTO checkpoints (tenant, digest, trial_index, completed, "
            "session, updated_at) VALUES ('default', ?, ?, ?, ?, ?)",
            (self.SPEC.digest, ckpt["trial_index"], json.dumps(ckpt["completed"]),
             ckpt["session"], now),
        )
        # A boundary checkpoint of another tenant's job, two trials in.
        conn.execute(
            "INSERT INTO checkpoints (tenant, digest, trial_index, completed, "
            "session, updated_at) VALUES ('alice', ?, 2, ?, NULL, ?)",
            (done.digest, json.dumps([{"t": 0.1}, {"t": 1e-300}]), now),
        )
        conn.commit()
        conn.close()
        return done

    def assert_is_v2(self, path, ckpt):
        tables = table_columns(path)
        assert user_version(path) == 2
        assert "completed" in tables["checkpoints"]
        assert not {"checkpoint_trials", "checkpoints_v2"} & tables.keys()
        conn = sqlite3.connect(path)
        try:
            row = conn.execute(
                "SELECT completed, session FROM checkpoints WHERE digest = ?",
                (self.SPEC.digest,),
            ).fetchone()
        finally:
            conn.close()
        assert row == (json.dumps(ckpt["completed"]), ckpt["session"])

    def test_checkpoint_survives_exactly_and_resumes(self, tmp_path, interrupted):
        ckpt, uninterrupted = interrupted
        path = tmp_path / "v2.db"
        done = self._build_v2(path, ckpt)
        store = CampaignStore(path)
        try:
            # The records come back exactly, elapsed included.
            assert store.load_checkpoint(self.SPEC.digest) == ckpt
            assert store.load_checkpoint(done.digest, tenant="alice") == {
                "trial_index": 2, "completed": [{"t": 0.1}, {"t": 1e-300}],
                "session": None,
            }
            assert store.get(done.digest, tenant="alice").summary == {"trials": 2}
            assert store.trial_cache("alice").get("cache-key") == {"cached": True}
            payload = execute_spec_resumable(
                self.SPEC.canonical(), store, digest=self.SPEC.digest,
                checkpoint_interactions=40,
            )
        finally:
            store.close()
        assert payload["resumed"]
        assert payload["record"]["results"][0] == ckpt["completed"][0]
        assert scientific_content(payload["record"]) == scientific_content(uninterrupted)
        assert user_version(path) == 3

    def test_failure_mid_migration_leaves_v2_then_migrates(
        self, tmp_path, interrupted, monkeypatch
    ):
        ckpt, _ = interrupted
        path = tmp_path / "v2.db"
        self._build_v2(path, ckpt)

        def fail(conn, tenant, digest, first, records):
            raise RuntimeError("injected mid-migration failure")

        with monkeypatch.context() as m:
            m.setattr(store_module, "_insert_trials", fail)
            with pytest.raises(RuntimeError, match="injected"):
                CampaignStore(path)
        self.assert_is_v2(path, ckpt)

        store = CampaignStore(path)
        try:
            assert store.load_checkpoint(self.SPEC.digest) == ckpt
        finally:
            store.close()
        assert user_version(path) == 3

    def test_concurrent_openers_migrate_once(self, tmp_path, interrupted, monkeypatch):
        ckpt, _ = interrupted
        path = tmp_path / "v2.db"
        self._build_v2(path, ckpt)
        real_migrate = store_module._migrate_v2_to_v3
        migrations: list[str] = []
        migrating = threading.Event()

        def slow_migrate(conn):
            migrations.append(threading.current_thread().name)
            migrating.set()
            time.sleep(0.3)  # hold the write lock while the other opener arrives
            real_migrate(conn)

        monkeypatch.setattr(store_module, "_migrate_v2_to_v3", slow_migrate)
        stores: dict[str, CampaignStore] = {}
        errors: list[BaseException] = []

        def open_store(name):
            try:
                if name == "second":
                    assert migrating.wait(timeout=30)
                stores[name] = CampaignStore(path)
            except BaseException as exc:  # noqa: BLE001 — recorded for assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=open_store, args=(name,), name=name)
            for name in ("first", "second")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        try:
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert migrations == ["first"]
            for store in stores.values():
                assert store.load_checkpoint(self.SPEC.digest) == ckpt
            assert trial_row_count(stores["second"]) == 3
        finally:
            for store in stores.values():
                store.close()


class TestClaimRaces:
    def test_concurrent_claims_are_exactly_once(self, store):
        # BEGIN IMMEDIATE claim serialization: N workers hammering
        # claim_next must hand out each job exactly once.
        jobs = 30
        store.submit_many([make_spec(seed=s) for s in range(jobs)])
        claimed: list[str] = []
        lock = threading.Lock()
        errors: list[Exception] = []

        def drain():
            try:
                while True:
                    job = store.claim_next()
                    if job is None:
                        return
                    with lock:
                        claimed.append(job.digest)
            except Exception as exc:  # noqa: BLE001 — recorded for assertion
                errors.append(exc)

        threads = [threading.Thread(target=drain) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(claimed) == jobs
        assert len(set(claimed)) == jobs  # no digest claimed twice
        assert store.counts()["running"] == jobs

    def test_mixed_submit_claim_mark_race(self, store):
        # Submitters, claimers and markers all running at once: every
        # job must end the day done exactly once, attempts == 1.
        jobs = 24
        specs = [make_spec(seed=100 + s) for s in range(jobs)]
        errors: list[Exception] = []
        done = threading.Event()

        def submit_all():
            try:
                for spec in specs:
                    store.submit(spec)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def claim_and_mark():
            try:
                while not done.is_set():
                    job = store.claim_next()
                    if job is None:
                        if store.counts()["done"] >= jobs:
                            return
                        continue
                    store.mark_done(
                        job.digest, summary={"seed": job.spec.seed},
                        record={}, wall_time=0.0, tenant=job.tenant,
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                done.set()

        workers = [threading.Thread(target=claim_and_mark) for _ in range(6)]
        submitters = [threading.Thread(target=submit_all) for _ in range(2)]
        for t in workers + submitters:
            t.start()
        for t in submitters:
            t.join()
        for t in workers:
            t.join(timeout=60)
        done.set()
        assert errors == []
        counts = store.counts()
        assert counts["done"] == jobs and counts["pending"] == 0
        for spec in specs:
            job = store.get(spec.digest)
            assert job.status == "done" and job.attempts == 1
