"""Fork determinism: a branch and its parent replay identically.

Extends the PR 5 sliced-parity suite through the sessiond path: fork a
driven session at a mid-run checkpoint C, advance parent and child to
the end of the same recorded schedule, and require bit-identical
terminal results for every engine data path.  Also pins the lineage
bookkeeping and the content-addressed blob sharing the fork relies on.
"""

from __future__ import annotations

import pytest

from repro.conform import ENGINE_PATHS


@pytest.mark.parametrize("engine", ENGINE_PATHS)
def test_fork_then_advance_matches_parent(
    manager, driven_config, schedule, engine
):
    parent = f"p-{engine}"
    child = f"c-{engine}"
    manager.create(dict(driven_config, engine=engine), session_id=parent)
    manager.advance(parent, 128)  # cadence 64 → checkpoints at 0/64/128
    info = manager.fork(parent, at=64, child_id=child)
    assert info["interactions"] == 64
    assert info["lineage"] == [
        {"id": parent, "forked_at": None},
        {"id": child, "forked_at": 64},
    ]
    manager.advance(parent)
    manager.advance(child)
    assert manager.result(parent) == manager.result(child)
    assert manager.result(parent)["final_counts"] == schedule.final_counts


def test_fork_shares_the_checkpoint_blob(manager, driven_config):
    manager.create(driven_config, session_id="p")
    manager.advance("p", 64)
    before = manager.store.stats()["blobs"]
    manager.fork("p", at=64, child_id="c")
    assert manager.store.stats()["blobs"] == before
    parent_digest = {
        s.interactions: s.digest for s in manager.store.list_snapshots("p")
    }
    child_digest = {
        s.interactions: s.digest for s in manager.store.list_snapshots("c")
    }
    assert child_digest == {64: parent_digest[64]}


def test_fork_defaults_to_the_current_cursor(manager, free_config):
    manager.create(free_config, session_id="p")
    manager.advance("p", 100)
    at = manager.status("p")["interactions"]
    info = manager.fork("p", child_id="c")
    assert info["interactions"] == at
    row = manager.store.require_session("c")
    assert row.parent_id == "p"
    assert row.parent_interactions == at


def test_fork_base_survives_gc(manager, driven_config):
    manager.create(driven_config, session_id="p")
    manager.advance("p")
    manager.fork("p", at=64, child_id="c")
    manager.gc()
    kept = [s.interactions for s in manager.store.list_snapshots("p")]
    assert 64 in kept
