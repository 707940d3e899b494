"""Time-travel pins: rewind any checkpoint, re-advance, get the same run.

Two layers of the guarantee:

* Driven sessions are pure functions of (schedule, protocol), so
  rewind-and-replay must reproduce the terminal result bit-for-bit for
  every engine data path the differ can drive.
* Free sessions carry their RNG state (and pre-drawn randomness) in
  every checkpoint, so rewinding and re-advancing must also be
  bit-identical — for every engine in the registry, jump chains and
  sharded ensembles included.
"""

from __future__ import annotations

import pytest

from repro.conform import ENGINE_PATHS
from repro.core import SimulationError
from repro.engine import available_engines


def science(record: dict) -> dict:
    rec = dict(record)
    rec.pop("elapsed")
    return rec


@pytest.mark.parametrize("engine", ENGINE_PATHS)
def test_driven_rewind_replay_is_bit_identical(
    manager, driven_config, schedule, engine
):
    sid = f"drv-{engine}"
    manager.create(dict(driven_config, engine=engine), session_id=sid)
    manager.advance(sid)
    original = manager.result(sid)
    stored = [s.interactions for s in manager.store.list_snapshots(sid)]
    assert stored[0] == 0 and stored[-1] == schedule.interactions
    # Every stored checkpoint — including interaction 0 — must replay
    # to the identical terminal result.
    for at in stored:
        info = manager.rewind(sid, at)
        assert info["interactions"] == at
        manager.advance(sid)
        assert manager.result(sid) == original


@pytest.mark.parametrize("engine", sorted(available_engines()))
def test_free_rewind_replay_is_bit_identical(manager, free_config, engine):
    sid = f"free-{engine}"
    manager.create(dict(free_config, engine=engine), session_id=sid)
    manager.advance(sid)
    original = science(manager.result(sid))
    stored = [s.interactions for s in manager.store.list_snapshots(sid)]
    assert len(stored) >= 2
    for at in (stored[0], stored[len(stored) // 2]):
        manager.rewind(sid, at)
        manager.advance(sid)
        assert science(manager.result(sid)) == original


def test_rewind_requires_an_exact_checkpoint(manager, driven_config):
    manager.create(driven_config, session_id="a")
    manager.advance("a", 100)
    with pytest.raises(SimulationError, match="no checkpoint at 63"):
        manager.rewind("a", 63)


def test_rewind_reopens_a_terminal_session(manager, driven_config, schedule):
    manager.create(driven_config, session_id="a")
    manager.advance("a")
    assert manager.status("a")["status"] == "converged"
    info = manager.rewind("a", 0)
    assert info["status"] == "running"
    assert info["interactions"] == 0
    # And rewinding to the terminal checkpoint is terminal again.
    info = manager.rewind("a", schedule.interactions)
    assert info["status"] == "converged"
