"""Pinned records of the pair-stepping engines.

The agent-vs-batch equality tests compare two engines with each other,
so a change to a pair draw that both engines share would still pass
them.  These digests compare each engine with its own past output: any
change to how a uniform pair or a random edge is drawn, to the refill
size or to the refill order moves them.  A pinned ``count`` snapshot
checks that a state written by an older release still resumes to the
same record on either kernel backend.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine import CountBasedEngine, engine_for_scheduler, reset_kernels
from repro.protocols import uniform_k_partition

#: (engine, scheduler) -> SHA-256 of the records of seeds 0, 1, 2 at
#: k = 3, n = 30, tracking g3, with ``elapsed`` stripped.
PINNED_RECORDS = {
    ("agent", "uniform"): "f81620a2f687cad56bcebf2598b38481f4b46ca1187c1da95c1a35b55a7109ec",
    ("batch", "uniform"): "bae412864436f47b832012252cf43264779b1f893ebc130ed2e5a9090ba7135a",
    ("batch-jit", "uniform"): "ae6464260a929cea6ea335698af993475ad0ff7d5326594ab3eaebc59f745149",
    ("hybrid", "uniform"): "a699fb22e2e003235df6780c94daa3a1f12daab4f9a39456601f0170e2865c8a",
    ("graph", "graph:cycle"): "29805419ac93913d14b57f75e05a5296da7eebe42074950f492a78206d986433",
    ("graph", "graph:regular:4"): "459d338832316e7ddff68ebf615be3b7286525357db1826a90a9b707291c4cae",
    ("agent", "graph:cycle"): "841977f603dfa0a5d9ad52a20f9ff1af4d2a30f8d1555f27882af96d90712ad7",
    ("agent", "roundrobin"): "00390a937c4ac79efbc2c2ce6cd9041565d642cda1f26e2229657ebc8c73ab93",
}


@pytest.mark.parametrize(
    "case", sorted(PINNED_RECORDS), ids=lambda case: f"{case[0]}-{case[1]}"
)
def test_records_unchanged(case):
    engine, scheduler = case
    protocol = uniform_k_partition(3)
    records = []
    for seed in (0, 1, 2):
        result = engine_for_scheduler(engine, scheduler).run(
            protocol, 30, seed=seed, max_interactions=20_000, track_state="g3"
        )
        record = result.to_record()
        del record["elapsed"]
        records.append(record)
    payload = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_RECORDS[case]


#: A ``count`` snapshot written before the kernel chain bound its
#: arguments once and dropped its Fenwick tree: k = 3, n = 300, seed 11,
#: tracking g3, taken after ``advance(2_000)``.
PINNED_COUNT_STATE = Path(__file__).parent / "data" / "count-k3-n300-seed11-at2000.state"
#: SHA-256 of the straight run's record (``elapsed`` stripped).
PINNED_COUNT_RECORD = "3f8a10835290c804e39726637716ab8b35844fa107e3d0147195cead748ee846"


@pytest.mark.parametrize("backend", ["auto", "python"])
def test_pinned_count_snapshot_resumes_to_the_straight_run(monkeypatch, backend):
    monkeypatch.setenv("REPRO_KERNEL", backend)
    reset_kernels()
    try:
        session = CountBasedEngine().start(
            uniform_k_partition(3), 300, seed=0, track_state="g3"
        )
        session.restore(PINNED_COUNT_STATE.read_bytes())
        assert session.interactions >= 2_000
        session.advance()
        record = session.result().to_record()
    finally:
        monkeypatch.undo()
        reset_kernels()
    del record["elapsed"]
    payload = json.dumps(record, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_COUNT_RECORD
