"""Columnar shard store: round trips, streaming aggregation, telemetry.

The load-bearing suite is differential: :func:`repro.io.columnar.
group_reduce` over sharded on-disk stores must be *bit-identical* to
the naive in-memory :func:`group_reduce_rows` for every reducer —
including group keys that span shards and all-null value columns.
Both paths share one reduction kernel, and these tests pin that
contract with exact (float-equal) comparisons.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.io.columnar import (
    REDUCERS,
    ColumnarError,
    ColumnStore,
    ShardWriter,
    group_reduce,
    group_reduce_rows,
    is_column_store,
    reduce_values,
)
from repro.obs import Telemetry, use_telemetry
from repro.obs.telemetry import NullTelemetry


def _write(tmp_path, rows, *, shard_rows=4, name="t", params=None):
    with ShardWriter(
        tmp_path / "store", name=name, params=params, shard_rows=shard_rows
    ) as writer:
        writer.append_rows(rows)
    return ColumnStore(tmp_path / "store")


class TestRoundTrip:
    def test_rows_come_back_exactly(self, tmp_path):
        rows = [
            {"k": 2, "x": 1.5, "s": "alpha", "flag": True},
            {"k": 2, "x": None, "s": "beta", "flag": False},
            {"k": 3, "x": -2.0, "s": ""},  # missing 'flag'
            {"k": 3, "x": 7.25, "s": "gamma", "flag": True},
            {"k": 5, "x": 0.0, "s": "delta", "flag": None},
        ]
        store = _write(tmp_path, rows, shard_rows=2)
        assert list(store.iter_rows()) == rows
        assert store.rows == 5
        assert store.shard_count == 3

    def test_none_vs_missing_distinguished(self, tmp_path):
        rows = [{"a": 1, "b": None}, {"a": 2}]
        store = _write(tmp_path, rows)
        back = list(store.iter_rows())
        assert "b" in back[0] and back[0]["b"] is None
        assert "b" not in back[1]

    def test_column_kinds(self, tmp_path):
        rows = [{"i": 1, "f": 1.0, "b": True, "s": "x"}]
        store = _write(tmp_path, rows)
        assert store.columns == {"i": "int", "f": "float", "b": "bool", "s": "str"}

    def test_int64_overflow_falls_back_to_json(self, tmp_path):
        # Campaign point seeds are SHA-256-derived and exceed int64;
        # they must round-trip exactly rather than crash np.asarray.
        big = 2**200 + 17
        rows = [{"seed": big}, {"seed": -(2**63) - 1}, {"seed": 5}]
        store = _write(tmp_path, rows)
        assert [r["seed"] for r in store.iter_rows()] == [
            big, -(2**63) - 1, 5
        ]
        assert store.columns == {"seed": "json"}

    def test_int64_boundaries_stay_int(self, tmp_path):
        rows = [{"v": 2**63 - 1}, {"v": -(2**63)}]
        store = _write(tmp_path, rows)
        assert store.columns == {"v": "int"}
        assert [r["v"] for r in store.iter_rows()] == [2**63 - 1, -(2**63)]

    def test_mixed_type_column_falls_back_to_json(self, tmp_path):
        rows = [{"v": 1}, {"v": "one"}, {"v": 2.5}, {"v": False}]
        store = _write(tmp_path, rows, shard_rows=10)
        assert store.columns == {"v": "json"}
        assert [r["v"] for r in store.iter_rows()] == [1, "one", 2.5, False]

    def test_kind_promoted_to_mixed_across_shards(self, tmp_path):
        rows = [{"v": 1}, {"v": 2}, {"v": "three"}, {"v": "four"}]
        store = _write(tmp_path, rows, shard_rows=2)
        assert store.columns == {"v": "mixed"}
        assert [r["v"] for r in store.iter_rows()] == [1, 2, "three", "four"]

    def test_scan_unknown_column_yields_nones(self, tmp_path):
        store = _write(tmp_path, [{"a": 1}, {"a": 2}], shard_rows=2)
        (batch,) = list(store.scan(["ghost"]))
        assert batch["ghost"] == [None, None]

    def test_column_streams_one_column(self, tmp_path):
        rows = [{"a": i, "b": i * 2} for i in range(10)]
        store = _write(tmp_path, rows, shard_rows=3)
        assert store.column("b") == [i * 2 for i in range(10)]

    def test_manifest_carries_name_params_provenance(self, tmp_path):
        store = _write(tmp_path, [{"a": 1}], params={"k": 4, "trials": 2})
        assert store.name == "t"
        assert store.params == {"k": 4, "trials": 2}
        assert "numpy" in store.provenance
        info = store.info()
        assert info["rows"] == 1 and info["bytes"] > 0
        json.dumps(info)  # must be JSON-safe

    def test_is_column_store(self, tmp_path):
        store = _write(tmp_path, [{"a": 1}])
        assert is_column_store(store.path)
        assert not is_column_store(tmp_path)
        assert not is_column_store(tmp_path / "nowhere")


class TestWriterContract:
    def test_resume_continues_numbering_and_rows(self, tmp_path):
        path = tmp_path / "store"
        with ShardWriter(path, name="t", shard_rows=2) as w:
            w.append_rows([{"a": 1}, {"a": 2}, {"a": 3}])
        with ShardWriter(path, shard_rows=2) as w:
            w.append(a=4)
        store = ColumnStore(path)
        assert [r["a"] for r in store.iter_rows()] == [1, 2, 3, 4]
        assert store.shard_count == 3

    def test_resume_with_wrong_name_rejected(self, tmp_path):
        path = tmp_path / "store"
        with ShardWriter(path, name="t") as w:
            w.append(a=1)
        with pytest.raises(ColumnarError, match="holds table"):
            ShardWriter(path, name="other")

    def test_append_keyed_is_idempotent(self, tmp_path):
        path = tmp_path / "store"
        with ShardWriter(path, name="t") as w:
            assert w.append_keyed("job-1", [{"a": 1}, {"a": 2}])
            assert not w.append_keyed("job-1", [{"a": 99}])
            assert w.has_key("job-1")
        # Keys survive reopening — the campaign re-drain path.
        with ShardWriter(path) as w:
            assert w.has_key("job-1")
            assert not w.append_keyed("job-1", [{"a": 99}])
            assert w.append_keyed("job-2", [{"a": 3}])
        assert [r["a"] for r in ColumnStore(path).iter_rows()] == [1, 2, 3]

    @pytest.mark.parametrize("rows", [1, 5, 11])
    def test_one_manifest_write_per_keyed_append(self, tmp_path, monkeypatch, rows):
        from repro.io import columnar

        writes = []
        real_replace = columnar.os.replace
        monkeypatch.setattr(
            columnar.os, "replace",
            lambda src, dst: (writes.append(dst), real_replace(src, dst)),
        )
        with ShardWriter(tmp_path / "store", name="t", shard_rows=4) as w:
            writes.clear()
            for job in range(3):
                w.append_keyed(f"job-{job}", [{"a": i} for i in range(rows)])
            assert len(writes) == 3  # however many shards a batch spans
            w.append_keyed("job-0", [{"a": 99}])
            assert len(writes) == 3  # a known key writes nothing
        store = ColumnStore(tmp_path / "store")
        assert store.rows == 3 * rows

    def test_manifest_keys_name_rows_in_its_shards(self, tmp_path, monkeypatch):
        # Check every manifest a crash could leave behind: each key names
        # rows in the shards it lists, and no listed row lacks its key.
        from repro.io import columnar

        path = tmp_path / "store"
        states = []

        def check():
            store = ColumnStore(path)
            jobs = {row["job"] for row in store.iter_rows()}
            assert jobs == set(store.keys)
            states.append(store.rows)

        real_replace = columnar.os.replace
        monkeypatch.setattr(
            columnar.os, "replace",
            lambda src, dst: (real_replace(src, dst), check()),
        )
        writer = ShardWriter(path, name="t", shard_rows=3)
        for job, rows in (("job-a", 4), ("job-b", 2), ("job-c", 7)):
            writer.append_keyed(job, [{"job": job, "i": i} for i in range(rows)])
        assert states == [0, 4, 6, 13]

        # A crash before the publishing replace leaves the last published
        # state, and a resumed writer overwrites the unpublished shards.
        def crash(src, dst):
            raise OSError("killed before the manifest replace")

        monkeypatch.setattr(columnar.os, "replace", crash)
        with pytest.raises(OSError, match="killed"):
            writer.append_keyed("job-d", [{"job": "job-d", "i": i} for i in range(5)])
        monkeypatch.setattr(columnar.os, "replace", real_replace)
        assert ColumnStore(path).rows == 13
        with ShardWriter(path) as w:
            assert w.append_keyed("job-d", [{"job": "job-d", "i": i} for i in range(5)])
        check()
        assert ColumnStore(path).rows == 18

    def test_rejects_non_scalar_cells(self, tmp_path):
        with ShardWriter(tmp_path / "store", name="t") as w:
            with pytest.raises(ColumnarError, match="scalar"):
                w.append(a=[1, 2])

    def test_append_arrays_rejects_ragged_columns(self, tmp_path):
        with ShardWriter(tmp_path / "store", name="t") as w:
            with pytest.raises(ColumnarError, match="equal-length"):
                w.append_arrays(a=[1, 2], b=[1])

    def test_flush_on_kill_leaves_readable_store(self, tmp_path):
        path = tmp_path / "store"
        writer = ShardWriter(path, name="t", shard_rows=2)
        writer.append_rows([{"a": 1}, {"a": 2}, {"a": 3}])
        # No close(): simulate a crash after the last full-shard flush.
        store = ColumnStore(path)
        assert [r["a"] for r in store.iter_rows()] == [1, 2]

    def test_corrupt_manifest_raises(self, tmp_path):
        path = tmp_path / "store"
        with ShardWriter(path, name="t") as w:
            w.append(a=1)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(ColumnarError, match="corrupt"):
            ColumnStore(path)


def _random_rows(rng: random.Random, n_rows: int) -> list[dict]:
    rows = []
    for _ in range(n_rows):
        row: dict = {"g": rng.choice(["a", "b", "c"]), "k": rng.randint(0, 2)}
        if rng.random() < 0.85:
            row["x"] = rng.choice(
                [rng.uniform(-10, 10), float(rng.randint(-5, 5)), None]
            )
        if rng.random() < 0.5:
            row["y"] = rng.randint(-100, 100)
        row["dead"] = None  # an all-null column
        rows.append(row)
    return rows


class TestDifferentialGroupReduce:
    """Sharded streaming aggregation == naive in-memory, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shard_rows", [1, 3, 7, 64])
    def test_random_tables_all_reducers(self, tmp_path, seed, shard_rows):
        rng = random.Random(seed)
        rows = _random_rows(rng, rng.randint(5, 60))
        store = _write(tmp_path, rows, shard_rows=shard_rows)
        kwargs = dict(
            by=["g", "k"],
            values=["x", "y", "dead"],
            reducers=REDUCERS,
            quantiles=(0.1, 0.5, 0.9),
        )
        streamed = group_reduce(store, **kwargs)
        naive = group_reduce_rows(rows, **kwargs)
        assert streamed == naive  # exact, including float bits

    @pytest.mark.parametrize("reducer", REDUCERS)
    def test_each_reducer_individually(self, tmp_path, reducer):
        rng = random.Random(99)
        rows = _random_rows(rng, 40)
        store = _write(tmp_path, rows, shard_rows=5)
        kwargs = dict(by=["g"], values=["x"], reducers=(reducer,))
        assert group_reduce(store, **kwargs) == group_reduce_rows(rows, **kwargs)

    def test_group_keys_spanning_shards(self, tmp_path):
        # Every shard holds one row of each group: maximal key spread.
        rows = [{"g": i % 2, "x": float(i)} for i in range(20)]
        store = _write(tmp_path, rows, shard_rows=2)
        kwargs = dict(by=["g"], values=["x"], quantiles=(0.25, 0.75))
        streamed = group_reduce(store, **kwargs)
        assert streamed == group_reduce_rows(rows, **kwargs)
        assert [row["count"] for row in streamed] == [10, 10]

    def test_all_null_group_reports_count_zero(self, tmp_path):
        rows = [{"g": "a", "x": None}, {"g": "a", "x": None}, {"g": "b", "x": 1.0}]
        store = _write(tmp_path, rows)
        kwargs = dict(by=["g"], values=["x"], quantiles=(0.5,))
        streamed = group_reduce(store, **kwargs)
        assert streamed == group_reduce_rows(rows, **kwargs)
        null_group = streamed[0]
        assert null_group["g"] == "a"
        assert null_group["count"] == 0
        assert null_group["mean"] is None and null_group["p50"] is None

    def test_multi_value_columns_get_prefixed_stats(self, tmp_path):
        rows = [{"g": 1, "x": 2.0, "y": 3.0}]
        store = _write(tmp_path, rows)
        (row,) = group_reduce(store, by=["g"], values=["x", "y"])
        assert row["x_mean"] == 2.0 and row["y_mean"] == 3.0

    def test_reduce_values_matches_numpy_reference(self):
        data = np.array([1.0, 2.0, 4.0, 8.0])
        stats = reduce_values(data, quantiles=(0.5,))
        assert stats["mean"] == float(np.mean(data))
        assert stats["var"] == float(np.var(data))
        assert stats["p50"] == float(np.quantile(data, 0.5))

    def test_validation_errors(self, tmp_path):
        store = _write(tmp_path, [{"g": 1, "x": 1.0}])
        with pytest.raises(ColumnarError, match="'by'"):
            group_reduce(store, by=[], values=["x"])
        with pytest.raises(ColumnarError, match="value column"):
            group_reduce(store, by=["g"], values=[])
        with pytest.raises(ColumnarError, match="unknown reducer"):
            group_reduce(store, by=["g"], values=["x"], reducers=("median",))


class TestMillionRowCampaign:
    """The acceptance bar: 10^6 trial rows, incremental, bounded memory."""

    def test_million_rows_bounded_buffer_and_exact_aggregation(self, tmp_path):
        n_rows = 1_000_000
        rng = np.random.default_rng(7)
        ks = rng.integers(2, 10, size=n_rows)
        ns = 10 ** rng.integers(3, 7, size=n_rows)
        interactions = rng.integers(1, 10**9, size=n_rows)

        writer = ShardWriter(tmp_path / "store", name="campaign_trials")
        # Feed in slices, as a drain would; the writer's high-water mark
        # (its RSS proxy) must stay at one shard regardless of volume.
        step = 200_000
        for lo in range(0, n_rows, step):
            hi = lo + step
            writer.append_arrays(
                k=ks[lo:hi], n=ns[lo:hi], interactions=interactions[lo:hi]
            )
        store = writer.close()

        assert store.rows == n_rows
        expected_shards = -(-n_rows // writer.shard_rows)
        assert store.shard_count == expected_shards
        assert store.shard_count >= 15
        assert writer.max_buffered <= writer.shard_rows

        streamed = group_reduce(
            store, by=["k"], values=["interactions"], quantiles=(0.5, 0.99)
        )
        rows = [
            {"k": int(k), "interactions": int(v)}
            for k, v in zip(ks.tolist(), interactions.tolist())
        ]
        assert streamed == group_reduce_rows(
            rows, by=["k"], values=["interactions"], quantiles=(0.5, 0.99)
        )
        assert sum(row["count"] for row in streamed) == n_rows


class TestTelemetry:
    def test_counters_emitted_when_enabled(self, tmp_path):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            store = _write(tmp_path, [{"a": i} for i in range(5)], shard_rows=2)
            list(store.scan(["a"]))
        snap = telemetry.snapshot()
        counters = snap["counters"]
        assert counters["results.shards.written"] == 3
        assert counters["results.shards.rows"] == 5
        assert counters["results.shards.bytes"] > 0
        assert counters["results.shards.scan_rows"] == 5

    def test_zero_cost_when_disabled(self, tmp_path):
        class BoobyTrapped(NullTelemetry):
            def counter(self, name):  # pragma: no cover — must not run
                raise AssertionError("counter() called while disabled")

            def gauge(self, name):  # pragma: no cover
                raise AssertionError("gauge() called while disabled")

            def histogram(self, name):  # pragma: no cover
                raise AssertionError("histogram() called while disabled")

        with use_telemetry(BoobyTrapped()):
            store = _write(tmp_path, [{"a": 1}, {"a": 2}], shard_rows=1)
            list(store.iter_rows())
            group_reduce(store, by=["a"], values=["a"])
