"""Columnar result backbone: out-of-core shard files for trial records.

Million-trial campaigns cannot live in a whole-file JSON table — they
can neither be written incrementally nor aggregated without
materializing everything.  This module is the storage refactor behind
the scaling-law study: a :class:`ColumnStore` is a *directory* of
packed-NumPy shard files (one typed array per column per shard, a tag
array distinguishing values from explicit ``None`` and missing cells)
plus a JSON manifest carrying name, parameter manifest, provenance,
column dtypes, and the shard index.

Writing is append-only and bounded-memory: a :class:`ShardWriter`
buffers at most ``shard_rows`` rows, flushes each full buffer as one
immutable ``shard-NNNNN.npz`` file, and rewrites the manifest
atomically (tmp + rename), so a killed writer leaves a readable store
containing every fully flushed shard.  ``append_keyed`` makes writes
idempotent by caller-chosen keys — the campaign executor uses job
digests so a resumed drain never duplicates trial rows.

Reading is streaming: :meth:`ColumnStore.scan` yields one decoded
shard at a time, and :func:`group_reduce` aggregates (count / mean /
var / min / max / quantiles per group key) while holding one shard of
raw data plus only the *requested value columns* in memory.  The
reductions are computed by the same :func:`reduce_values` kernel as
the in-memory reference :func:`group_reduce_rows`, so the sharded
path is bit-identical to the naive one (differentially tested in
``tests/io/test_columnar.py``).

Column typing: every column is one of ``int`` (int64), ``float``
(float64), ``bool``, ``str`` (unicode), or ``json`` — the lossless
fallback a shard falls into when a column mixes scalar types, where
each cell is stored as its JSON encoding.  Kinds are resolved per
shard, so late-arriving type changes never rewrite old shards.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..core.errors import ReproError
from ..obs.instruments import record_scan_rows, record_shard_write
from ..obs.trace import git_rev

__all__ = [
    "ColumnStore",
    "ShardWriter",
    "ColumnarError",
    "group_reduce",
    "group_reduce_rows",
    "reduce_values",
    "is_column_store",
    "DEFAULT_SHARD_ROWS",
    "MANIFEST_NAME",
    "FORMAT_VERSION",
]

#: Rows buffered before a shard is flushed (and therefore the writer's
#: peak in-memory row count).  64Ki rows of a handful of float64
#: columns is a few megabytes — small enough that a million-row
#: campaign never holds more than a sliver of itself in RAM, large
#: enough that shard-file overhead stays negligible.
DEFAULT_SHARD_ROWS = 65_536

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1

_SCALARS = (str, int, float, bool, type(None))

#: Cell tags stored alongside every column.
_TAG_VALUE = 0
_TAG_NONE = 1  # the cell holds an explicit ``None``
_TAG_MISSING = 2  # the record had no such key at all

_FILL = {"int": 0, "float": 0.0, "bool": False, "str": "", "json": "null"}


class ColumnarError(ReproError):
    """A malformed store, manifest, or write-path misuse."""


def is_column_store(path: str | Path) -> bool:
    """True when ``path`` is a directory holding a columnar manifest."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def _provenance() -> dict:
    """Best-effort provenance block (mirrors the campaign store's)."""
    from .. import __version__

    return {
        "git_rev": git_rev(),
        "package_version": __version__,
        "numpy": np.__version__,
        "created_at": time.time(),
    }


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _kind_of(value: object) -> str:
    # bool before int: Python bools are ints.
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        # Arbitrary-precision ints (e.g. SHA-256-derived campaign
        # seeds) overflow int64 — store them as JSON text instead.
        if _INT64_MIN <= value <= _INT64_MAX:
            return "int"
        return "json"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    raise ColumnarError(
        f"column cells must be scalars; got {type(value).__name__}"
    )


def _resolve_kind(values: list[object], tags: list[int]) -> str:
    """One shard's column kind: a single scalar type, or ``json``."""
    kind: str | None = None
    for value, tag in zip(values, tags):
        if tag != _TAG_VALUE:
            continue
        k = _kind_of(value)
        if kind is None:
            kind = k
        elif kind != k:
            return "json"
    return kind or "json"


def _encode_column(
    values: list[object], tags: list[int]
) -> tuple[str, np.ndarray, np.ndarray]:
    """Pack one column as (kind, value array, tag array)."""
    kind = _resolve_kind(values, tags)
    fill = _FILL[kind]
    if kind == "json":
        cells = [
            json.dumps(v) if t == _TAG_VALUE else fill
            for v, t in zip(values, tags)
        ]
        arr = np.asarray(cells, dtype=np.str_)
    elif kind == "str":
        cells = [v if t == _TAG_VALUE else fill for v, t in zip(values, tags)]
        arr = np.asarray(cells, dtype=np.str_)
    else:
        dtype = {"int": np.int64, "float": np.float64, "bool": np.bool_}[kind]
        cells = [v if t == _TAG_VALUE else fill for v, t in zip(values, tags)]
        arr = np.asarray(cells, dtype=dtype)
    return kind, arr, np.asarray(tags, dtype=np.int8)


def _decode_column(kind: str, arr: np.ndarray, tags: np.ndarray) -> list[object]:
    """Unpack one column to Python scalars (``None`` for null/missing)."""
    if kind == "json":
        raw = [json.loads(v) for v in arr.tolist()]
    else:
        raw = arr.tolist()  # C-speed conversion to Python scalars
    if tags.any():
        return [
            None if t else v for v, t in zip(raw, tags.tolist())
        ]
    return raw


def _merge_kind(a: str | None, b: str) -> str:
    if a is None or a == b:
        return b
    return "mixed"


class ShardWriter:
    """Append-only, bounded-memory writer for a :class:`ColumnStore`.

    Opening a path that already holds a store *resumes* it: new shards
    continue the numbering and the manifest's row/key bookkeeping picks
    up where the previous writer stopped.  ``name``/``params`` must
    then match the existing manifest (or be omitted).

    Durability: :meth:`flush` makes everything appended so far
    readable; the campaign executor flushes after every job so a crash
    loses at most the unflushed buffer.  Use as a context manager to
    flush on the way out.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        name: str | None = None,
        params: Mapping[str, object] | None = None,
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> None:
        if shard_rows < 1:
            raise ColumnarError(f"shard_rows must be positive, got {shard_rows}")
        self.path = Path(path)
        self.shard_rows = shard_rows
        self.path.mkdir(parents=True, exist_ok=True)
        manifest_path = self.path / MANIFEST_NAME
        if manifest_path.exists():
            self._manifest = _read_manifest(self.path)
            if name is not None and name != self._manifest["name"]:
                raise ColumnarError(
                    f"store {self.path} holds table "
                    f"{self._manifest['name']!r}, not {name!r}"
                )
            if params:
                self._manifest["params"].update(dict(params))
        else:
            self._manifest = {
                "format": "repro-columnar",
                "version": FORMAT_VERSION,
                "name": name if name is not None else self.path.stem,
                "params": dict(params) if params else {},
                "provenance": _provenance(),
                "columns": {},
                "shards": [],
                "rows": 0,
                "keys": [],
            }
            self._write_manifest()
        self._keys: set[str] = set(self._manifest["keys"])
        # True while the in-memory manifest lists shards or keys that the
        # manifest file does not; flush() publishes them.
        self._unpublished = False
        # Column-major buffer: name -> (values, tags), all equal length.
        self._buffer: dict[str, tuple[list[object], list[int]]] = {}
        self._buffered = 0
        #: High-water mark of buffered rows — the memory-bound proxy the
        #: incremental-write tests assert on.
        self.max_buffered = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, **record: object) -> None:
        """Add one record (keyword arguments become columns)."""
        self.append_row(record)

    def append_row(self, record: Mapping[str, object]) -> None:
        self._append_cells(record)
        if self._buffered >= self.shard_rows:
            self.flush()

    def append_rows(self, records: Iterable[Mapping[str, object]]) -> None:
        for record in records:
            self.append_row(record)

    def append_arrays(self, **columns: Sequence[object]) -> None:
        """Bulk-append equal-length columns (lists or NumPy arrays).

        The vectorized ingestion path: a million synthetic rows arrive
        as a handful of arrays, chunked internally so the buffer never
        exceeds ``shard_rows``.
        """
        if not columns:
            return
        lists = {
            k: (v.tolist() if isinstance(v, np.ndarray) else list(v))
            for k, v in columns.items()
        }
        lengths = {len(v) for v in lists.values()}
        if len(lengths) != 1:
            raise ColumnarError(
                f"append_arrays needs equal-length columns, got {sorted(lengths)}"
            )
        (total,) = lengths
        offset = 0
        while offset < total:
            take = min(self.shard_rows - self._buffered, total - offset)
            for name, values in lists.items():
                vals, tags = self._column_buffer(name)
                chunk = values[offset:offset + take]
                vals.extend(chunk)
                tags.extend(
                    _TAG_NONE if v is None else _TAG_VALUE for v in chunk
                )
            self._buffered += take
            self.max_buffered = max(self.max_buffered, self._buffered)
            offset += take
            if self._buffered >= self.shard_rows:
                self.flush()

    def append_keyed(
        self, key: str, records: Iterable[Mapping[str, object]]
    ) -> bool:
        """Append a batch under an idempotency key; False when skipped.

        A key that the manifest already records is a no-op — the hook
        that lets a resumed campaign drain re-commit a job without
        duplicating its trial rows.  The batch's shards are written
        first and then one manifest replace publishes them together
        with the key, so the key and its rows become durable at once: a
        crash before the replace leaves only unreferenced shard files,
        which the next writer overwrites.
        """
        if key in self._keys:
            return False
        for record in records:
            self._append_cells(record)
            if self._buffered >= self.shard_rows:
                self._flush_shard()
        self._keys.add(key)
        self._manifest["keys"] = sorted(self._keys)
        self._unpublished = True
        self.flush()
        return True

    def has_key(self, key: str) -> bool:
        return key in self._keys

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _column_buffer(self, name: str) -> tuple[list[object], list[int]]:
        entry = self._buffer.get(name)
        if entry is None:
            # Column first seen mid-shard: backfill as missing.
            vals: list[object] = [None] * self._buffered
            tags: list[int] = [_TAG_MISSING] * self._buffered
            entry = (vals, tags)
            self._buffer[name] = entry
        return entry

    def _append_cells(self, record: Mapping[str, object]) -> None:
        """Buffer one checked row; the caller writes a full buffer."""
        for key, value in record.items():
            if not isinstance(key, str):
                raise ColumnarError(f"column names must be strings, got {key!r}")
            if not isinstance(value, _SCALARS):
                raise ColumnarError(
                    f"cells must be scalars; {key!r} has {type(value).__name__}"
                )
        for name in record:
            self._column_buffer(name)
        for name, (vals, tags) in self._buffer.items():
            if name in record:
                value = record[name]
                vals.append(value)
                tags.append(_TAG_NONE if value is None else _TAG_VALUE)
            else:
                vals.append(None)
                tags.append(_TAG_MISSING)
        self._buffered += 1
        self.max_buffered = max(self.max_buffered, self._buffered)

    def _flush_shard(self) -> None:
        """Write the buffered rows as a shard file and enter it in the
        in-memory manifest; :meth:`flush` publishes it."""
        if self._buffered == 0:
            return
        index = len(self._manifest["shards"])
        filename = f"shard-{index:05d}.npz"
        arrays: dict[str, np.ndarray] = {}
        shard_columns: dict[str, str] = {}
        for name, (vals, tags) in self._buffer.items():
            kind, arr, tag_arr = _encode_column(vals, tags)
            shard_columns[name] = kind
            arrays[f"v::{name}"] = arr
            arrays[f"t::{name}"] = tag_arr
        shard_path = self.path / filename
        with shard_path.open("wb") as fh:
            np.savez(fh, **arrays)
        self._manifest["shards"].append(
            {"file": filename, "rows": self._buffered, "columns": shard_columns}
        )
        self._manifest["rows"] += self._buffered
        for name, kind in shard_columns.items():
            merged = _merge_kind(self._manifest["columns"].get(name), kind)
            self._manifest["columns"][name] = merged
        record_shard_write(rows=self._buffered, size=shard_path.stat().st_size)
        self._buffer = {}
        self._buffered = 0
        self._unpublished = True

    def _write_manifest(self) -> None:
        tmp = self.path / (MANIFEST_NAME + ".tmp")
        # Compact: the manifest lists every shard and key, and the
        # indented encoder is the pure-Python one.
        tmp.write_text(json.dumps(self._manifest) + "\n")
        os.replace(tmp, self.path / MANIFEST_NAME)
        self._unpublished = False

    def flush(self) -> None:
        """Write any buffered rows as a (possibly short) shard, then
        publish the manifest with one replace if anything changed."""
        self._flush_shard()
        if self._unpublished:
            self._write_manifest()

    def close(self) -> "ColumnStore":
        """Flush and return a reader over everything written."""
        self.flush()
        return ColumnStore(self.path)

    @property
    def rows_written(self) -> int:
        return self._manifest["rows"] + self._buffered

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()


def _read_manifest(path: Path) -> dict:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ColumnarError(f"no columnar manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ColumnarError(f"corrupt manifest at {manifest_path}: {exc}") from exc
    if manifest.get("format") != "repro-columnar":
        raise ColumnarError(
            f"{manifest_path} is not a repro columnar manifest"
        )
    if manifest.get("version", 0) > FORMAT_VERSION:
        raise ColumnarError(
            f"store {path} has format version {manifest['version']}; "
            f"this build reads up to {FORMAT_VERSION}"
        )
    manifest.setdefault("keys", [])
    manifest.setdefault("params", {})
    manifest.setdefault("columns", {})
    return manifest


class ColumnStore:
    """Read view over a shard directory written by :class:`ShardWriter`."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._manifest = _read_manifest(self.path)

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._manifest["name"]

    @property
    def params(self) -> dict:
        return self._manifest["params"]

    @property
    def provenance(self) -> dict:
        return self._manifest.get("provenance", {})

    @property
    def rows(self) -> int:
        return self._manifest["rows"]

    @property
    def shard_count(self) -> int:
        return len(self._manifest["shards"])

    @property
    def columns(self) -> dict[str, str]:
        """Column name -> promoted kind (``mixed`` when shards disagree)."""
        return dict(self._manifest["columns"])

    @property
    def keys(self) -> list[str]:
        return list(self._manifest["keys"])

    def __len__(self) -> int:
        return self.rows

    def size_bytes(self) -> int:
        """Total on-disk footprint (shards + manifest)."""
        total = (self.path / MANIFEST_NAME).stat().st_size
        for shard in self._manifest["shards"]:
            total += (self.path / shard["file"]).stat().st_size
        return total

    def info(self) -> dict:
        """JSON-safe summary (the ``results info`` payload)."""
        return {
            "path": str(self.path),
            "name": self.name,
            "rows": self.rows,
            "shards": self.shard_count,
            "bytes": self.size_bytes(),
            "columns": self.columns,
            "keys": len(self._manifest["keys"]),
            "params": self.params,
            "provenance": self.provenance,
        }

    # ------------------------------------------------------------------
    # Streaming reads
    # ------------------------------------------------------------------
    def scan(
        self, columns: Sequence[str] | None = None
    ) -> Iterator[dict[str, list[object]]]:
        """Yield one decoded shard at a time as ``{column: values}``.

        Values are Python scalars; null and missing cells are ``None``.
        Never holds more than one shard in memory.  Requesting a column
        a shard never saw yields all-``None`` for that shard.
        """
        wanted = None if columns is None else list(columns)
        for shard in self._manifest["shards"]:
            with np.load(self.path / shard["file"]) as npz:
                names = wanted
                if names is None:
                    names = [k[3:] for k in npz.files if k.startswith("v::")]
                batch: dict[str, list[object]] = {}
                for name in names:
                    kind = shard["columns"].get(name)
                    if kind is None:
                        batch[name] = [None] * shard["rows"]
                        continue
                    batch[name] = _decode_column(
                        kind, npz[f"v::{name}"], npz[f"t::{name}"]
                    )
            record_scan_rows(shard["rows"])
            yield batch

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Stream records; missing cells are omitted, ``None`` kept.

        Reconstructs exactly the dicts that were appended (the tag
        array distinguishes an explicit ``None`` cell from an absent
        key), shard by shard.
        """
        for shard in self._manifest["shards"]:
            with np.load(self.path / shard["file"]) as npz:
                names = [k[3:] for k in npz.files if k.startswith("v::")]
                decoded = {}
                tags = {}
                for name in names:
                    kind = shard["columns"][name]
                    arr, tag = npz[f"v::{name}"], npz[f"t::{name}"]
                    decoded[name] = _decode_column(kind, arr, tag)
                    tags[name] = tag.tolist()
            record_scan_rows(shard["rows"])
            for i in range(shard["rows"]):
                row = {
                    name: decoded[name][i]
                    for name in names
                    if tags[name][i] != _TAG_MISSING
                }
                yield row

    def column(self, name: str) -> list[object]:
        """One full column (missing/null cells are ``None``).

        Materializes that column only — the streaming alternative to a
        whole-table load.
        """
        out: list[object] = []
        for batch in self.scan([name]):
            out.extend(batch[name])
        return out


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

REDUCERS = ("count", "mean", "var", "min", "max")


def reduce_values(
    values: np.ndarray,
    *,
    reducers: Sequence[str] = REDUCERS,
    quantiles: Sequence[float] = (),
) -> dict[str, object]:
    """Compute the requested statistics over one group's value array.

    The *single* reduction kernel both :func:`group_reduce` (sharded)
    and :func:`group_reduce_rows` (in-memory) call, which is what makes
    the two paths bit-identical: the only difference between them is
    how the per-group arrays are assembled.  An empty (all-null) group
    reports ``count=0`` and ``None`` for every other statistic.
    """
    out: dict[str, object] = {}
    empty = values.size == 0
    for reducer in reducers:
        if reducer == "count":
            out["count"] = int(values.size)
        elif reducer == "mean":
            out["mean"] = None if empty else float(np.mean(values))
        elif reducer == "var":
            out["var"] = None if empty else float(np.var(values))
        elif reducer == "min":
            out["min"] = None if empty else float(np.min(values))
        elif reducer == "max":
            out["max"] = None if empty else float(np.max(values))
        else:
            raise ColumnarError(
                f"unknown reducer {reducer!r}; expected one of {REDUCERS}"
            )
    for q in quantiles:
        label = f"p{round(float(q) * 100):g}"
        out[label] = None if empty else float(np.quantile(values, float(q)))
    return out


def _sort_key(key: tuple) -> tuple:
    """Total order over heterogeneous group keys: None < numbers < str."""
    out = []
    for cell in key:
        if cell is None:
            out.append((0, ""))
        elif isinstance(cell, (bool, int, float)):
            out.append((1, float(cell)))
        elif isinstance(cell, str):
            out.append((2, cell))
        else:
            out.append((3, repr(cell)))
    return tuple(out)


def _finalize_groups(
    groups: dict[tuple, dict[str, list[np.ndarray]]],
    by: Sequence[str],
    values: Sequence[str],
    reducers: Sequence[str],
    quantiles: Sequence[float],
) -> list[dict[str, object]]:
    out = []
    for key in sorted(groups, key=_sort_key):
        row: dict[str, object] = dict(zip(by, key))
        for column in values:
            chunks = groups[key][column]
            data = (
                np.concatenate(chunks) if chunks
                else np.empty(0, dtype=np.float64)
            )
            stats = reduce_values(data, reducers=reducers, quantiles=quantiles)
            prefix = f"{column}_" if len(values) > 1 else ""
            for stat, value in stats.items():
                row[f"{prefix}{stat}"] = value
        out.append(row)
    return out


def _collect_batch(
    groups: dict[tuple, dict[str, list[np.ndarray]]],
    keys: list[tuple],
    batch: dict[str, list[object]],
    values: Sequence[str],
) -> None:
    """Bucket one shard's value cells into the per-group accumulators."""
    order: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        order.setdefault(key, []).append(i)
    for key, indices in order.items():
        slot = groups.setdefault(key, {column: [] for column in values})
        for column in values:
            cells = batch[column]
            numeric = [
                float(cells[i]) for i in indices if cells[i] is not None
            ]
            if numeric:
                slot[column].append(np.asarray(numeric, dtype=np.float64))


def group_reduce(
    store: ColumnStore,
    *,
    by: Sequence[str],
    values: Sequence[str],
    reducers: Sequence[str] = REDUCERS,
    quantiles: Sequence[float] = (),
) -> list[dict[str, object]]:
    """Streaming grouped aggregation over a sharded store.

    Groups by the tuple of ``by`` columns and reduces each ``values``
    column with ``reducers`` (+ ``pNN`` columns for ``quantiles``).
    Holds one decoded shard plus the condensed per-group value arrays
    in memory — never the whole store.  Null cells are excluded from
    every statistic; a group whose value column is all-null reports
    ``count=0`` and ``None`` stats.  With a single value column the
    stat columns are named ``count``/``mean``/…; with several they are
    prefixed ``<column>_``.
    """
    by = list(by)
    values = list(values)
    if not by:
        raise ColumnarError("group_reduce needs at least one 'by' column")
    if not values:
        raise ColumnarError("group_reduce needs at least one value column")
    groups: dict[tuple, dict[str, list[np.ndarray]]] = {}
    for batch in store.scan(by + values):
        keys = list(zip(*(batch[b] for b in by)))
        _collect_batch(groups, keys, batch, values)
    return _finalize_groups(groups, by, values, reducers, quantiles)


def group_reduce_rows(
    rows: Iterable[Mapping[str, object]],
    *,
    by: Sequence[str],
    values: Sequence[str],
    reducers: Sequence[str] = REDUCERS,
    quantiles: Sequence[float] = (),
) -> list[dict[str, object]]:
    """In-memory reference aggregation over plain row dicts.

    Same grouping, same null handling, same :func:`reduce_values`
    kernel as :func:`group_reduce` — the oracle the differential suite
    checks the sharded path against, and the aggregation behind
    ``results query`` on row-backed tables.
    """
    by = list(by)
    values = list(values)
    if not by:
        raise ColumnarError("group_reduce needs at least one 'by' column")
    if not values:
        raise ColumnarError("group_reduce needs at least one value column")
    groups: dict[tuple, dict[str, list[np.ndarray]]] = {}
    batch: dict[str, list[object]] = {c: [] for c in set(by) | set(values)}
    keys: list[tuple] = []
    for row in rows:
        keys.append(tuple(row.get(b) for b in by))
        for column in batch:
            batch[column].append(row.get(column))
    _collect_batch(groups, keys, batch, values)
    return _finalize_groups(groups, by, values, reducers, quantiles)
