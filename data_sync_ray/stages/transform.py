"""Stateless transform stage: parse / filter / normalize / partition-assign.

The Ray-Data fusion of the reference's filter pipelines F4-F8
(/root/reference/src/service/mysql_filter_service.go:22-127): table
include/exclude, column drop with primary-key protection, custom per-table
filter hook, plus two engine-side additions — in-batch LWW pre-combine (the
shuffle combiner) and per-batch hot-key histograms for skew detection.

Pure pa.Table -> pa.Table, run as task-based ``map_batches(fn,
batch_format="pyarrow")`` — no state, so no actor pool needed here.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
import pandas.util
import pyarrow as pa
import pyarrow.compute as pc

from ..config import SyncConfig, table_passes
from .merge import lww_winners

#: per-table custom filter registry, keyed by table name — the UDF hook
#: analog of the reference's CustomFilter plugin registry
#: (src/service/customfilter/init.go:12-31). fn: pa.Table -> pa.Table over
#: the rows of that table only; raising vetoes the batch's table slice
#: (ref: filter failure vetoes the write, mysql_filter_service.go:43-51).
_CUSTOM_FILTERS: dict[str, Callable[[pa.Table], pa.Table]] = {}


def register_custom_filter(table: str, fn: Callable[[pa.Table], pa.Table]) -> None:
    _CUSTOM_FILTERS[table] = fn


def clear_custom_filters() -> None:
    _CUSTOM_FILTERS.clear()


def stable_hash_strings(values) -> np.ndarray:
    """Deterministic, process-independent uint64 hash of a string column.

    Role of the reference's Md5-based signing util
    (src/lib/util/util.go:62-74) for partition routing. Primary path:
    polars' seeded xxhash over the Arrow buffer — zero-copy, vectorized,
    no per-row Python objects. Fallback: pandas' SipHash hash_array.

    NOTE: partition assignment must stay stable for a lake's lifetime
    (doc ownership); the hash implementation/version is part of the lake
    format — pin the library version in deployment.
    """
    try:
        # one polars thread per task (same oversubscription logic as Arrow);
        # effective because workers import polars lazily, here
        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        if not isinstance(values, (pa.Array, pa.ChunkedArray)):
            values = pa.array(values)
        h = pl.from_arrow(values).hash(seed=42).to_numpy()
        return h.astype(np.uint64)
    except ImportError:  # pragma: no cover
        arr = np.asarray(values, dtype=object)
        return pandas.util.hash_array(arr, categorize=False)


def assign_partition(
    t: pa.Table, num_partitions: int, key: str = "doc_id"
) -> pa.Table:
    """Append `partition = hash(key) % P` (int32). Hash-partitioning by the
    primary key guarantees each key is owned by exactly one apply task/actor
    => per-key serial apply like the reference's single channel, x N."""
    h = stable_hash_strings(t.column(key))
    part = (h % np.uint64(num_partitions)).astype(np.int32)
    return t.append_column("partition", pa.array(part))


def filter_tables(t: pa.Table, cfg: SyncConfig, table_col: str = "table") -> pa.Table:
    """Vectorized include/exclude with the reference's exact precedence
    (regular_base.go:15-35): evaluate the scalar rule once per distinct
    table value, then one is_in mask."""
    if table_col not in t.column_names:
        return t
    distinct = pc.unique(t.column(table_col)).to_pylist()
    allowed = [
        v
        for v in distinct
        if v is not None
        and table_passes(v, cfg.include_tables, cfg.exclude_tables)
    ]
    if len(allowed) == len(distinct):
        return t
    mask = pc.is_in(t.column(table_col), value_set=pa.array(allowed, pa.string()))
    return t.filter(mask)


def drop_filtered_columns(
    t: pa.Table, cfg: SyncConfig, table_col: str = "table"
) -> pa.Table:
    """Column-drop projection (filter_cols) with PK protection — the key
    column can never be dropped (regular_runtime.go:23-33). Because batches
    are columnar and may mix tables, a column configured for only *some*
    present tables is nulled for those rows; a column dropped for *all*
    present tables is removed entirely."""
    if not cfg.filter_cols:
        return t
    present = set()
    if table_col in t.column_names:
        present = {
            v for v in pc.unique(t.column(table_col)).to_pylist() if v is not None
        }
    if not present:
        present = set(cfg.include_tables)
    for col in sorted({c for cols in cfg.filter_cols.values() for c in cols}):
        if col == cfg.key_column or col not in t.column_names:
            continue
        dropping_for = {
            tb for tb in present if col in cfg.filter_cols.get(tb, ())
        }
        if not dropping_for:
            continue
        if dropping_for == present:
            t = t.drop_columns([col])
        else:
            mask = pc.is_in(
                t.column(table_col),
                value_set=pa.array(sorted(dropping_for), pa.string()),
            )
            i = t.column_names.index(col)
            nulled = pc.if_else(mask, pa.scalar(None, t.column(col).type), t.column(col))
            t = t.set_column(i, col, nulled)
    return t


def apply_custom_filters(
    t: pa.Table, cfg: SyncConfig, table_col: str = "table"
) -> pa.Table:
    """Run registered per-table UDF hooks on that table's row slice."""
    if not _CUSTOM_FILTERS or table_col not in t.column_names:
        return t
    present = {
        v for v in pc.unique(t.column(table_col)).to_pylist() if v is not None
    }
    hooked = present & _CUSTOM_FILTERS.keys()
    if not hooked:
        return t
    parts = []
    for tb in sorted(present):
        sl = t.filter(pc.equal(t.column(table_col), pa.scalar(tb)))
        if tb in hooked:
            sl = _CUSTOM_FILTERS[tb](sl)
        parts.append(sl)
    return pa.concat_tables(parts, promote_options="default")


def key_histogram(
    t: pa.Table, key: str = "doc_id", threshold: float = 0.05
) -> dict[str, int]:
    """Hot keys: keys whose share of this batch exceeds `threshold`.
    Feeds the skew metric; correctness never depends on it because the
    in-batch LWW pre-combine already collapses hot keys (see merge.py)."""
    if t.num_rows == 0:
        return {}
    vc = pc.value_counts(t.column(key))
    counts = vc.field("counts").to_numpy()
    cut = max(2, int(t.num_rows * threshold))
    hot = np.flatnonzero(counts >= cut)
    if hot.size == 0:
        return {}
    values = vc.field("values")
    return {values[int(i)].as_py(): int(counts[int(i)]) for i in hot}


def make_transform(
    cfg: SyncConfig, keep_epoch: bool = False, pre_combine: bool = True
) -> Callable[[pa.Table], pa.Table]:
    """Build the fused stage fn for map_batches: F4 -> F5 -> F7 -> schema
    policy -> in-batch LWW pre-combine -> partition assign.

    keep_epoch=True (catch-up replay): the hive `epoch` column survives as
    int64 so the exchange can group by (partition, epoch) and commit each
    pair exactly-once in a single execution over many epochs.
    """

    lake_payload = {"doc_id", "tokens", "n_tok", "source"}

    def transform(t: pa.Table) -> pa.Table:
        # single Arrow thread per task (see exchange.py fold_commit:
        # oversubscription)
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
        t = filter_tables(t, cfg)
        if t.num_rows == 0:
            return _empty_like(t, keep_epoch)
        t = drop_filtered_columns(t, cfg)
        t = apply_custom_filters(t, cfg)
        if cfg.schema_policy == "conform":
            # reference behavior: drop event columns unknown to the target
            # schema (mysql_filter_service.go:37-41); envelope cols survive
            keep = lake_payload | {
                "op", "table", "ts", cfg.order_column, "schema_ver", "epoch"
            }
            t = t.select([c for c in t.column_names if c in keep])
        if pre_combine:
            t = lww_winners(t, key=cfg.key_column, order=cfg.order_column)
        # drop envelope columns BEFORE the hash exchange — shuffling dead
        # columns wastes exchange bandwidth (op drives tombstones; epoch
        # survives only in catch-up mode as the commit-log key)
        dead = ["table", "ts", "schema_ver"]
        if not keep_epoch:
            dead.append("epoch")
        dead = [c for c in dead if c in t.column_names]
        if dead:
            t = t.drop_columns(dead)
        if keep_epoch and "epoch" in t.column_names:
            i = t.column_names.index("epoch")
            t = t.set_column(i, "epoch", pc.cast(t.column("epoch"), pa.int64()))
        t = assign_partition(t, cfg.num_partitions, key=cfg.key_column)
        return t

    return transform


def _empty_like(t: pa.Table, keep_epoch: bool = False) -> pa.Table:
    s = t.schema
    if keep_epoch and "epoch" in s.names:
        i = s.get_field_index("epoch")
        s = s.set(i, pa.field("epoch", pa.int64()))
    elif "epoch" in s.names:
        s = s.remove(s.get_field_index("epoch"))
    for c in ("table", "ts", "schema_ver"):
        if c in s.names:
            s = s.remove(s.get_field_index(c))
    return s.append(pa.field("partition", pa.int32())).empty_table()
