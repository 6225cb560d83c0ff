"""Per-layer ledger: the engine's public stage functions composed driver-side,
without Ray, under spans.

`compose_round` performs what one `ReplayJob.replay` call does for a set of
pending epochs (plus an optional bootstrap): transform + spill per batch, one
fold+commit per spill group, epoch markers and the manifest publish. The read
helpers split a scan, a lookup and a compaction into storage reads, the merge
fold and the lake calls around them.
Nothing here changes the engine; the one hook is that the transform a spill
stage builds is wrapped while the stage is created, so its time nests inside
the spill span.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from data_sync_ray.pipelines.replay import as_insert_events
from data_sync_ray.stages import exchange
from data_sync_ray.stages.merge import fold_state
from data_sync_ray.state.lake import BOOTSTRAP_EPOCH, Lake

from tracer import Tracer

#: layers whose self time the replay orchestration residual subtracts
INGEST_LAYERS = (
    "stages.transform",
    "stages.exchange.spill",
    "stages.exchange.fold_commit",
    "state.lake.mark_done",
    "state.lake.manifest",
)


def data_files(root: str) -> dict[str, int]:
    """Live and orphaned parquet files under <lake>/data -> size in bytes."""
    out = {}
    base = os.path.join(root, "data")
    for dirpath, _, files in os.walk(base):
        for f in files:
            if f.endswith(".parquet"):
                p = os.path.join(dirpath, f)
                out[os.path.relpath(p, base)] = os.path.getsize(p)
    return out


def _spill_stage(tr: Tracer, cfg, *args):
    real = exchange.make_transform

    def traced_make_transform(*a, **k):
        fn = real(*a, **k)

        def transform(t: pa.Table) -> pa.Table:
            tr.add("stages.transform.rows_in", t.num_rows)
            with tr.span("stages.transform"):
                return fn(t)

        return transform

    exchange.make_transform = traced_make_transform
    try:
        return exchange.make_spill_stage(cfg, *args)
    finally:
        exchange.make_transform = real


def _spill(tr: Tracer, stage, table: pa.Table, batch_size: int) -> None:
    for off in range(0, table.num_rows, batch_size):
        with tr.span("stages.exchange.spill"):
            counts = stage(table.slice(off, batch_size))
        tr.add("stages.transform.rows_out", pc.sum(counts.column("rows")).as_py() or 0)


def compose_round(
    tr: Tracer,
    lake: Lake,
    cfg,
    epochs: list[tuple[int, pa.Table]],
    bootstrap: pa.Table | None = None,
) -> None:
    """One engine call, Ray-free: the batched path when more than one epoch
    (bootstrap included) is pending, else the single-epoch path."""
    pending = [e for e, _ in epochs]
    all_epochs = pending + ([BOOTSTRAP_EPOCH] if bootstrap is not None else [])
    batched = len(all_epochs) > 1
    before = data_files(lake.root)
    exchange.prepare_spill_dirs(cfg.lake_root, all_epochs, cfg.spill_groups)
    if bootstrap is not None:
        stage = _spill_stage(tr, cfg, BOOTSTRAP_EPOCH, None)
        _spill(tr, stage, as_insert_events(bootstrap), cfg.batch_size)
    if batched:
        stage = _spill_stage(tr, cfg, None, None, pending)
    else:
        stage = _spill_stage(tr, cfg, pending[0], None)
    for e, t in epochs:
        if batched:
            t = t.append_column("epoch", pa.array([e] * t.num_rows, pa.int64()))
        _spill(tr, stage, t, cfg.batch_size)
    for e in all_epochs:
        for dirpath, _, files in os.walk(exchange.spill_dir(cfg.lake_root, e)):
            for f in files:
                if f.endswith(".arrows"):
                    tr.add("stages.exchange.spill.fragments", 1)
                    tr.add(
                        "stages.exchange.spill.bytes",
                        os.path.getsize(os.path.join(dirpath, f)),
                    )
    fold = exchange.make_fold_commit_stage(cfg, all_epochs if batched else pending)
    for g in range(cfg.spill_groups):
        with tr.span("stages.exchange.fold_commit"):
            rows = fold(pa.table({"g": pa.array([g], pa.int64())}))
        tr.add(
            "stages.exchange.fold_commit.rows_written",
            pc.sum(rows.column("rows_written")).as_py() or 0,
        )
    for e in all_epochs:
        with tr.span("state.lake.mark_done"):
            lake.mark_epoch_done(e)
    exchange.cleanup_spill(cfg.lake_root, all_epochs)
    with tr.span("state.lake.manifest"):
        lake.publish_manifest(note="composed replay")
    after = data_files(lake.root)
    new = {k: v for k, v in after.items() if k not in before}
    tr.add("state.lake.files_written", len(new))
    tr.add("state.lake.data_bytes_written", sum(new.values()))


def compact_partitions(tr: Tracer, lake: Lake, parts: list[int]) -> None:
    before = data_files(lake.root)
    for p in parts:
        with tr.span("state.lake.compact_partition"):
            lake.compact_partition(p)
    after = data_files(lake.root)
    tr.add(
        "state.lake.compact_partition.bytes_rewritten",
        sum(v for k, v in after.items() if k not in before),
    )
    with tr.span("state.lake.manifest"):
        lake.publish_manifest(note="compaction")


def traced_scan(tr: Tracer, lake: Lake) -> int:
    """Fold every partition twice: once through Lake.read_partition, once
    as storage reads + fold_state, which must agree. Returns live rows."""
    rows = 0
    for p in lake.partitions():
        with tr.span("state.lake.read_partition"):
            t = lake.read_partition(p)
        frags = []
        for rel in lake.read_checkpoint(p)["files"]:
            key = f"data/{rel}"
            with tr.span("state.storage.obj_read"):
                f = lake.storage.obj_read_table(key)
            tr.add("state.storage.obj_read.bytes", os.path.getsize(os.path.join(lake.root, key)))
            if "_epoch" in f.column_names:
                f = f.drop_columns(["_epoch"])
            frags.append(f)
        with tr.span("stages.merge.fold_state"):
            folded = fold_state(frags) if frags else None
        n = 0 if t is None else t.num_rows
        m = 0 if folded is None else folded.num_rows
        if n != m:
            raise AssertionError(
                f"partition {p}: read_partition {n} rows, storage+fold_state {m}"
            )
        rows += n
    return rows


def traced_lookup(tr: Tracer, lake: Lake, key: str) -> pa.Table:
    ck = lake.read_checkpoint(lake.route_partition(key))
    with tr.span("state.lake.files_for_range"):
        kept = Lake.files_for_range(ck, (key, key))
    tr.add("state.lake.lookup.fragments_kept", len(kept))
    tr.add("state.lake.lookup.fragments_total", len(ck["files"]))
    with tr.span("state.lake.lookup"):
        return lake.lookup(key)
