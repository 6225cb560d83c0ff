"""Spill-based hash exchange — the engine's only partition router.

Every replay (one table or N, one epoch or a backlog, plus bootstrap and
repair) routes rows to their doc_id hash partition through this exchange.
Ray Data's groupby shuffle would sort: materialize the whole input, sample
boundaries, and run map/reduce rounds behind an all-to-all barrier (~20%
utilization measured). Routing needs no sort, so this exchange uses the
lake's own filesystem as the shuffle medium:

  phase 1 (streaming, NO barrier):  read -> transform -> write each batch's
      rows into per-(epoch, group) spill files (group = partition % G),
      lz4-compressed, uuid-named; each batch returns its per-(epoch, group)
      row counts;
  phase 2 (one task per group, all epochs): read that group's spill files,
      check they hold at least the counted rows, split by partition,
      LWW-reduce, commit delta + checkpoint exactly-once per
      (partition, epoch).

Why at-least-once spill is safe: change events are idempotent under the
LWW fold — a duplicated event produces a (key, log_pos) tie and the winner
kernel keeps exactly one row (merge.py). So phase-1 task retries and
crash-reruns may append duplicate spill rows without any commit log; only
phase 2 needs exactly-once, and it already has the per-(partition, epoch)
commit log. Fewer rows than phase 1 counted means a fragment was lost or
quarantined, and phase 2 refuses to commit that (epoch, group) short.
Spill dirs are deleted after the epoch is marked done.

Multi-node assumption (still open; ROADMAP item 2's object-store
exchange): the spill directory lives on the lake's filesystem, which at
cluster scale must be shared storage (NFS or similar) — the standard
lakehouse ingest pattern (write temp files, then commit). Spill fan-in per
(epoch, group) is (#phase-1 tasks); size G to the cluster so files stay
>= a few MB.
"""

from __future__ import annotations

import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.ipc as ipc

from ..config import SyncConfig
from .apply import (
    METRICS_SCHEMA,
    commit_partition,
    commit_recording_failure,
    to_delta,
)
from .transform import make_transform

#: spill fragments are Arrow IPC streams with lz4 frames — 3-6x cheaper to
#: encode/decode than parquet (no column encoding/stats); they live minutes
#: and are read exactly once, so parquet's compression wins don't pay
_IPC_OPTS = ipc.IpcWriteOptions(compression="lz4")


def _write_spill(table: pa.Table, path: str) -> None:
    with ipc.new_stream(path, table.schema, options=_IPC_OPTS) as w:
        w.write_table(table)


def _read_spill(path: str) -> pa.Table:
    with ipc.open_stream(path) as r:
        return r.read_all()


def _read_spill_safe(path: str) -> pa.Table | None:
    """Read a fragment, quarantining it if the IPC stream is invalid.
    A killed phase-1 task can leave a truncated fragment while its Ray
    retry re-emits the same rows into a new fragment; LWW collapses the
    duplicates, so skipping a corrupt fragment is safe (and blocking the
    fold on it would wedge replay until manual spill cleanup). A skipped
    fragment whose rows no retry re-emitted leaves its (epoch, group)
    short of the spilled count, which the fold refuses to commit."""
    try:
        return _read_spill(path)
    except (pa.ArrowInvalid, OSError):
        try:
            os.replace(path, path + ".bad")
        except OSError:
            pass
        return None


COUNTS_SCHEMA = pa.schema(
    [("epoch", pa.int64()), ("g", pa.int32()), ("rows", pa.int64())]
)


def spill_dir(lake_root: str, epoch: int, group: int | None = None) -> str:
    d = os.path.join(lake_root, "spill", f"epoch={epoch}")
    if group is None:
        return d
    return os.path.join(d, f"g={group:04d}")


def prepare_spill_dirs(lake_root: str, epochs: list[int], groups: int) -> None:
    for e in epochs:
        # a crashed prior run can leave truncated fragments (phase-1 task
        # killed mid-write); this execution re-spills the epoch's full input
        # and LWW dedups, so stale fragments are pure liability — clear them
        shutil.rmtree(spill_dir(lake_root, e), ignore_errors=True)
        for g in range(groups):
            os.makedirs(spill_dir(lake_root, e, g), exist_ok=True)


def cleanup_spill(lake_root: str, epochs: list[int]) -> None:
    for e in epochs:
        shutil.rmtree(spill_dir(lake_root, e), ignore_errors=True)


def make_spill_stage(
    cfg: SyncConfig,
    epoch: int | None,
    committed: dict[int, set[int]] | None = None,
    pending: list[int] | None = None,
):
    """Phase-1 fn for map_batches: [epoch filter ->] transform -> split by
    (epoch, group) -> write spill fragments. epoch=None means catch-up mode
    (the batch carries an epoch column; `pending` filters to those epochs).
    Returns the rows written per (epoch, group) — tiny; the fold checks
    its fragments against their sum."""
    groups = cfg.spill_groups
    lake_root = cfg.lake_root
    key_col, order_col = cfg.key_column, cfg.order_column
    # pre_combine handled here: one fused sort serves both the in-batch LWW
    # combiner and the (epoch, group) split — a second sort+take per batch
    # would double the dominant memory traffic of this stage
    transform = make_transform(cfg, keep_epoch=epoch is None, pre_combine=False)
    want = pa.array(pending, pa.int64()) if pending is not None else None

    def spill(batch: pa.Table) -> pa.Table:
        if want is not None and "epoch" in batch.column_names:
            e = pc.cast(batch.column("epoch"), pa.int64())
            batch = batch.set_column(
                batch.column_names.index("epoch"), "epoch", e
            ).filter(pc.is_in(e, value_set=want))
        batch = transform(batch)
        if batch.num_rows == 0:
            return COUNTS_SCHEMA.empty_table()
        if epoch is not None:
            batch = batch.append_column(
                "epoch", pa.array([epoch] * batch.num_rows, pa.int64())
            )
        if committed:
            eps = batch.column("epoch").to_numpy()
            parts = batch.column("partition").to_numpy()
            mask = np.zeros(batch.num_rows, dtype=bool)
            for e, ps in committed.items():
                if ps:
                    mask |= (eps == e) & np.isin(
                        parts, np.fromiter(ps, dtype=np.int64)
                    )
            if mask.any():
                batch = batch.filter(pa.array(~mask))
                if batch.num_rows == 0:
                    return COUNTS_SCHEMA.empty_table()
        g = (batch.column("partition").to_numpy() % groups).astype(np.int32)
        batch = batch.append_column("g", pa.array(g))
        idx = pc.sort_indices(
            batch,
            sort_keys=[
                ("epoch", "ascending"),
                ("g", "ascending"),
                (key_col, "ascending"),
                (order_col, "ascending"),
            ],
        )
        # in-batch LWW combiner on the fused order: last row of each
        # (epoch, key) run wins (a key maps to exactly one g per epoch).
        # Boundary-detect on the TAKEN KEY/EPOCH COLUMNS only, then gather
        # winners from the original batch once — taking the full wide
        # batch first would copy every tokens payload for loser rows too
        # (same measured win as merge.lww_winners).
        if batch.num_rows > 1:
            n = batch.num_rows
            keys = pc.take(batch.column(key_col), idx).combine_chunks()
            neq = pc.not_equal(keys.slice(0, n - 1), keys.slice(1, n))
            kb = pc.fill_null(neq, True).to_numpy(zero_copy_only=False)
            eps_all = pc.take(batch.column("epoch"), idx).to_numpy()
            is_last = np.ones(n, dtype=bool)
            is_last[:-1] = kb | (eps_all[:-1] != eps_all[1:])
            if not is_last.all():
                idx = idx.filter(pa.array(is_last))
        batch = batch.take(idx)
        eps = batch.column("epoch").to_numpy()
        gs = batch.column("g").to_numpy()
        # contiguous (epoch, g) runs
        keys = eps * groups + gs
        bounds = np.flatnonzero(np.diff(keys)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [batch.num_rows]])
        tag = uuid.uuid4().hex[:16]
        out = []
        for lo, hi in zip(starts, ends):
            e, gi = int(eps[lo]), int(gs[lo])
            sub = batch.slice(lo, hi - lo).drop_columns(["g"])
            d = spill_dir(lake_root, e, gi)
            _write_spill(sub, os.path.join(d, f"{tag}.arrows"))
            out.append({"epoch": e, "g": gi, "rows": int(hi - lo)})
        return pa.Table.from_pylist(out, schema=COUNTS_SCHEMA)

    return spill


def make_fold_commit_stage(
    cfg: SyncConfig,
    epochs: list[int],
    spilled: dict[tuple[int, int], int] | None = None,
):
    """Phase-2 fn for map_batches over GROUP items: read each epoch's
    spill fragments for the group, split by partition, exactly-once commit.

    Task granularity is the group (partition % G), NOT (epoch, group):
    a partition's checkpoint is a read-modify-write file, so all commits
    touching it must come from one task. Per-(epoch, group) tasks would
    race two epochs' commits on the same checkpoint and could silently
    drop a delta reference. One task per group serializes a partition's
    commits structurally; parallelism = G (size G to the cluster).

    spilled: (epoch, group) -> rows the spill stage reported writing. An
    (epoch, group) whose readable fragments hold fewer rows raises before
    any of its partitions commits (more is fine: retried spill tasks
    duplicate rows). None skips the check.

    Memory is bounded by cfg.fold_chunk_rows: fragments stream through an
    incremental LWW reduce (safe: the fold algebra is associative and
    commutative — hypothesis-pinned in tests/test_properties.py), so the
    task holds O(distinct keys + chunk) rows, never the epoch's full
    spill. Raw event counts per partition are tracked separately for the
    events_in metric.

    Multi-epoch executions (catch-up backlogs) amortize commit overhead:
    up to cfg.span_commit_epochs consecutive epochs commit per partition
    as ONE span delta file + ONE checkpoint write (Lake.commit_delta_span;
    measured 2.9x wall at 10-vs-4 epochs equal volume before this, from
    per-epoch parquet-writer + checkpoint-RMW costs). Single-epoch
    executions (tailing) keep the per-epoch delta naming unchanged.
    """
    lake_root = cfg.lake_root
    key_col, order_col = cfg.key_column, cfg.order_column
    chunk_rows = max(1, cfg.fold_chunk_rows)
    # commit-order independence (LWW total order) lets the fold process
    # epochs sorted regardless of caller order (the driver appends
    # bootstrap -1 last); span naming/lineage want ascending epochs
    epochs = sorted(int(e) for e in epochs)
    span = max(1, cfg.span_commit_epochs)

    from ..state.lake import Lake
    from .merge import lww_winners, unify_concat

    def reduce_pending(state: pa.Table | None, pending: list[pa.Table]):
        tables = ([state] if state is not None else []) + pending
        if not tables:
            return state
        return lww_winners(unify_concat(tables), key=key_col, order=order_col)

    def fold_one_epoch(gi: int, e: int):
        """Fold one (group, epoch)'s spill fragments -> (winners table
        sorted+split-ready, raw per-partition event counts)."""
        gdir = spill_dir(lake_root, e, gi)
        names = sorted(os.listdir(gdir)) if os.path.isdir(gdir) else []
        state: pa.Table | None = None
        pending: list[pa.Table] = []
        pending_rows = 0
        rows_read = 0
        raw_counts: dict[int, int] = {}
        for f in names:
            if not f.endswith(".arrows"):
                continue
            t = _read_spill_safe(os.path.join(gdir, f))
            if t is None or t.num_rows == 0:
                continue
            rows_read += t.num_rows
            if "epoch" in t.column_names:
                t = t.drop_columns(["epoch"])
            pv, pc_ = np.unique(
                t.column("partition").to_numpy(), return_counts=True
            )
            for p, c in zip(pv, pc_):
                raw_counts[int(p)] = raw_counts.get(int(p), 0) + int(c)
            pending.append(t)
            pending_rows += t.num_rows
            if pending_rows >= chunk_rows:
                state = reduce_pending(state, pending)
                pending, pending_rows = [], 0
        want = (spilled or {}).get((e, gi), 0)
        if rows_read < want:
            raise RuntimeError(
                f"spill for epoch {e} group {gi} holds {rows_read} rows, "
                f"{want} were spilled (lost or unreadable fragment); "
                "nothing of it was committed — rerun the replay"
            )
        state = reduce_pending(state, pending)
        if state is None or state.num_rows == 0:
            return None, raw_counts
        parts = state.column("partition").to_numpy()
        order = np.argsort(parts, kind="stable")
        return state.take(pa.array(order)), raw_counts

    def split_partitions(state: pa.Table):
        """Partition-sorted state -> (partition, slice) runs."""
        parts = state.column("partition").to_numpy()
        bounds = np.flatnonzero(np.diff(parts)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [state.num_rows]])
        for lo, hi in zip(starts, ends):
            yield int(parts[lo]), state.slice(lo, hi - lo)

    def fold_commit(batch: pa.Table) -> pa.Table:
        # one Arrow thread per task: N concurrent tasks each spinning up
        # pyarrow's default per-process pool (=all cores) oversubscribes the
        # node ~Nx and quadruples per-task latency at high concurrency
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
        lake = Lake(lake_root)
        outs = []
        for gi in batch.column("g").to_pylist():
            gi = int(gi)
            if len(epochs) == 1:
                # tail / single-epoch execution: per-epoch delta naming
                e = epochs[0]
                state, raw_counts = fold_one_epoch(gi, e)
                if state is None:
                    continue
                for p, sub in split_partitions(state):
                    outs.append(commit_partition(
                        lake, e, sub, raw_counts.get(p, sub.num_rows),
                        key_col, order_col,
                    ))
                continue
            # batched catch-up: ONE span commit per partition per up-to-
            # `span` consecutive epochs (commit_delta_span amortizes the
            # parquet writer + checkpoint RMW that dominated multi-epoch
            # backlogs; fold memory is O(keys x span-chunk), bounded)
            for c0 in range(0, len(epochs), span):
                e_chunk = epochs[c0 : c0 + span]
                per_part: dict[int, list[tuple[int, pa.Table, int]]] = {}
                for e in e_chunk:
                    state, raw_counts = fold_one_epoch(gi, e)
                    if state is None:
                        continue
                    for p, sub in split_partitions(state):
                        per_part.setdefault(p, []).append((
                            e, to_delta(sub, key_col, order_col),
                            raw_counts.get(p, sub.num_rows),
                        ))
                for p in sorted(per_part):
                    ms = commit_recording_failure(
                        lake, p, lambda: lake.commit_delta_span(p, per_part[p])
                    )
                    outs.append(pa.Table.from_pylist(
                        [{**m, "max_key_events": 1} for m in ms],
                        schema=METRICS_SCHEMA,
                    ))
        if not outs:
            return METRICS_SCHEMA.empty_table()
        return pa.concat_tables(outs)

    return fold_commit
