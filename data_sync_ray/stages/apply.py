"""Commit helpers for the fold stage (stages/exchange.py): the final LWW
reduce of one partition's events and its exactly-once commit.

The reference serializes every apply through one goroutine + one SQL
round-trip per event (/root/reference/src/application/strategy/syncmq/
sync_mq.go:30,74-94, mysql_handler.go:296-311). Here each hash partition of
doc_id is committed by exactly one fold task per execution, giving the same
per-key serial-apply guarantee N-way parallel; the per-(partition, epoch)
commit log makes a retried or re-run commit a no-op.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

from ..state.lake import Lake
from .merge import events_to_delta, lww_winners

METRICS_SCHEMA = pa.schema(
    [
        ("partition", pa.int32()),
        ("epoch", pa.int64()),
        ("events_in", pa.int64()),
        ("rows_written", pa.int64()),
        ("replayed", pa.bool_()),
        ("watermark_log_pos", pa.int64()),
        ("apply_sec", pa.float64()),
        # skew lineage: events landing on the hottest key of this group —
        # post-combine this is bounded by the upstream batch count, proving
        # the two-phase LWW keeps hot keys harmless (SURVEY §4.2 salting)
        ("max_key_events", pa.int64()),
    ]
)


def to_delta(events: pa.Table, key: str, order: str) -> pa.Table:
    """Final LWW reduce -> delta rows, key-sorted so a retried task writes
    byte-identical file content."""
    return events_to_delta(lww_winners(events, key=key, order=order)).sort_by(key)


def commit_recording_failure(lake: Lake, partition: int, commit: Callable):
    """Run one partition commit; on error count it in the checkpoint's
    failures (T4), then re-raise so Ray retries the task."""
    try:
        return commit()
    except Exception as e:
        try:
            lake.record_failure(partition, repr(e))
        except Exception:
            pass
        raise


def commit_partition(
    lake: Lake, epoch: int, events: pa.Table, n_in: int, key: str, order: str
) -> pa.Table:
    """Reduce and commit one partition's events for one epoch; returns its
    metrics row. n_in is the raw (pre-combine) event count — the chunked
    fold reduces fragments before calling, so events.num_rows undercounts."""
    partition = events.column("partition")[0].as_py()
    vc = pc.value_counts(events.column(key))
    max_key = pc.max(vc.field("counts")).as_py() if len(vc) else 0
    m = commit_recording_failure(
        lake,
        partition,
        lambda: lake.commit_delta(
            partition, epoch, to_delta(events, key, order), n_in
        ),
    )
    return pa.Table.from_pylist(
        [{**m, "max_key_events": int(max_key)}], schema=METRICS_SCHEMA
    )
