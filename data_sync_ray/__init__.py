"""data_sync_ray — a Ray-Data-native CDC / incremental-ingest engine.

From-scratch reimplementation of the *capabilities* of yushaolong10/data-sync
(MySQL binlog CDC replication) as an idiomatic Ray Data pipeline: ordered
change events (insert/update/delete on doc_id) hash-partitioned through a
streaming spill exchange and applied by one fold task per partition group
as last-writer-wins merge-on-read upserts into a copy-on-write Parquet lake,
with exactly-once commit logs, checkpoint-resumable replay, schema
evolution by Arrow unification, and per-partition lineage metrics.
"""

import logging as _logging

from .config import SyncConfig, table_passes
from .datamodel import (
    CHANGE_EVENT_SCHEMA,
    LAKE_SCHEMA,
    StreamSpec,
    gen_base_table,
    gen_change_stream,
    list_epoch_dirs,
    replay_oracle,
    write_event_log,
)
from .pipelines.multi import MultiTableReplay
from .pipelines.replay import (
    ReplayJob,
    export_lake,
    export_lake_incremental,
    read_lake,
)
from .sources.producer import EventLogProducer
from .stages.merge import events_to_delta, fold_state, lww_winners, unify_concat
from .stages.transform import (
    assign_partition,
    clear_custom_filters,
    key_histogram,
    make_transform,
    register_custom_filter,
)
from .state.lake import Lake


class _DropSchemaHashNoise(_logging.Filter):
    """Ray 2.49's schema-dedup fast path warns "Failed to hash the
    schemas (for deduplication): unhashable type: 'dict'" whenever a
    pandas block schema carries unhashable metadata, then proceeds
    correctly down the slow unify path — pure log spam at our block
    rates (PandasBlockSchema holds a list of dtypes — unhashable by
    construction, so EVERY multi-block pandas pipeline trips it).
    Installed on import; covers any process that imports this package
    (driver, actor-pool stages, module-level callables). Task closures
    pickled by value never import us, so their one-per-worker line
    still reaches stdout via Ray's log forwarder — bounded by
    RAY_DEDUP_LOGS. Everything else from that logger still passes."""

    def filter(self, record: _logging.LogRecord) -> bool:
        return not str(record.getMessage()).startswith(
            "Failed to hash the schemas"
        )


_logging.getLogger(
    "ray.data._internal.arrow_ops.transform_pyarrow"
).addFilter(_DropSchemaHashNoise())

__all__ = [
    "CHANGE_EVENT_SCHEMA",
    "EventLogProducer",
    "LAKE_SCHEMA",
    "Lake",
    "MultiTableReplay",
    "ReplayJob",
    "StreamSpec",
    "SyncConfig",
    "assign_partition",
    "clear_custom_filters",
    "events_to_delta",
    "export_lake",
    "export_lake_incremental",
    "fold_state",
    "gen_base_table",
    "gen_change_stream",
    "key_histogram",
    "list_epoch_dirs",
    "lww_winners",
    "make_transform",
    "read_lake",
    "register_custom_filter",
    "replay_oracle",
    "table_passes",
    "unify_concat",
    "write_event_log",
]
