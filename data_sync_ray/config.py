"""Job configuration — the analog of the reference's per-task TOML config
(`/root/reference/conf/iot.sync.toml:36-47` `[mysql_task.regular]` and
`src/infrastructure/config/config.go:12-99`), as a plain dataclass.
"""

from __future__ import annotations

import dataclasses
import json


@dataclasses.dataclass
class SyncConfig:
    """Everything a replay/repair/inspect job needs.

    Filter semantics mirror the reference's include/exclude precedence
    (`src/infrastructure/repo/condition/regular_base.go:15-35`):
    include wins over exclude; only-exclude ⇒ pass others; only-include ⇒
    drop others; neither configured ⇒ deny all.
    """

    lake_root: str = "/tmp/lake"
    key_column: str = "doc_id"
    order_column: str = "log_pos"
    include_tables: tuple[str, ...] = ("docs",)
    exclude_tables: tuple[str, ...] = ()
    # per-table columns to drop from event payloads; the key column is
    # protected from dropping (ref: regular_runtime.go:23-33)
    filter_cols: dict[str, tuple[str, ...]] = dataclasses.field(
        default_factory=dict
    )
    # P hash partitions of the key; one checkpoint + commit log each
    num_partitions: int = 32
    # fold fan-out of the spill exchange (stages/exchange.py): one fold
    # task per group of partitions (partition % G); size to the cluster
    spill_groups: int = 16
    batch_size: int = 32_768  # events per transform batch
    # fold memory budget: a fold task LWW-reduces its spill fragments
    # incrementally once this many buffered rows accumulate, so fold
    # memory is O(distinct keys + chunk) instead of O(all spilled events)
    # — an epoch 100x larger no longer needs a 100x fold heap
    fold_chunk_rows: int = 2_000_000
    # hot-key detection: keys whose per-batch share exceeds this fraction are
    # reported in the skew histogram metric (pre-reduce makes them harmless)
    hot_key_threshold: float = 0.05
    # inspector escalates stalled -> alarm after this many consecutive
    # no-progress rounds (ref: inspect_alarm_count, conf/iot.sync.toml:33)
    inspect_alarm_count: int = 5
    # schema policy: 'unify' (additive evolution, default) or 'conform'
    # (reference behavior: drop unknown columns, mysql_filter_service.go:37-41)
    schema_policy: str = "unify"
    # lake commit-primitive backend (state/storage.py): 'posix'
    # (fsync+rename+flock — single node / POSIX shared fs) or
    # 'objstore' (version-checked conditional puts, no rename/flock —
    # S3-class object stores). Immutable per lake.
    storage_backend: str = "posix"
    # batched catch-up commit amortization: when one fold execution
    # covers a multi-epoch backlog, up to this many consecutive epochs
    # share ONE span delta file + ONE checkpoint commit per partition
    # (state/lake.py commit_delta_span). Bounds fold-task memory to
    # O(distinct keys x span) and keeps any single commit's blast
    # radius finite; 1 = the round-3 per-epoch behavior.
    span_commit_epochs: int = 16
    # parquet row-group size for committed deltas (rows). Deltas are
    # written key-sorted, so smaller row groups give range reads and
    # point lookups tight row-group zone maps to prune within a file.
    # None = pyarrow default (1Mi rows).
    row_group_rows: int | None = None
    # extra columns whose per-fragment min/max zone maps are recorded
    # at commit alongside the key's (state/lake.py _record_file_stats).
    # Secondary stats only PRUNE on all-base checkpoints (see
    # Lake.files_for_predicate for the LWW soundness argument); pair
    # with compact_partition(zorder_by=...) to make them selective.
    # Hot-reloadable: stats apply to fragments committed after the
    # change; stat-less fragments are always read.
    stats_columns: tuple[str, ...] = ()

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["include_tables"] = list(self.include_tables)
        d["exclude_tables"] = list(self.exclude_tables)
        d["filter_cols"] = {k: list(v) for k, v in self.filter_cols.items()}
        return json.dumps(d, indent=1, sort_keys=True)

    @staticmethod
    def from_toml(path: str) -> "SyncConfig":
        """TOML job config — the reference's conf/*.toml analog
        (conf/iot.sync.toml:36-47 [mysql_task.regular])."""
        import tomllib

        with open(path, "rb") as f:
            d = tomllib.load(f)
        sec = d.get("sync", d)
        return SyncConfig(
            lake_root=sec.get("lake_root", "/tmp/lake"),
            key_column=sec.get("key_column", "doc_id"),
            order_column=sec.get("order_column", "log_pos"),
            include_tables=tuple(sec.get("include_tables", ["docs"])),
            exclude_tables=tuple(sec.get("exclude_tables", [])),
            filter_cols={
                k: tuple(v) for k, v in sec.get("filter_cols", {}).items()
            },
            num_partitions=int(sec.get("num_partitions", 32)),
            spill_groups=int(sec.get("spill_groups", 16)),
            batch_size=int(sec.get("batch_size", 32768)),
            fold_chunk_rows=int(sec.get("fold_chunk_rows", 2_000_000)),
            hot_key_threshold=float(sec.get("hot_key_threshold", 0.05)),
            inspect_alarm_count=int(sec.get("inspect_alarm_count", 5)),
            schema_policy=sec.get("schema_policy", "unify"),
            storage_backend=sec.get("storage_backend", "posix"),
            span_commit_epochs=int(sec.get("span_commit_epochs", 16)),
            row_group_rows=(
                int(sec["row_group_rows"])
                if sec.get("row_group_rows") is not None
                else None
            ),
            stats_columns=tuple(sec.get("stats_columns", [])),
        )

    @staticmethod
    def from_json(s: str) -> "SyncConfig":
        """Parse `to_json` output. The fields of the removed sort exchange
        and actor-pool apply are dropped, so a lake whose CONFIG.json
        still names them opens."""
        d = json.loads(s)
        for k in ("exchange_mode", "apply_mode", "apply_concurrency"):
            d.pop(k, None)
        d["include_tables"] = tuple(d.get("include_tables", ()))
        d["exclude_tables"] = tuple(d.get("exclude_tables", ()))
        d["filter_cols"] = {
            k: tuple(v) for k, v in d.get("filter_cols", {}).items()
        }
        d["stats_columns"] = tuple(d.get("stats_columns", ()))
        return SyncConfig(**d)


def table_passes(
    table: str,
    include_tables: tuple[str, ...],
    exclude_tables: tuple[str, ...],
) -> bool:
    """Scalar include/exclude predicate with the reference's exact precedence
    (`regular_base.go:15-35`): include match ⇒ pass; exclude match ⇒ drop;
    only-exclude configured ⇒ pass others; only-include ⇒ drop others;
    neither ⇒ drop (default deny)."""
    if table in include_tables:
        return True
    if table in exclude_tables:
        return False
    if exclude_tables and not include_tables:
        return True
    return False
