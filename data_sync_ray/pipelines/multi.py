"""Multi-table sync: one ReplayJob (and one lake) per logical table — the
analog of the reference syncing every table of a task under its
include/exclude rules (/root/reference/src/application/mysql_handler.go:
483-525 iterates the source∩target table intersection).

Each table gets `lake_root/<table>/` and an include filter of exactly that
table; the event log is shared. `replay()` hands every table to the one
replay driver (pipelines/replay.py `replay_jobs`): ONE streaming pass over
the log runs each table's transform+spill on every batch in the same task
(the per-table transform's leading filter prunes foreign rows vectorized,
so extra-table CPU is ~the mask), then each table folds and commits its
own lake through its own exactly-once commit log. At scale this is the
right shape: the log is read once no matter how many tables the task
syncs (the reference pays one Kafka consume per task, not per table).
Resume is per lake: a table whose epochs are already done spills nothing.
"""

from __future__ import annotations

import dataclasses
import os

import pyarrow as pa
import ray.data as rd

from ..config import SyncConfig
from .replay import ReplayJob, replay_jobs


class MultiTableReplay:
    def __init__(self, base_cfg: SyncConfig, tables: list[str]):
        self.tables = list(tables)
        self.jobs: dict[str, ReplayJob] = {}
        for t in self.tables:
            cfg = dataclasses.replace(
                base_cfg,
                lake_root=os.path.join(base_cfg.lake_root, t),
                include_tables=(t,),
            )
            self.jobs[t] = ReplayJob(cfg)

    def replay(
        self,
        events_root: str,
        bootstraps: dict[str, pa.Table | rd.Dataset] | None = None,
        publish: bool = True,
    ) -> dict[str, dict]:
        """Replay the shared log into every table's lake in one pass;
        bootstraps[t] loads table t's snapshot as epoch -1."""
        bootstraps = bootstraps or {}
        boots = [
            None if bootstraps.get(t) is None else (t, bootstraps[t])
            for t in self.tables
        ]
        outs = replay_jobs(
            [self.jobs[t] for t in self.tables], events_root, boots, publish
        )
        return dict(zip(self.tables, outs))

    def read_table(self, table: str) -> pa.Table:
        return self.jobs[table].lake.read_all()

    def inspect(self, events_root: str) -> dict[str, dict]:
        return {t: self.jobs[t].inspect(events_root) for t in self.tables}
