"""The lake workloads, driven through the package's public API with default
engine arguments (`SyncConfig(lake_root=...)`, `read_lake(root)`).

Each workload has an ingest phase followed by the same read probe:

    lookups -> warm-up scans (untimed) -> TIMED_SCANS scans
            -> ReplayJob.compact() -> lookups -> 1 scan

The probe's Ray calls run back to back, as a user's would. With default
arguments read_lake starts a pool of up to 8 actors whatever Ray's CPU
count; on one CPU the previous scan's pool is released only when Ray has
the driver collect garbage, which it does at most about every 10 s. So the
first scan in a process (sometimes the second too) starts at once, and
every later scan, and a compaction after one, waits for that collection.
The warm-up runs until a scan has waited; from then on each scan and the
compaction take one collection interval, and the timed ones measure that
steady state. The compaction's own tasks leave no pool behind, so the scan
after it does not wait: it is the compacted read as it follows a
compaction.

- catchup: closed loop, one `ReplayJob.replay(events_root, bootstrap=base)`
  per iteration into a fresh lake; the backlog is fully published when the
  call starts, so the call's wall time is the backlog's freshness.
- read: closed loop of single-epoch rounds, each published with
  `EventLogProducer.flush` and consumed at once by
  `ReplayJob.tail(root, max_rounds=1)` with no compaction, then a
  visibility lookup and seeded lookups. One round per second of --seconds;
  the lake it leaves has one fragment per round in most partitions, the
  merge-on-read case.

Every end-to-end metric is reported by every workload; a workload's
non-headline metrics come from the same operations on its own lake.
Lookup keys are drawn uniformly, with the seed, from the keys the
generated log touches (inserted, updated and deleted ones alike).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from data_sync_ray import (
    EventLogProducer,
    ReplayJob,
    StreamSpec,
    SyncConfig,
    gen_base_table,
    gen_change_stream,
    read_lake,
    write_event_log,
)
from data_sync_ray.state.lake import Lake

import ledger
from oracle import INCLUDED_TABLE, Oracle, compare_lookup, compare_state, event_log

#: token lengths of generated rows (the repo's replay benchmark sizing)
MIN_TOK, MAX_TOK = 8, 64

#: catchup: at least min_replays replays, more while --seconds lasts
CATCHUP = dict(n_docs=10_000, n_events=100_000, n_epochs=4, hot_frac=0.001, min_replays=3)
#: rows per epoch (and of the bootstrap) in the catch-up warm-up replay
WARM_ROWS = 2_000
#: read: default insert-heavy epochs; two set-up rounds (the bootstrap
#: round, then a single-epoch one), then one timed round per second of
#: --seconds
READ = dict(n_docs=20_000, epoch_events=5_000, setup_rounds=2)
#: warm-up scans: at least WARM_SCANS, and one more while the last one
#: did not wait, i.e. took under WAITED x the first; at most MAX_WARM_SCANS
WARM_SCANS, MAX_WARM_SCANS, WAITED = 2, 4, 2.0
#: timed scans before compaction; probe keys and passes over them per
#: lookup batch; seeded lookups per read round (after its visibility
#: lookup) and after each catch-up replay, which are checked but not in
#: the lookup metrics
TIMED_SCANS, PROBE_LOOKUPS, LOOKUP_PASSES = 1, 32, 4
ROUND_LOOKUPS, REPLAY_LOOKUPS = 3, 12


def touched_keys(log: pa.Table, n_epochs: int) -> tuple[list[str], np.ndarray]:
    """Keys the log's events touch, ordered by the epoch that first
    touches them, and for each epoch e how many are touched by epochs <= e."""
    docs = log.filter(pc.equal(log.column("table"), INCLUDED_TABLE))
    first = docs.group_by("doc_id").aggregate([("epoch", "min")]).sort_by(
        [("epoch_min", "ascending"), ("doc_id", "ascending")]
    )
    upto = np.searchsorted(first.column("epoch_min").to_numpy(), np.arange(n_epochs), side="right")
    return first.column("doc_id").to_pylist(), upto


class Inputs:
    """A workload's generated inputs, their oracle and its seeded probe keys."""

    def __init__(self, rng, base: pa.Table, epochs: list[pa.Table]):
        self.base = base
        self.epochs = epochs
        self.log = event_log(epochs)
        self.oracle = Oracle(base, self.log)
        self.keys, self.upto = touched_keys(self.log, len(epochs))
        self.probe_keys = self.draw(rng, len(epochs) - 1, PROBE_LOOKUPS)

    def draw(self, rng, through: int, n: int) -> list[str]:
        """n keys drawn uniformly from those touched by epochs <= through."""
        return [self.keys[int(i)] for i in rng.integers(self.upto[through], size=n)]

    def raw_events(self, epochs: list[int]) -> int:
        return sum(self.epochs[e].num_rows for e in epochs)


# --- shared pieces -----------------------------------------------------------


def new_job(run, name: str) -> ReplayJob:
    root = os.path.join(run.work, name)
    shutil.rmtree(root, ignore_errors=True)
    return ReplayJob(SyncConfig(lake_root=root))


def max_fragments(lake: Lake) -> int:
    return max(len(lake.read_checkpoint(p)["files"]) for p in lake.partitions())


def lookups(run, lake: Lake, keys, hist, through: int, metric: str) -> None:
    for k in keys:
        if run.tr is not None:
            ok, got, dt = run.op("Lake.lookup", lambda: ledger.traced_lookup(run.tr, lake, k))
        else:
            ok, got, dt = run.op("Lake.lookup", lambda: lake.lookup(k))
        if not ok:
            continue
        run.sample(metric, dt * 1e3)
        run.verify(f"lookup {k} after epoch {through}", compare_lookup(got, hist.expected(k, through)))


def scan(run, root: str, want: pa.Table, metric: str | None) -> None:
    """One full read_lake scan, iterated to completion, then checked; a
    warm-up scan (metric None) is checked but not sampled."""
    def full_scan():
        batches = [
            b for b in read_lake(root).iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        return pa.concat_tables(batches, promote_options="default") if batches else None

    ok, got, dt = run.op("read_lake scan", full_scan)
    if not ok:
        return
    run.sample("scan_s" if metric else "warm_scan_s", dt)
    run.verify("scan", compare_state(got, want))
    if metric is None:
        return
    run.sample(metric, got.num_rows / dt)
    if run.tr is not None:
        mark = run.tr.mark()
        ok, rows, _ = run.op("traced scan", lambda: ledger.traced_scan(run.tr, Lake(root)))
        busy = run.tr.self_time_since(mark, ("state.lake.read_partition",))
        run.layer_sample("pipelines.replay.read_lake.orchestration_s", dt - busy)
        if ok and rows != want.num_rows:
            run.verify("traced scan", f"{rows} rows != expected {want.num_rows}")


def read_probe(run, job: ReplayJob, inputs: Inputs, hist, through: int) -> None:
    """Lookups, warm-up and timed scans on the lake as ingested, compaction,
    then lookups and one scan on the compacted lake, back to back."""
    want = inputs.oracle.state(through)
    lake, root = job.lake, job.cfg.lake_root
    lookups(run, lake, inputs.probe_keys * LOOKUP_PASSES, hist, through, "lookup_ms")
    warm = run.samples["warm_scan_s"]
    for _ in range(MAX_WARM_SCANS):
        if len(warm) >= WARM_SCANS and warm[-1] >= WAITED * warm[0]:
            break
        scan(run, root, want, None)
    for _ in range(TIMED_SCANS):
        scan(run, root, want, "scan_rows_per_s")
    if run.tr is not None:
        run.op("compact", lambda: ledger.compact_partitions(run.tr, lake, lake.partitions()))
    else:
        ok, _, dt = run.op("ReplayJob.compact", job.compact)
        if ok:
            run.sample("compact_s", dt)
    lookups(run, lake, inputs.probe_keys * LOOKUP_PASSES, hist, through, "lookup_ms_compacted")
    scan(run, root, want, "scan_rows_per_s_compacted")
    live = ledger.data_files(root)
    ck_files = {f for p in lake.partitions() for f in lake.read_checkpoint(p)["files"]}
    run.sample("lake_bytes_per_row", sum(v for k, v in live.items() if k in ck_files) / max(1, want.num_rows))


def shadow_rounds(run, inputs: Inputs, rounds) -> None:
    """Traced run: compose each engine call Ray-free on a second lake and
    record the per-call orchestration residual (engine wall - layer time)."""
    if run.tr is None:
        return
    job = new_job(run, "shadow")
    cfg = job.cfg
    for epochs, boot, wall in rounds:
        mark = run.tr.mark()
        run.op("composed round", lambda: ledger.compose_round(
            run.tr, job.lake, cfg, [(e, inputs.epochs[e]) for e in epochs],
            bootstrap=inputs.base if boot else None,
        ))
        layers = run.tr.self_time_since(mark, ledger.INGEST_LAYERS)
        run.layer_sample("pipelines.replay.orchestration_s", wall - layers)
    through = max(e for epochs, _, _ in rounds for e in epochs)
    run.verify("traced lake", compare_state(job.lake.read_all(), inputs.oracle.state(through)))


# --- workloads ---------------------------------------------------------------


def catchup(run) -> None:
    c = CATCHUP
    spec = StreamSpec(
        n_events=c["n_events"], n_docs=c["n_docs"], n_epochs=c["n_epochs"],
        seed=run.seed, hot_frac=c["hot_frac"], evolve_from_epoch=c["n_epochs"] - 1,
        min_tok=MIN_TOK, max_tok=MAX_TOK,
    )
    base, epochs = gen_base_table(c["n_docs"], seed=run.seed), gen_change_stream(spec)
    inputs = Inputs(run.rng, base, epochs)
    last = len(epochs) - 1
    replay_keys = inputs.draw(run.rng, last, REPLAY_LOOKUPS)
    hist = inputs.oracle.histories(inputs.probe_keys + replay_keys)
    events_root = os.path.join(run.work, "events")
    write_event_log(events_root, epochs)
    raw = base.num_rows + inputs.raw_events(list(range(len(epochs))))
    # the first replay in a process is the slower one: warm up on a slice
    warm_root = os.path.join(run.work, "warm-events")
    write_event_log(warm_root, [t.slice(0, WARM_ROWS) for t in epochs])
    warm = new_job(run, "warm")
    run.op("ReplayJob.replay (warm-up)",
           lambda: warm.replay(warm_root, bootstrap=base.slice(0, WARM_ROWS)))
    shutil.rmtree(warm.cfg.lake_root, ignore_errors=True)
    run.start_timed()
    rep, job, wall = 0, None, None
    while True:
        if job is not None:
            shutil.rmtree(job.cfg.lake_root, ignore_errors=True)
        job = new_job(run, f"lake{rep % 2}")
        ok, _, dt = run.op("ReplayJob.replay", lambda: job.replay(events_root, bootstrap=base))
        if ok:
            wall = dt
            run.sample("catchup_events_per_s", raw / dt)
            run.sample("freshness_s", dt)
        lookups(run, job.lake, replay_keys, hist, last, "round_lookup_ms")
        rep += 1
        if run.aborted or run.tr is not None:
            break
        if rep >= c["min_replays"] and run.elapsed() >= run.seconds:
            break
    if run.tr is not None:
        run.layer_sample("state.lake.fragments_per_partition_max", max_fragments(job.lake))
        if wall is not None:
            shadow_rounds(run, inputs, [(list(range(len(epochs))), True, wall)])
    read_probe(run, job, inputs, hist, last)


def read(run) -> None:
    c = READ
    n_epochs = c["setup_rounds"] + run.seconds
    spec = StreamSpec(
        n_events=n_epochs * c["epoch_events"], n_docs=c["n_docs"], n_epochs=n_epochs,
        seed=run.seed, min_tok=MIN_TOK, max_tok=MAX_TOK,
    )
    base, epochs = gen_base_table(c["n_docs"], seed=run.seed), gen_change_stream(spec)
    inputs = Inputs(run.rng, base, epochs)
    # per round: a row the epoch writes (not deletes), then seeded keys
    round_keys = []
    for e, t in enumerate(epochs):
        live = t.filter(pc.and_(pc.equal(t.column("table"), INCLUDED_TABLE),
                                pc.not_equal(t.column("op"), "delete")))
        vis = live.column("doc_id")[int(run.rng.integers(live.num_rows))].as_py()
        round_keys.append([vis] + inputs.draw(run.rng, e, ROUND_LOOKUPS))
    hist = inputs.oracle.histories(inputs.probe_keys + [k for ks in round_keys for k in ks])
    events_root = os.path.join(run.work, "events")
    producer = EventLogProducer(events_root)
    job = new_job(run, "lake")
    rounds = []
    for e in range(n_epochs):
        if e == c["setup_rounds"]:
            run.start_timed()
        t0 = time.perf_counter()
        producer.produce(epochs[e])
        producer.flush()
        ok, _, dt = run.op("ReplayJob.tail", lambda: job.tail(
            events_root, max_rounds=1, poll_interval=0, bootstrap=base if e == 0 else None,
        ))
        done = time.perf_counter()
        if not ok:
            continue
        rounds.append(([e], e == 0, dt))
        if e >= c["setup_rounds"]:
            run.sample("freshness_s", done - t0)
            run.sample("catchup_events_per_s", epochs[e].num_rows / dt)
            lookups(run, job.lake, round_keys[e], hist, e, "round_lookup_ms")
    if run.tr is not None:
        run.layer_sample("state.lake.fragments_per_partition_max", max_fragments(job.lake))
        shadow_rounds(run, inputs, rounds)
    read_probe(run, job, inputs, hist, n_epochs - 1)


WORKLOADS = {"catchup": catchup, "read": read}
