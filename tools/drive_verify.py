"""Verify drive: e2e replay + crash probe + torn-marker probe against the
sequential oracle (catch-up single-committer, stale-tmp sweep, spill-clear
on prepare).

usage: drive_verify.py WORKDIR [STOP_AFTER_EPOCH|-1]
                       [spill|compact|zorder|multi][:objstore]"""
import os
import sys

import ray

workdir = sys.argv[1]
stop_after = int(sys.argv[2]) if len(sys.argv) > 2 else -1
mode = sys.argv[3] if len(sys.argv) > 3 else "spill"
# storage backend under test: mode suffix ":objstore" (e.g. spill:objstore)
# routes every lake commit through the version-checked conditional-put
# backend instead of fsync+rename+flock
backend = "posix"
if ":" in mode:
    mode, backend = mode.split(":", 1)
if mode not in ("spill", "compact", "zorder", "multi"):
    raise SystemExit(f"unknown mode {mode!r}")

ray.init(address="local", num_cpus=8, include_dashboard=False)

from data_sync_ray import (  # noqa: E402
    ReplayJob, StreamSpec, SyncConfig, gen_base_table, gen_change_stream,
    replay_oracle, write_event_log,
)
import pyarrow as pa  # noqa: E402

spec = StreamSpec(n_events=20000, n_docs=1200, n_epochs=5, seed=777)
base = gen_base_table(1200, seed=777)
epochs = gen_change_stream(spec)
ev_root = os.path.join(workdir, "events")
if not os.path.isdir(ev_root):
    write_event_log(ev_root, epochs)

cfg = SyncConfig(
    lake_root=os.path.join(workdir, "lake"), num_partitions=16,
    storage_backend=backend,
    # zorder mode: secondary zone maps must be recorded so the pruned
    # where= read at the end actually skips files (and a torn
    # compaction can tear mid-file_stats-rewrite)
    stats_columns=("n_tok", "source") if mode == "zorder" else (),
)

if mode == "multi":
    # one-pass two-table replay over the shared log; BOTH lakes must
    # match their table-filtered oracles exactly (per-lake exactly-once
    # commit logs resume independently after a kill)
    if stop_after >= 0:
        raise SystemExit(
            "multi mode has no stop_after crash probe — use chaos_kill's "
            "random SIGKILL instead (refusing a silent full run)"
        )
    from data_sync_ray.pipelines.multi import MultiTableReplay

    multi = MultiTableReplay(cfg, ["docs", "ignored_tbl"])
    s = multi.replay(ev_root, bootstraps={"docs": base})
    eq = True
    for tbl, b in (("docs", base), ("ignored_tbl", None)):
        got = multi.read_table(tbl).sort_by("doc_id")
        want = replay_oracle(b, epochs, include_tables=(tbl,)).sort_by(
            "doc_id"
        )
        ok = got.num_rows == want.num_rows
        if ok:
            g = got.select(want.column_names)
            ok = g.combine_chunks().equals(want.combine_chunks())
        print(f"table {tbl}: rows={got.num_rows} exact={ok}")
        eq = eq and ok
    print(f"exact_token_equality={eq} rows="
          f"{sum(multi.read_table(t).num_rows for t in multi.tables)}")
    ins = multi.inspect(ev_root)
    worst = max(ins.values(), key=lambda r: r["lag"])
    print(f"inspect: status {worst['status']}, lag {worst['lag']}")
    ray.shutdown()
    raise SystemExit(0)

job = ReplayJob(cfg)

if stop_after >= 0:
    import ray.data as rd
    job.bootstrap(base)
    for e in range(stop_after + 1):
        rows = job.apply_epoch(
            e, rd.read_parquet(os.path.join(ev_root, f"epoch={e:05d}")))
        print(f"epoch {e}: events={sum(r['events_in'] for r in rows)}"
              if rows else f"epoch {e}: already done, skipped")
    print(f"CRASH after epoch {stop_after}", flush=True)
    os._exit(137)

done_before = job.lake.epochs_done()
if mode in ("compact", "zorder"):
    # interleave aggressive auto-compaction between epochs so a chaos
    # SIGKILL can land mid-compaction (tombstone retention, file_stats
    # rewrite, and the time-travel guard must all survive the tear).
    # zorder mode compacts EVERY epoch with Z-curve clustering + a
    # multi-file split, so the kill can land mid-Z-order rewrite and
    # the secondary zone maps are live when the pruned read below runs.
    import ray.data as rd
    job.bootstrap(base)
    applied = 0
    for e in range(spec.n_epochs):
        rows = job.apply_epoch(
            e, rd.read_parquet(os.path.join(ev_root, f"epoch={e:05d}")))
        applied += sum(r["events_in"] for r in rows) if rows else 0
        if mode == "zorder":
            job.compact(zorder_by=["n_tok", "source"],
                        max_rows_per_file=32)
        else:
            job.compact_if_needed(2)
    s = {"epochs_run": spec.n_epochs, "events_applied": applied}
else:
    s = job.replay(ev_root, bootstrap=base)
print(f"epochs_run={s['epochs_run']} events_applied={s['events_applied']} "
      f"skipped={sorted(done_before)}")

got = job.lake.read_all()
want = replay_oracle(base, epochs)
got = got.sort_by("doc_id")
want = want.sort_by("doc_id")
eq = got.num_rows == want.num_rows
if eq:
    got = got.select(want.column_names)
    for name in want.column_names:
        g, w = got.column(name), want.column(name)
        if g.type != w.type:
            g = g.cast(w.type)
        g = pa.chunked_array([g.combine_chunks()])
        w = pa.chunked_array([w.combine_chunks()])
        if not g.equals(w):
            eq = False
            print(f"column {name} differs")
if mode == "zorder":
    # secondary-range read through the zone-map pruned path must equal
    # a brute-force filter of the oracle — a torn Z-order compaction
    # that left stale file_stats would silently drop rows here
    import pyarrow.compute as pc
    lo_hi = (60, 140)
    parts = [
        job.lake.read_partition(p, where={"n_tok": lo_hi})
        for p in job.lake.partitions()
    ]
    parts = [t for t in parts if t is not None and t.num_rows]
    pruned = (
        pa.concat_tables(parts, promote_options="permissive")
        .sort_by("doc_id")
        if parts else None
    )
    mask = pc.and_(
        pc.greater_equal(want.column("n_tok"), lo_hi[0]),
        pc.less_equal(want.column("n_tok"), lo_hi[1]),
    )
    want_f = want.filter(mask).sort_by("doc_id")
    n_pruned = 0 if pruned is None else pruned.num_rows
    ok = n_pruned == want_f.num_rows
    if ok and n_pruned:
        g = pruned.select(want_f.column_names)
        for name in want_f.column_names:
            gc, wc = g.column(name), want_f.column(name)
            if gc.type != wc.type:
                gc = gc.cast(wc.type)
            if not pa.chunked_array([gc.combine_chunks()]).equals(
                pa.chunked_array([wc.combine_chunks()])
            ):
                ok = False
                print(f"zorder pruned column {name} differs")
    print(f"zorder_pruned_read: rows={n_pruned} exact={ok}")
    eq = eq and ok
print(f"exact_token_equality={eq} rows={got.num_rows}")
ins = job.inspect(ev_root)
print(f"inspect: status {ins['status']}, lag {ins['lag']}")
ray.shutdown()
