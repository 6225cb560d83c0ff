"""Extended randomized e2e sweep: varied specs x catch-up on/off,
exact-equality vs the sequential oracle each time; half the cases also
compact afterwards and re-check, half export an incremental mirror and
check it equals the lake; 5 extra cases run the multi-table replay with
both lakes checked against table-filtered oracles."""
import os, shutil, sys, ray
ray.init(address="local", num_cpus=16, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import pyarrow as pa
from data_sync_ray import (ReplayJob, StreamSpec, SyncConfig, gen_base_table,
                           gen_change_stream, replay_oracle, write_event_log)

def equal(got, want):
    got = got.sort_by("doc_id"); want = want.sort_by("doc_id")
    if got.num_rows != want.num_rows: return False
    if set(got.column_names) != set(want.column_names): return False
    got = got.select(want.column_names)
    for c in want.column_names:
        g = got.column(c); w = want.column(c)
        if g.type != w.type: g = g.cast(w.type)
        if not pa.chunked_array([g.combine_chunks()]).equals(pa.chunked_array([w.combine_chunks()])):
            return False
    return True

fails = 0
# optional seed offset: each sweep invocation can explore fresh space
OFF = int(sys.argv[1]) if len(sys.argv) > 1 else 0
cases = []
for seed in range(100 + OFF, 110 + OFF):
    cases.append(dict(seed=seed, catch=True))
for seed in range(200 + OFF, 205 + OFF):
    cases.append(dict(seed=seed, catch=True))
for seed in range(300 + OFF, 305 + OFF):
    cases.append(dict(seed=seed, catch=False))
import numpy as np
rng = np.random.default_rng(9 + OFF)
for i, c in enumerate(cases):
    wd = f"/tmp/sweep/{i}"
    shutil.rmtree(wd, ignore_errors=True)
    n_docs = int(rng.integers(50, 400))
    spec = StreamSpec(
        n_events=int(rng.integers(500, 6000)), n_docs=n_docs,
        n_epochs=int(rng.integers(1, 6)), seed=c["seed"],
        op_mix=tuple((lambda p: p/p.sum())(rng.random(3) + 0.1)),
        hot_frac=float(rng.uniform(0.005, 0.1)),
        hot_weight=float(rng.uniform(0.1, 0.9)),
        decoy_table_frac=float(rng.uniform(0, 0.4)),
        evolve_from_epoch=(None if rng.random() < 0.5 else int(rng.integers(0, 3))),
    )
    base = gen_base_table(n_docs, seed=c["seed"])
    epochs = gen_change_stream(spec)
    ev = os.path.join(wd, "events"); write_event_log(ev, epochs)
    job = ReplayJob(SyncConfig(lake_root=os.path.join(wd, "lake"),
                               num_partitions=int(rng.choice([2, 4, 8, 16])),
                               spill_groups=int(rng.choice([2, 4, 8])),
                               fold_chunk_rows=int(rng.choice([64, 2048, 2_000_000])),
                               storage_backend=str(rng.choice(["posix", "objstore"]))))
    job.replay(ev, bootstrap=base, catch_up=c["catch"])
    want = replay_oracle(base, epochs)
    ok = equal(job.lake.read_all(), want)
    if ok and rng.random() < 0.5:
        # compaction must preserve the folded answer exactly
        job.compact_if_needed(int(rng.integers(1, 4)))
        ok = equal(job.lake.read_all(), want)
        if not ok:
            print(f"FAIL case {i}: post-compaction mismatch")
    if ok and rng.random() < 0.5:
        # the incremental mirror must equal the lake
        import pyarrow.parquet as pq
        from data_sync_ray import export_lake_incremental

        mirror = os.path.join(wd, "mirror")
        export_lake_incremental(job.cfg.lake_root, mirror)
        parts = [
            pq.read_table(os.path.join(mirror, d, "part-0.parquet"))
            for d in sorted(os.listdir(mirror))
            if d.startswith("partition=")
        ]
        ok = equal(pa.concat_tables(parts), want)
        if not ok:
            print(f"FAIL case {i}: export mirror mismatch")
    if not ok:
        fails += 1
        print(f"FAIL case {i}: {c} spec={spec}")
    shutil.rmtree(wd, ignore_errors=True)

# multi-table cases: both lakes vs table-filtered oracles
from data_sync_ray.pipelines.multi import MultiTableReplay

for j, seed in enumerate(range(400 + OFF, 405 + OFF)):
    wd = f"/tmp/sweep/multi{j}"
    shutil.rmtree(wd, ignore_errors=True)
    n_docs = int(rng.integers(50, 300))
    spec = StreamSpec(
        n_events=int(rng.integers(500, 4000)), n_docs=n_docs,
        n_epochs=int(rng.integers(1, 5)), seed=seed,
        decoy_table_frac=float(rng.uniform(0.1, 0.5)),
    )
    base = gen_base_table(n_docs, seed=seed)
    epochs = gen_change_stream(spec)
    ev = os.path.join(wd, "events"); write_event_log(ev, epochs)
    multi = MultiTableReplay(
        SyncConfig(lake_root=os.path.join(wd, "lakes"),
                   num_partitions=int(rng.choice([2, 4, 8])),
                   storage_backend=str(rng.choice(["posix", "objstore"]))),
        ["docs", "ignored_tbl"],
    )
    multi.replay(ev, bootstraps={"docs": base})
    ok = equal(multi.read_table("docs"),
               replay_oracle(base, epochs, include_tables=("docs",)))
    ok = ok and equal(
        multi.read_table("ignored_tbl"),
        replay_oracle(None, epochs, include_tables=("ignored_tbl",)),
    )
    if not ok:
        fails += 1
        print(f"FAIL multi case {j}: seed={seed}")
    shutil.rmtree(wd, ignore_errors=True)
print(f"SWEEP done: {len(cases) + 5} cases, {fails} failures")
ray.shutdown()
sys.exit(1 if fails else 0)
