"""Round-2 durability/crash-safety regressions:

- stale checkpoint tmp files from a crash mid-atomic-write must not block
  resume (ADVICE: lake.py part-* glob matched *.tmp.* partials);
- truncated spill fragments from a killed phase-1 task must be skipped or
  cleared, never wedge the fold (ADVICE: exchange.py);
- reopening a lake with different immutable config must fail loudly, not
  silently re-route keys (ADVICE: Lake.create CONFIG.json overwrite);
- catch-up must serialize a partition's epoch commits in one task
  (ADVICE high: (partition, epoch) grouping raced the checkpoint RMW);
- the fold must never commit fewer rows than the spill wrote;
- a lake whose CONFIG.json names retired config fields still opens;
- the T4 failures counter is actually wired.
"""

import json
import os

import pyarrow as pa
import pytest

from data_sync_ray import (
    ReplayJob,
    StreamSpec,
    SyncConfig,
    gen_base_table,
    gen_change_stream,
    replay_oracle,
    write_event_log,
)
from data_sync_ray.stages.exchange import (
    _read_spill_safe,
    _write_spill,
    prepare_spill_dirs,
    spill_dir,
)
from data_sync_ray.state.lake import Lake

from test_replay_e2e import assert_tables_equal, build_fixture, make_job


def test_stale_ckpt_tmp_does_not_block_resume(tmp_path):
    cfg = SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=4)
    lake = Lake.create(cfg)
    lake.commit_delta(1, 0, pa.table({"doc_id": ["a"], "log_pos": [1]}), 1)
    # crash mid-atomic-write leaves a partial tmp file
    partial = os.path.join(lake.ckpt_dir, "part-00002.json.tmp.12345")
    with open(partial, "w") as f:
        f.write('{"partition": 2, "watermark')  # truncated JSON
    # listings must ignore it instead of raising JSONDecodeError
    assert lake.partitions() == [1]
    assert lake.watermarks() == {1: 1}
    assert lake.committed_partitions(0) == {1}
    assert lake.sweep_stale_tmp() == 1
    assert not os.path.exists(partial)


def test_truncated_spill_fragment_is_quarantined(tmp_path):
    root = str(tmp_path / "lake")
    prepare_spill_dirs(root, [0], 2)
    d = spill_dir(root, 0, 0)
    good = os.path.join(d, "good.arrows")
    _write_spill(pa.table({"doc_id": ["a"], "log_pos": [1]}), good)
    bad = os.path.join(d, "bad.arrows")
    with open(good, "rb") as f:
        blob = f.read()
    with open(bad, "wb") as f:
        f.write(blob[: len(blob) // 2])  # killed mid-write
    assert _read_spill_safe(good).num_rows == 1
    assert _read_spill_safe(bad) is None
    assert os.path.exists(bad + ".bad")  # quarantined, not re-parsed
    # and prepare_spill_dirs clears leftovers from a crashed prior run
    prepare_spill_dirs(root, [0], 2)
    assert os.listdir(spill_dir(root, 0, 0)) == []


def test_reopen_lake_with_different_partitioning_fails(tmp_path):
    cfg = SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=8)
    Lake.create(cfg)
    with pytest.raises(ValueError, match="num_partitions"):
        Lake.create(
            SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=16)
        )
    # same immutable fields: reopen fine (mutable fields may change)
    Lake.create(
        SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=8,
                   batch_size=1024)
    )


def test_failures_counter_is_wired(tmp_path):
    cfg = SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=4)
    lake = Lake.create(cfg)
    lake.record_failure(3, "RuntimeError('boom')")
    lake.record_failure(3)
    ck = lake.read_checkpoint(3)
    assert ck["failures"] == 2
    assert "boom" in ck["last_error"]


@pytest.mark.usefixtures("ray_session")
def test_chunked_fold_bounded_memory_equals_oracle(tmp_path):
    """fold_chunk_rows far below the spill size forces the incremental
    LWW reduce path many times over; the final state must still equal the
    sequential oracle exactly (fold algebra associativity in practice)."""
    spec = StreamSpec(n_events=6000, n_docs=300, n_epochs=3, seed=31,
                      evolve_from_epoch=2)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=300,
                                          seed=31)
    job = make_job(str(tmp_path), fold_chunk_rows=64)
    job.replay(ev_root, bootstrap=base)
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))
    # events_in metric still counts raw (pre-reduce) spilled events
    total_in = sum(
        ln["events_in"]
        for p in job.lake.partitions()
        for ln in job.lake.read_checkpoint(p)["lineage"]
    )
    assert total_in >= 300  # bootstrap inserts alone


@pytest.mark.usefixtures("ray_session")
def test_spill_catchup_single_committer_per_partition(tmp_path):
    """Spill catch-up: all of a partition's epochs commit from ONE fold
    task (serially, here as three span commits), so no checkpoint RMW
    race can drop a delta. Verified by (a) oracle equality and (b) every
    epoch that wrote rows still covered by a per-epoch or span delta
    referenced in the checkpoint it committed to."""
    import re

    spec = StreamSpec(n_events=4000, n_docs=250, n_epochs=5, seed=99)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=250,
                                          seed=99)
    job = make_job(str(tmp_path), span_commit_epochs=2)
    summary = job.replay(ev_root, bootstrap=base, catch_up=True)
    assert summary["epochs_run"] == 5
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))
    for p in job.lake.partitions():
        ck = job.lake.read_checkpoint(p)
        lineage_writes = {
            ln["epoch"] for ln in ck["lineage"] if ln["rows_written"] > 0
        }
        covered = set()
        for f in ck["files"]:
            name = os.path.basename(f)
            if name == "delta-bootstrap.parquet":
                covered.add(-1)
            elif m := re.fullmatch(r"delta-e(\d+)\.parquet", name):
                covered.add(int(m.group(1)))
            elif m := re.fullmatch(r"delta-s(-?\d+)_(-?\d+)\.parquet", name):
                covered |= set(range(int(m.group(1)), int(m.group(2)) + 1))
        for e in lineage_writes:
            assert e in covered, (
                f"partition {p}: epoch {e} delta lost from checkpoint"
            )


def _spill_epochs(cfg, tables: dict[int, pa.Table], batch_rows: int):
    """Ray-free phase 1: spill each epoch in batches (several fragments per
    (epoch, group)); returns the reported rows per (epoch, group)."""
    from data_sync_ray.stages.exchange import make_spill_stage

    prepare_spill_dirs(cfg.lake_root, sorted(tables), cfg.spill_groups)
    spilled: dict[tuple[int, int], int] = {}
    for e, t in tables.items():
        stage = make_spill_stage(cfg, e)
        for off in range(0, t.num_rows, batch_rows):
            for r in stage(t.slice(off, batch_rows)).to_pylist():
                key = (r["epoch"], r["g"])
                spilled[key] = spilled.get(key, 0) + r["rows"]
    return spilled


def _fold_groups(cfg, epochs, spilled, groups) -> None:
    from data_sync_ray.stages.exchange import make_fold_commit_stage

    fold = make_fold_commit_stage(cfg, epochs, spilled)
    for g in groups:
        fold(pa.table({"g": pa.array([g], pa.int64())}))


def _fragments(cfg, e: int, g: int) -> list[str]:
    d = spill_dir(cfg.lake_root, e, g)
    return sorted(os.path.join(d, f) for f in os.listdir(d))


@pytest.mark.parametrize("epochs", [[1], [1, 2]])
def test_fold_refuses_to_commit_short_spill(tmp_path, epochs):
    """Row conservation: when a good fragment is lost (deleted) or
    unreadable (truncated, then quarantined), the fold of that
    (epoch, group) raises before committing, on the single-epoch and the
    span path, and leaves every checkpoint as it was."""
    cfg = SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=4,
                     spill_groups=2)
    lake = Lake.create(cfg)
    tables = gen_change_stream(
        StreamSpec(n_events=900, n_docs=60, n_epochs=3, seed=5)
    )
    _fold_groups(cfg, [0], _spill_epochs(cfg, {0: tables[0]}, 100), [0, 1])
    before = {p: lake.read_checkpoint(p) for p in lake.partitions()}
    assert before

    spilled = _spill_epochs(cfg, {e: tables[e] for e in epochs}, 100)
    truncated = _fragments(cfg, epochs[-1], 0)[0]
    with open(truncated, "r+b") as f:
        f.truncate(os.path.getsize(truncated) // 2)
    os.remove(_fragments(cfg, epochs[0], 1)[0])
    for g in (0, 1):
        with pytest.raises(RuntimeError, match="were spilled"):
            _fold_groups(cfg, epochs, spilled, [g])
    assert {p: lake.read_checkpoint(p) for p in lake.partitions()} == before


def test_fold_accepts_duplicated_spill_rows(tmp_path):
    """More rows than reported (a retried spill task's duplicate fragment)
    is not a loss: the fold commits, and LWW collapses the duplicates."""
    import shutil

    cfg = SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=4,
                     spill_groups=2)
    lake = Lake.create(cfg)
    events = gen_change_stream(
        StreamSpec(n_events=300, n_docs=40, n_epochs=1, seed=6)
    )[0]
    spilled = _spill_epochs(cfg, {0: events}, 100)
    frag = _fragments(cfg, 0, 0)[0]
    shutil.copy(frag, frag.replace(".arrows", "-retry.arrows"))
    _fold_groups(cfg, [0], spilled, [0, 1])
    assert_tables_equal(lake.read_all(), replay_oracle(None, [events]))


@pytest.mark.usefixtures("ray_session")
def test_lake_config_with_retired_fields_still_opens(tmp_path):
    """A CONFIG.json that still names the removed exchange_mode /
    apply_mode / apply_concurrency fields reopens and replays."""
    spec = StreamSpec(n_events=600, n_docs=60, n_epochs=2, seed=8)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=60,
                                          seed=8)
    cfg = SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=4)
    lake = Lake.create(cfg)
    old = json.loads(cfg.to_json())
    old.update(exchange_mode="spill", apply_mode="tasks", apply_concurrency=4)
    lake.storage.doc_write_json("CONFIG.json", old)
    assert lake.config() == cfg
    job = ReplayJob(cfg)
    job.replay(ev_root, bootstrap=base)
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))


@pytest.mark.usefixtures("ray_session")
def test_span_commit_catchup_exact_and_time_travel(tmp_path):
    """Round-4 batched-commit amortization: a multi-epoch spill catch-up
    commits SPAN delta files (one per partition per span chunk), the
    final state stays oracle-exact, and an as-of read whose horizon
    falls strictly INSIDE a span reconstructs the per-epoch state via
    the `_epoch` row filter (time travel survives the coalescing)."""
    import glob

    spec = StreamSpec(n_events=5000, n_docs=250, n_epochs=6, seed=77)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=250,
                                          seed=77)
    job = make_job(str(tmp_path))
    job.replay(ev_root, bootstrap=base, catch_up=True)
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))
    spans = glob.glob(
        os.path.join(job.cfg.lake_root, "data", "part=*", "delta-s*")
    )
    assert spans, "batched catch-up should write span deltas"
    # horizon inside the span: epochs {-1, 0, 1, 2} visible only
    want = replay_oracle(base, epochs[:3])
    got = [
        job.lake.read_partition(p, as_of_epoch=2)
        for p in job.lake.partitions()
    ]
    got = pa.concat_tables(
        [t for t in got if t is not None and t.num_rows],
        promote_options="permissive",
    )
    assert_tables_equal(got, want)


def test_span_commit_exactly_once_and_zone_maps(tmp_path):
    """commit_delta_span: duplicate delivery no-ops per epoch; a partial
    overlap writes only the fresh epochs into a NEW smaller span (never
    clobbering a committed file); file_stats keys == files throughout."""
    cfg = SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=4)
    lake = Lake.create(cfg)
    d0 = pa.table({"doc_id": ["a"], "log_pos": [1]})
    d1 = pa.table({"doc_id": ["b"], "log_pos": [2]})
    ms = lake.commit_delta_span(1, [(0, d0, 1), (1, d1, 1)])
    assert [m["replayed"] for m in ms] == [False, False]
    ck = lake.read_checkpoint(1)
    assert ck["applied_epochs"] == [0, 1]
    assert ck["watermark_log_pos"] == 2
    files_before = list(ck["files"])
    assert any("delta-s0_1" in f for f in files_before)
    # duplicate delivery: all epochs no-op, nothing written
    ms2 = lake.commit_delta_span(1, [(0, d0, 1), (1, d1, 1)])
    assert all(m["replayed"] for m in ms2)
    assert lake.read_checkpoint(1)["files"] == files_before
    # partial overlap: only epoch 2 lands, in its own span file
    d2 = pa.table({"doc_id": ["c"], "log_pos": [3]})
    ms3 = lake.commit_delta_span(1, [(1, d1, 1), (2, d2, 1)])
    assert [m["replayed"] for m in ms3] == [True, False]
    ck = lake.read_checkpoint(1)
    assert ck["applied_epochs"] == [0, 1, 2]
    assert any("delta-s2_2" in f for f in ck["files"])
    assert set(ck["file_stats"]) == set(ck["files"])
    # merged read sees all three rows, `_epoch` never leaks out
    t = lake.read_partition(1)
    assert sorted(t.column("doc_id").to_pylist()) == ["a", "b", "c"]
    assert "_epoch" not in t.column_names
    # as-of at 0 keeps only the first span's epoch-0 rows
    t0 = lake.read_partition(1, as_of_epoch=0)
    assert t0.column("doc_id").to_pylist() == ["a"]


@pytest.mark.usefixtures("ray_session")
def test_span_chunking_and_compaction(tmp_path):
    """span_commit_epochs below the backlog size splits the catch-up
    into multiple span commits per partition; compaction folds spans
    into the base and raises the time-travel horizon as usual."""
    import glob

    spec = StreamSpec(n_events=4000, n_docs=200, n_epochs=5, seed=13)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=200,
                                          seed=13)
    job = make_job(str(tmp_path), span_commit_epochs=2)
    job.replay(ev_root, bootstrap=base, catch_up=True)
    want = replay_oracle(base, epochs)
    assert_tables_equal(job.lake.read_all(), want)
    # 6 epochs (incl. bootstrap) / span 2 => up to 3 span files per part
    one_part = sorted(
        os.path.basename(f)
        for f in glob.glob(
            os.path.join(job.cfg.lake_root, "data", "part=00000", "*")
        )
    )
    assert len([f for f in one_part if f.startswith("delta-s")]) >= 2
    job.compact()
    assert_tables_equal(job.lake.read_all(), want)
    with pytest.raises(ValueError, match="compacted"):
        job.lake.read_partition(job.lake.partitions()[0], as_of_epoch=1)
