"""End-to-end: full replay vs the sequential dict-replay oracle.

The judged invariant (BASELINE.json): exact token-array equality per doc_id
after replaying the synthetic CDC stream, under out-of-order delivery,
duplicated batches, schema evolution, and crash-and-resume.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from data_sync_ray import (
    ReplayJob,
    StreamSpec,
    SyncConfig,
    gen_base_table,
    gen_change_stream,
    read_lake,
    replay_oracle,
    write_event_log,
)


def assert_tables_equal(got: pa.Table, want: pa.Table):
    """Exact equality incl. token arrays, order-normalized by doc_id."""
    got = got.sort_by("doc_id")
    want = want.sort_by("doc_id")
    assert got.num_rows == want.num_rows, (got.num_rows, want.num_rows)
    assert set(got.column_names) == set(want.column_names)
    got = got.select(want.column_names)
    for name in want.column_names:
        g, w = got.column(name), want.column(name)
        if g.type != w.type:
            g = g.cast(w.type)
        g = pa.chunked_array([g.combine_chunks()])
        w = pa.chunked_array([w.combine_chunks()])
        assert g.equals(w), f"column {name} differs"


def build_fixture(tmpdir, spec, n_base=200, seed=42):
    base = gen_base_table(n_base, seed=seed)
    epochs = gen_change_stream(spec)
    ev_root = os.path.join(tmpdir, "events")
    write_event_log(ev_root, epochs)
    return base, epochs, ev_root


def make_job(tmpdir, **kw):
    cfg = SyncConfig(
        lake_root=os.path.join(tmpdir, "lake"),
        num_partitions=kw.pop("num_partitions", 8),
        **kw,
    )
    return ReplayJob(cfg)


@pytest.mark.usefixtures("ray_session")
def test_replay_matches_oracle(tmp_path):
    spec = StreamSpec(n_events=3000, n_docs=200, n_epochs=4, seed=42)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec)
    job = make_job(str(tmp_path))
    job.bootstrap(base)
    summary = job.replay(ev_root)
    assert summary["epochs_run"] == 4
    got = job.lake.read_all()
    want = replay_oracle(base, epochs)
    assert_tables_equal(got, want)
    # distributed read path agrees with the driver-side fold
    ds = read_lake(job.cfg.lake_root)
    got2 = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow")],
        promote_options="permissive",
    )
    assert_tables_equal(got2, want)


@pytest.mark.usefixtures("ray_session")
def test_catch_up_single_execution_with_bootstrap(tmp_path):
    """Bootstrap + all epochs in ONE execution (catch-up mode) must equal
    the oracle and the per-epoch path bit-for-bit."""
    spec = StreamSpec(n_events=2500, n_docs=180, n_epochs=3, seed=23,
                      evolve_from_epoch=2)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=180, seed=23)
    job = make_job(str(tmp_path))
    summary = job.replay(ev_root, bootstrap=base)
    assert summary["epochs_run"] == 3
    want = replay_oracle(base, epochs)
    assert_tables_equal(job.lake.read_all(), want)
    # per-epoch path over the same fixture gives the identical lake state
    import os as _os

    cfg2 = SyncConfig(
        lake_root=_os.path.join(str(tmp_path), "lake2"), num_partitions=8
    )
    job2 = ReplayJob(cfg2)
    job2.bootstrap(base)
    job2.replay(ev_root, catch_up=False)
    assert_tables_equal(job2.lake.read_all(), want)


@pytest.mark.usefixtures("ray_session")
def test_duplicate_delivery_is_noop(tmp_path):
    """Feed the same event epochs twice (at-least-once delivery, the
    reference's retry analog mysql_handler.go:109-118): state unchanged."""
    spec = StreamSpec(n_events=1000, n_docs=100, n_epochs=2, seed=7)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=100, seed=7)
    job = make_job(str(tmp_path))
    job.bootstrap(base)
    job.replay(ev_root)
    first = job.lake.read_all()
    # replay again: epoch markers make it a no-op
    s2 = job.replay(ev_root)
    assert s2["epochs_run"] == 0
    # force re-apply past the epoch markers: commit log still no-ops
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(ev_root, "epoch=00000"))
    job.lake.epochs_done()  # marker exists
    # simulate a torn driver: remove epoch marker, re-run epoch 0 —
    # committed partitions are pruned before the exchange (cheapest no-op)
    os.remove(os.path.join(job.lake.ckpt_dir, "_epochs.json"))
    rows = job.apply_epoch(0, ds)
    assert rows == []
    assert_tables_equal(job.lake.read_all(), first)
    # and a Ray-task-retry analog hitting the commit log directly:
    p0 = job.lake.partitions()[0]
    ck_before = job.lake.read_checkpoint(p0)
    m = job.lake.commit_delta(p0, 0, pa.table({"doc_id": ["zz"],
                                               "log_pos": [999]}), 1)
    assert m["replayed"] is True
    assert job.lake.read_checkpoint(p0) == ck_before
    assert_tables_equal(job.lake.read_all(), first)


@pytest.mark.usefixtures("ray_session")
def test_crash_and_resume_mid_replay(tmp_path):
    """Stop after K epochs (driver crash analog), restart with a fresh job
    object, resume: final state equals the uninterrupted oracle."""
    spec = StreamSpec(n_events=2000, n_docs=150, n_epochs=4, seed=13)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=150, seed=13)
    job = make_job(str(tmp_path))
    job.bootstrap(base)
    # run only the first two epochs, then "crash"
    import ray.data as rd

    for e in (0, 1):
        job.apply_epoch(e, rd.read_parquet(os.path.join(ev_root, f"epoch={e:05d}")))
    # partial-commit crash: epoch 2 applied for some partitions but NOT
    # marked done (driver died between partition commits and the marker)
    ds2 = rd.read_parquet(os.path.join(ev_root, "epoch=00002"))
    job.apply_epoch(2, ds2)
    os.remove(os.path.join(job.lake.ckpt_dir, "_epochs.json"))
    # restart: a brand-new job over the same lake replays everything
    cfg2 = SyncConfig(lake_root=job.cfg.lake_root, num_partitions=8)
    job2 = ReplayJob(cfg2, create=False)
    job2.replay(ev_root)
    want = replay_oracle(base, epochs)
    assert_tables_equal(job2.lake.read_all(), want)


@pytest.mark.usefixtures("ray_session")
def test_schema_evolution_column_add(tmp_path):
    """Later epochs add a `quality` column + new source enum values; the
    lake unifies (column add => null-fill for old rows)."""
    spec = StreamSpec(
        n_events=1500, n_docs=120, n_epochs=3, seed=21, evolve_from_epoch=2
    )
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=120, seed=21)
    job = make_job(str(tmp_path))
    job.bootstrap(base)
    job.replay(ev_root)
    got = job.lake.read_all()
    want = replay_oracle(base, epochs)
    assert "quality" in got.column_names
    assert_tables_equal(got, want)
    srcs = set(got.column("source").to_pylist())
    assert srcs & {"wiki", "forum"}  # enum growth arrived


@pytest.mark.usefixtures("ray_session")
def test_skewed_stream_converges(tmp_path):
    """1% of keys take ~70% of traffic; pre-combine collapses them before
    the exchange; result still exact."""
    spec = StreamSpec(
        n_events=4000, n_docs=300, n_epochs=2, seed=3,
        hot_frac=0.01, hot_weight=0.7,
    )
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=300, seed=3)
    job = make_job(str(tmp_path))
    job.bootstrap(base)
    job.replay(ev_root)
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))


@pytest.mark.usefixtures("ray_session")
def test_read_lake_column_pushdown(tmp_path):
    """read_lake(columns=...) projects at the fragment read (the fold's
    key/order/tombstone internals never surface) and matches the full
    read's values; unknown columns raise up front."""
    spec = StreamSpec(n_events=1200, n_docs=100, n_epochs=2, seed=37)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=100,
                                          seed=37)
    job = make_job(str(tmp_path))
    job.replay(ev_root, bootstrap=base)
    from data_sync_ray import read_lake

    full = job.lake.read_all()
    got = pa.concat_tables(
        list(read_lake(job.cfg.lake_root,
                       columns=["doc_id", "n_tok"]).iter_batches(
            batch_format="pyarrow")),
        promote_options="permissive",
    ).sort_by("doc_id")
    assert got.column_names == ["doc_id", "n_tok"]
    assert got.column("doc_id").equals(
        full.sort_by("doc_id").column("doc_id")
    )
    assert got.column("n_tok").to_pylist() == full.sort_by(
        "doc_id"
    ).column("n_tok").to_pylist()
    with pytest.raises(KeyError):
        read_lake(job.cfg.lake_root, columns=["nope"])


@pytest.mark.usefixtures("ray_session")
def test_tail_auto_compaction_bounds_fragments(tmp_path):
    """tail(compact_over_fragments=K) keeps every partition's live
    fragment count bounded while state stays exact."""
    spec = StreamSpec(n_events=2400, n_docs=60, n_epochs=6, seed=41)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=60,
                                          seed=41)
    # span_commit_epochs=1: per-epoch deltas, so the 6-epoch backlog
    # actually accumulates >2 fragments (the round-4 span commit would
    # otherwise leave bootstrap + ONE span file and never need compaction
    # — that regime is covered by test_span_chunking_and_compaction)
    job = make_job(str(tmp_path), num_partitions=4, span_commit_epochs=1)
    job.bootstrap(base)
    totals = job.tail(ev_root, poll_interval=0.01, max_rounds=1,
                      compact_over_fragments=2)
    assert totals.get("compactions", 0) > 0
    for p in job.lake.partitions():
        assert len(job.lake.read_checkpoint(p)["files"]) <= 2 + 1
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))


@pytest.mark.usefixtures("ray_session")
def test_compaction_preserves_state(tmp_path):
    spec = StreamSpec(n_events=1200, n_docs=100, n_epochs=3, seed=31)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=100, seed=31)
    job = make_job(str(tmp_path))
    job.bootstrap(base)
    job.replay(ev_root)
    before = job.lake.read_all()
    out = job.compact()
    assert any(r["compacted"] for r in out)
    after = job.lake.read_all()
    assert_tables_equal(after, before)
    # every partition now holds at most one file
    for p in job.lake.partitions():
        assert len(job.lake.read_checkpoint(p)["files"]) <= 1


@pytest.mark.usefixtures("ray_session")
def test_compaction_keeps_tombstones_no_resurrection(tmp_path):
    """delete -> compact -> stale repair snapshot (log_pos below the
    delete) must NOT resurrect the deleted key: compacted bases retain
    winning tombstones."""
    import ray.data as rd

    from data_sync_ray.datamodel import CHANGE_EVENT_SCHEMA

    base = gen_base_table(30, seed=9)
    job = make_job(str(tmp_path), num_partitions=4)
    job.bootstrap(base)
    dead = "doc00000007"
    ev = pa.Table.from_pylist(
        [dict(log_pos=100, ts=None, op="delete", table="docs", doc_id=dead,
              tokens=None, n_tok=None, source=None, schema_ver=1)],
        schema=CHANGE_EVENT_SCHEMA,
    )
    ev_root = os.path.join(str(tmp_path), "ev")
    write_event_log(ev_root, [ev])
    job.replay(ev_root)
    assert dead not in set(job.lake.read_all().column("doc_id").to_pylist())
    job.compact()
    # stale repair: the original base still contains the dead doc at log_pos 0
    job.repair(rd.from_arrow(base), repair_id=1)
    ids = set(job.lake.read_all().column("doc_id").to_pylist())
    assert dead not in ids, "compaction dropped the tombstone -> resurrection"
    assert len(ids) == 29


@pytest.mark.usefixtures("ray_session")
def test_repair_and_inspect(tmp_path):
    spec = StreamSpec(n_events=800, n_docs=80, n_epochs=2, seed=17)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=80, seed=17)
    job = make_job(str(tmp_path))
    job.bootstrap(base)
    job.replay(ev_root)
    want = job.lake.read_all()
    # repair with a stale snapshot (the base): LWW makes it a no-op
    import ray.data as rd

    job.repair(rd.from_arrow(base), repair_id=0)
    assert_tables_equal(job.lake.read_all(), want)
    rep = job.inspect(ev_root)
    assert rep["status"] == "ok"
    assert rep["lag"] == 0


@pytest.mark.usefixtures("ray_session")
def test_many_epochs_few_partitions_stress(tmp_path):
    """Race-prone shape (many epochs sharing few partitions in one
    catch-up execution): commits for a partition are serialized
    structurally (one fold task per group); state must stay exact."""
    spec = StreamSpec(n_events=2400, n_docs=120, n_epochs=8, seed=41)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=120, seed=41)
    job = make_job(str(tmp_path), num_partitions=4)
    job.replay(ev_root, bootstrap=base)
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))
    # every (partition, epoch) pair committed exactly once
    for p in job.lake.partitions():
        ck = job.lake.read_checkpoint(p)
        assert len(ck["applied_epochs"]) == len(set(ck["applied_epochs"]))


@pytest.mark.usefixtures("ray_session")
def test_tailing_mode_incremental_epochs(tmp_path, monkeypatch):
    """Kafka-tail analog: epoch dirs appear over time; each replay() call
    picks up only the new ones, reads only the new epoch's files and runs
    two Ray Data executions (spill, fold); final state equals the full
    oracle."""
    import shutil

    import ray.data as rd

    reads, executions = [], []
    real_read, real_take_all = rd.read_parquet, rd.Dataset.take_all

    def read_parquet(paths, **kw):
        reads.append(paths)
        return real_read(paths, **kw)

    def take_all(ds, *a, **kw):
        executions.append(ds)
        return real_take_all(ds, *a, **kw)

    spec = StreamSpec(n_events=1800, n_docs=150, n_epochs=3, seed=67)
    base = gen_base_table(150, seed=67)
    epochs = gen_change_stream(spec)
    staged = os.path.join(str(tmp_path), "staged")
    live = os.path.join(str(tmp_path), "events")
    write_event_log(staged, epochs)
    os.makedirs(live, exist_ok=True)
    job = make_job(str(tmp_path))
    job.bootstrap(base)
    monkeypatch.setattr(rd, "read_parquet", read_parquet)
    monkeypatch.setattr(rd.Dataset, "take_all", take_all)
    for e in range(3):
        shutil.copytree(
            os.path.join(staged, f"epoch={e:05d}"),
            os.path.join(live, f"epoch={e:05d}"),
        )
        reads.clear()
        executions.clear()
        summary = job.replay(live)
        assert summary["epochs_run"] == 1  # only the new epoch ran
        [files] = reads
        assert files and {os.path.dirname(f) for f in files} == {
            os.path.join(live, f"epoch={e:05d}")
        }
        assert len(executions) == 2
        rep = job.inspect(live)
        assert rep["lag"] == 0
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))


@pytest.mark.usefixtures("ray_session")
def test_tail_and_job_lock(tmp_path):
    spec = StreamSpec(n_events=900, n_docs=80, n_epochs=3, seed=61)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=80, seed=61)
    job = make_job(str(tmp_path))
    totals = job.tail(ev_root, poll_interval=0.01, max_rounds=3,
                      bootstrap=base, inspect_every=1)
    assert totals["rounds"] == 3
    assert totals["epochs_run"] == 3  # all epochs consumed in round 1
    assert totals["last_inspect"]["status"] == "ok"
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))
    # lock excludes a second concurrent job
    with job.lake.job_lock():
        import pytest as _pytest

        with _pytest.raises(RuntimeError, match="lake lock"):
            with job.lake.job_lock():
                pass


@pytest.mark.usefixtures("ray_session")
def test_inspector_stall_alarm_escalation(tmp_path):
    """Lag with no progress escalates stalled -> alarm after N rounds
    (the reference's inspect_alarm_count state machine)."""
    spec = StreamSpec(n_events=600, n_docs=60, n_epochs=2, seed=71)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=60, seed=71)
    job = make_job(str(tmp_path), inspect_alarm_count=3)
    # apply only epoch 0: lag remains
    import ray.data as rd

    job.bootstrap(base)
    job.apply_epoch(0, rd.read_parquet(os.path.join(ev_root, "epoch=00000")))
    r1 = job.inspect(ev_root)
    assert r1["status"] == "progressing" and r1["lag"] > 0
    r2 = job.inspect(ev_root)
    assert r2["status"] == "stalled" and r2["consecutive_fails"] == 1
    job.inspect(ev_root)
    r4 = job.inspect(ev_root)
    assert r4["status"] == "alarm" and r4["consecutive_fails"] == 3
    # catching up resets the counter
    job.apply_epoch(1, rd.read_parquet(os.path.join(ev_root, "epoch=00001")))
    r5 = job.inspect(ev_root)
    assert r5["status"] == "ok" and r5["consecutive_fails"] == 0


@pytest.mark.usefixtures("ray_session")
def test_deep_verify_detects_corruption(tmp_path):
    """deep_verify: consistent after replay; detects a corrupted row and a
    deleted row in the lake."""
    spec = StreamSpec(n_events=800, n_docs=80, n_epochs=2, seed=83)
    base, epochs, ev_root = build_fixture(str(tmp_path), spec, n_base=80, seed=83)
    job = make_job(str(tmp_path), num_partitions=4)
    job.replay(ev_root, bootstrap=base)
    expected = replay_oracle(base, epochs).select(["doc_id", "tokens"])
    rep = job.deep_verify(expected)
    assert rep["consistent"], rep
    # corrupt: tamper with one expected row + add a phantom row
    bad = expected.to_pylist()
    bad[0]["tokens"] = [1, 2, 3]
    bad.append({"doc_id": "phantom", "tokens": [9]})
    rep2 = job.deep_verify(pa.Table.from_pylist(bad))
    assert not rep2["consistent"]
    assert rep2["mismatch"] == 1 and rep2["missing"] == 1


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_randomized_spec_seeds(tmp_path, seed):
    """Seed sweep: varied op mixes / skew / epochs through the full
    pipeline, each against its oracle."""
    rngish = seed % 3
    spec = StreamSpec(
        n_events=800 + seed, n_docs=60 + rngish * 40,
        n_epochs=2 + rngish, seed=seed,
        op_mix=[(0.5, 0.4, 0.1), (0.8, 0.1, 0.1), (0.3, 0.3, 0.4)][rngish],
        hot_weight=[0.3, 0.7, 0.0][rngish],
        evolve_from_epoch=None if rngish == 0 else 1,
    )
    base = gen_base_table(spec.n_docs, seed=seed)
    epochs = gen_change_stream(spec)
    ev_root = os.path.join(str(tmp_path), "events")
    write_event_log(ev_root, epochs)
    job = make_job(str(tmp_path), num_partitions=4)
    job.replay(ev_root, bootstrap=base)
    assert_tables_equal(job.lake.read_all(), replay_oracle(base, epochs))


@pytest.mark.usefixtures("ray_session")
def test_lake_dedup_report(tmp_path):
    """lake x dedup composition: exact content-dup groups over the synced
    winners (identical token sequences under different doc_ids)."""
    from data_sync_ray.pipelines.replay import lake_dedup_report

    base = pa.table({
        "doc_id": pa.array(["a", "b", "c", "d", "e"]),
        "tokens": pa.array([[1, 2, 3], [1, 2, 3], [9], [1, 2, 3], [9, 9]],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([3, 3, 1, 3, 2], pa.int32()),
        "source": pa.array(["s"] * 5),
        "log_pos": pa.array([0] * 5, pa.int64()),
    })
    job = make_job(str(tmp_path), num_partitions=4)
    job.bootstrap(base)
    rep = lake_dedup_report(job.cfg.lake_root, num_parts=4)
    assert len(rep) == 1          # only the [1,2,3] group has n > 1
    assert rep.iloc[0]["n_docs"] == 3
    assert rep.iloc[0]["min_doc_id"] == "a"
