"""Multi-table sync + metrics Dataset."""

import os

import pytest

from data_sync_ray import ReplayJob, StreamSpec, SyncConfig, gen_base_table, gen_change_stream, replay_oracle, write_event_log
from data_sync_ray.pipelines.multi import MultiTableReplay

from test_replay_e2e import assert_tables_equal


@pytest.mark.usefixtures("ray_session")
def test_two_tables_routed_to_own_lakes(tmp_path):
    """Shared event log with docs + ignored_tbl events: each table's lake
    holds exactly its own rows; docs matches the docs-only oracle."""
    spec = StreamSpec(n_events=1500, n_docs=120, n_epochs=2, seed=19,
                      decoy_table_frac=0.3)
    base = gen_base_table(120, seed=19)
    epochs = gen_change_stream(spec)
    ev_root = os.path.join(str(tmp_path), "events")
    write_event_log(ev_root, epochs)
    cfg = SyncConfig(lake_root=os.path.join(str(tmp_path), "lakes"),
                     num_partitions=4)
    multi = MultiTableReplay(cfg, ["docs", "ignored_tbl"])
    multi.replay(ev_root, bootstraps={"docs": base})

    for t, b in (("docs", base), ("ignored_tbl", None)):
        got = multi.read_table(t)
        assert got.num_rows > 0
        assert_tables_equal(got, replay_oracle(b, epochs, include_tables=(t,)))

    # per-table consistency inspection
    rep = multi.inspect(ev_root)
    assert rep["docs"]["status"] == "ok"


@pytest.mark.usefixtures("ray_session")
def test_single_pass_equals_per_table_replay(tmp_path):
    """MultiTableReplay.replay (one read of the shared log for all tables)
    gives oracle-exact lakes, a second invocation is a no-op (per-lake
    resume), and each lake equals a per-table ReplayJob.replay."""
    spec = StreamSpec(n_events=1800, n_docs=150, n_epochs=3, seed=29,
                      decoy_table_frac=0.25)
    base = gen_base_table(150, seed=29)
    epochs = gen_change_stream(spec)
    ev_root = os.path.join(str(tmp_path), "events")
    write_event_log(ev_root, epochs)
    boots = {"docs": base, "ignored_tbl": None}

    multi = MultiTableReplay(
        SyncConfig(lake_root=os.path.join(str(tmp_path), "lakes"),
                   num_partitions=4),
        ["docs", "ignored_tbl"],
    )
    out = multi.replay(ev_root, bootstraps={"docs": base})
    assert out["docs"]["epochs_run"] == 3
    want = {
        t: replay_oracle(boots[t], epochs, include_tables=(t,))
        for t in boots
    }
    for t in boots:
        assert_tables_equal(multi.read_table(t), want[t])

    # resume: everything already done -> no epochs run, state unchanged
    out2 = multi.replay(ev_root)
    assert out2["docs"]["epochs_run"] == 0
    assert out2["docs"]["events_applied"] == 0
    for t in boots:
        assert_tables_equal(multi.read_table(t), want[t])

    # one table at a time through ReplayJob.replay gives the same lakes
    for t in boots:
        job = ReplayJob(SyncConfig(
            lake_root=os.path.join(str(tmp_path), "single", t),
            num_partitions=4, include_tables=(t,),
        ))
        job.replay(ev_root, bootstrap=boots[t])
        assert_tables_equal(job.lake.read_all(), multi.read_table(t))


@pytest.mark.usefixtures("ray_session")
def test_metrics_dataset(tmp_path):
    from data_sync_ray.pipelines.replay import ReplayJob

    spec = StreamSpec(n_events=600, n_docs=60, n_epochs=2, seed=4)
    base = gen_base_table(60, seed=4)
    epochs = gen_change_stream(spec)
    ev_root = os.path.join(str(tmp_path), "events")
    write_event_log(ev_root, epochs)
    job = ReplayJob(SyncConfig(lake_root=os.path.join(str(tmp_path), "lake"),
                               num_partitions=4))
    job.replay(ev_root, bootstrap=base)
    m = job.lake.metrics_dataset()
    t = m.to_pandas()
    assert set(t.columns) >= {"partition", "epoch", "events_in",
                              "watermark_log_pos", "apply_sec"}
    # every partition reported, bootstrap epoch included
    assert set(t["partition"]) == set(job.lake.partitions())
    assert -1 in set(t["epoch"])
    assert (t["events_in"] > 0).any()
