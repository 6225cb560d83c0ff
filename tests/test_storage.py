"""Pluggable lake storage backends (state/storage.py).

The exactly-once commit protocol must hold under BOTH backends:
`posix` (fsync+rename+flock) and `objstore` (S3-semantics: versioned
conditional puts, no rename, no flock, stealable lease). These tests
pin the objstore backend's semantics directly and prove end-to-end
replay parity with the posix backend and the sequential oracle.
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
    read_lake,
    replay_oracle,
    write_event_log,
)
from data_sync_ray.state.lake import Lake
from data_sync_ray.state.storage import (
    ObjectStoreStorage,
    StorageConflictError,
    make_storage,
    sniff_backend,
)


def assert_tables_equal(got: pa.Table, want: pa.Table):
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


def _delta(ids, log_pos0=0):
    n = len(ids)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "tokens": pa.array([[i, i + 1] for i in ids],
                               pa.list_(pa.int32())),
            "n_tok": pa.array([2] * n, pa.int32()),
            "source": pa.array(["s"] * n),
            "log_pos": pa.array(range(log_pos0, log_pos0 + n), pa.int64()),
            "_deleted": pa.array([False] * n),
        }
    )


def _objstore_lake(tmp_path, name="lake", **kw):
    cfg = SyncConfig(
        lake_root=os.path.join(str(tmp_path), name),
        num_partitions=kw.pop("num_partitions", 4),
        storage_backend="objstore",
        **kw,
    )
    return Lake.create(cfg), cfg


# --- protocol-level semantics -------------------------------------------------


def test_doc_cas_detects_lost_update(tmp_path):
    root = str(tmp_path / "bucket")
    a = make_storage(root, "objstore")
    b = make_storage(root, "objstore")
    a.ensure_layout()
    a.doc_write_json("checkpoints/part-00000.json", {"v": 1})
    # b reads the head, a advances it, b's write must CONFLICT (lost update)
    assert b.doc_read_json("checkpoints/part-00000.json") == {"v": 1}
    a.doc_write_json("checkpoints/part-00000.json", {"v": 2})
    with pytest.raises(StorageConflictError):
        b.doc_write_json("checkpoints/part-00000.json", {"v": 99})
    # the winner's update survives
    assert a.doc_read_json("checkpoints/part-00000.json") == {"v": 2}
    # after re-reading the head, b can commit again
    assert b.doc_read_json("checkpoints/part-00000.json") == {"v": 2}
    b.doc_write_json("checkpoints/part-00000.json", {"v": 3})
    assert a.doc_read_json("checkpoints/part-00000.json") == {"v": 3}


def test_doc_version_chain_pruned(tmp_path):
    root = str(tmp_path / "bucket")
    s = make_storage(root, "objstore")
    s.ensure_layout()
    for i in range(10):
        s.doc_write_json("manifest/CURRENT", {"n": i})
    assert s.doc_read_json("manifest/CURRENT") == {"n": 9}
    phys = [
        n for n in os.listdir(os.path.join(root, "manifest"))
        if n.startswith("CURRENT.v")
    ]
    assert 1 <= len(phys) <= 2  # old versions garbage-collected
    # logical listing strips versions and dedupes
    assert s.doc_list("manifest") == ["CURRENT"]


def test_objstore_commit_path_never_renames(tmp_path, monkeypatch):
    """The objstore protocol must not depend on rename/replace — the
    primitive an object store doesn't have. Make both raise for the
    whole lifetime of create -> commit -> fold -> compact -> manifest."""

    def boom(*a, **k):
        raise AssertionError("rename/replace called in objstore commit path")

    monkeypatch.setattr(os, "rename", boom)
    monkeypatch.setattr(os, "replace", boom)
    lake, _cfg = _objstore_lake(tmp_path)
    m = lake.commit_delta(0, 0, _delta([0, 4, 8]), 3)
    assert m["replayed"] is False and m["rows_written"] == 3
    m2 = lake.commit_delta(0, 0, _delta([0, 4, 8]), 3)  # retry: no-op
    assert m2["replayed"] is True
    lake.commit_delta(0, 1, _delta([4, 12], log_pos0=100), 2)
    t = lake.read_partition(0)
    assert t.num_rows == 4  # 0,4,8,12 (4 upserted)
    got = {r["doc_id"]: r["log_pos"] for r in t.to_pylist()}
    assert got[4] == 100  # LWW winner from epoch 1
    lake.compact_partition(0)
    assert len(lake.read_checkpoint(0)["files"]) == 1
    assert lake.read_partition(0).num_rows == 4
    v = lake.publish_manifest(note="t")
    assert lake.read_manifest(v)["version"] == v
    lake.mark_epoch_done(0)
    lake.mark_epoch_done(1)
    assert lake.epochs_done() == {0, 1}


def test_sniff_and_backend_mismatch_guard(tmp_path):
    lake, cfg = _objstore_lake(tmp_path)
    assert sniff_backend(cfg.lake_root) == "objstore"
    # task-side construction with no backend hint lands on the right one
    assert Lake(cfg.lake_root).storage.backend == "objstore"
    # reopening with the other backend is refused (layout mismatch)
    with pytest.raises(ValueError, match="storage_backend"):
        Lake.create(SyncConfig(lake_root=cfg.lake_root,
                               storage_backend="posix",
                               num_partitions=cfg.num_partitions))
    # and the reverse: a posix lake refuses an objstore reopen
    pcfg = SyncConfig(lake_root=os.path.join(str(tmp_path), "plake"))
    Lake.create(pcfg)
    assert sniff_backend(pcfg.lake_root) == "posix"
    with pytest.raises(ValueError, match="storage_backend"):
        Lake.create(SyncConfig(lake_root=pcfg.lake_root,
                               storage_backend="objstore"))


def test_lease_blocks_live_holder_steals_dead(tmp_path):
    lake, cfg = _objstore_lake(tmp_path)
    with lake.job_lock():
        with pytest.raises(RuntimeError, match="lease"):
            with Lake(cfg.lake_root).job_lock():
                pass
    # released: a new job acquires freely
    with Lake(cfg.lake_root).job_lock():
        pass
    # SIGKILLed holder: lease doc points at a provably-dead pid -> stolen
    child = os.fork()
    if child == 0:
        os._exit(0)
    os.waitpid(child, 0)
    s = make_storage(cfg.lake_root)
    s.doc_write_json("LEASE", {"pid": child, "token": "deadbeef"})
    with Lake(cfg.lake_root).job_lock():
        pass  # stale lease stolen, not deadlocked


def test_torn_staging_put_invisible_and_swept(tmp_path):
    lake, cfg = _objstore_lake(tmp_path)
    lake.commit_delta(1, 0, _delta([1, 5]), 2)
    # simulate a crash between stage and link: orphan staging bytes
    stage = os.path.join(cfg.lake_root, ObjectStoreStorage.MARKER)
    with open(os.path.join(stage, "put-deadbeef"), "wb") as f:
        f.write(b"torn")
    # invisible to every listing/read surface
    assert lake.partitions() == [1]
    assert lake.read_partition(1).num_rows == 2
    assert lake.sweep_stale_tmp() >= 1
    assert not os.listdir(stage)


def test_idempotent_object_reput(tmp_path):
    lake, _cfg = _objstore_lake(tmp_path)
    t = _delta([2, 6])
    lake.storage.obj_put_table("data/part=00002/delta-e0000000.parquet", t)
    # crash-retry re-put of the same deterministic key: success, not error
    lake.storage.obj_put_table("data/part=00002/delta-e0000000.parquet", t)
    got = lake.storage.obj_read_table(
        "data/part=00002/delta-e0000000.parquet"
    )
    assert got.num_rows == 2


def test_time_travel_and_zone_maps_on_objstore(tmp_path):
    lake, _cfg = _objstore_lake(tmp_path, num_partitions=1)
    lake.commit_delta(0, 0, _delta([0, 1, 2]), 3)
    lake.commit_delta(0, 1, _delta([1], log_pos0=50), 1)
    old = lake.read_partition(0, as_of_epoch=0)
    assert {r["doc_id"]: r["log_pos"] for r in old.to_pylist()}[1] == 1
    new = lake.read_partition(0)
    assert {r["doc_id"]: r["log_pos"] for r in new.to_pylist()}[1] == 50
    # zone-map range read
    rng = lake.read_partition(0, key_range=(2, 2))
    assert rng.num_rows == 1 and rng.column("doc_id")[0].as_py() == 2
    # compaction horizon still enforced
    lake.compact_partition(0)
    with pytest.raises(ValueError, match="compacted"):
        lake.read_partition(0, as_of_epoch=0)


# --- end-to-end replay parity --------------------------------------------------


@pytest.mark.usefixtures("ray_session")
def test_objstore_replay_matches_posix_and_oracle(tmp_path):
    """Same stream through both backends: both equal the sequential
    oracle AND each other, including the distributed read path and a
    duplicate re-delivery no-op on the objstore lake."""
    spec = StreamSpec(n_events=2500, n_docs=180, n_epochs=3, seed=31,
                      evolve_from_epoch=2)
    base = gen_base_table(180, seed=31)
    epochs = gen_change_stream(spec)
    ev_root = os.path.join(str(tmp_path), "events")
    write_event_log(ev_root, epochs)
    want = replay_oracle(base, epochs)

    results = {}
    for backend in ("posix", "objstore"):
        cfg = SyncConfig(
            lake_root=os.path.join(str(tmp_path), f"lake-{backend}"),
            num_partitions=8,
            storage_backend=backend,
        )
        job = ReplayJob(cfg)
        job.bootstrap(base)
        s = job.replay(ev_root)
        assert s["epochs_run"] == 3
        results[backend] = job
        assert_tables_equal(job.lake.read_all(), want)

    # backends agree bit-for-bit
    assert_tables_equal(
        results["objstore"].lake.read_all(), results["posix"].lake.read_all()
    )
    # distributed read over the objstore lake
    ds = read_lake(results["objstore"].cfg.lake_root)
    got = pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow")),
        promote_options="permissive",
    )
    assert_tables_equal(got, want)
    # duplicate delivery: epoch markers no-op the whole rerun
    s2 = results["objstore"].replay(ev_root)
    assert s2["epochs_run"] == 0
    assert_tables_equal(results["objstore"].lake.read_all(), want)
