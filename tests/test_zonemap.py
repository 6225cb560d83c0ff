"""Zone maps: per-fragment key min/max recorded at commit, fragment
skipping on range reads, point lookup routing, and compaction stats
rewrite. Correctness bar: a pruned read must equal the unpruned read
filtered — with updates, deletes, and stats-less legacy fragments in
the mix."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from data_sync_ray import Lake, SyncConfig
from data_sync_ray.stages.transform import assign_partition

P = 4


def _mk_lake(tmp_path) -> Lake:
    cfg = SyncConfig(lake_root=str(tmp_path / "lake"), num_partitions=P)
    return Lake.create(cfg)


def _delta(ids, log_pos, deleted=None):
    n = len(ids)
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "log_pos": pa.array(log_pos, pa.int64()),
            "_deleted": pa.array(deleted or [False] * n),
            "source": pa.array([f"s{i % 3}" for i in range(n)]),
        }
    )
    return assign_partition(t, P)


def _commit(lake: Lake, epoch: int, t: pa.Table):
    """Route rows to their owning partitions and commit each group —
    the same single-owner-per-partition discipline the engine uses."""
    part = t.column("partition").to_numpy()
    for p in np.unique(part):
        sub = t.filter(pa.compute.equal(t.column("partition"), int(p)))
        lake.commit_delta(int(p), epoch, sub, sub.num_rows)


def _full_filtered(lake: Lake, partition: int, lo, hi) -> pd.DataFrame:
    t = lake.read_partition(partition)
    if t is None:
        return pd.DataFrame()
    df = t.to_pandas()
    return (
        df[(df["doc_id"] >= lo) & (df["doc_id"] <= hi)]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


class TestZoneMaps:
    def test_stats_recorded_at_commit(self, tmp_path):
        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(100)), list(range(100))))
        for p in lake.partitions():
            ck = lake.read_checkpoint(p)
            for rel in ck["files"]:
                st = ck["file_stats"][rel]
                assert 0 <= st["key_min"] <= st["key_max"] <= 99
                assert st["rows"] >= 1

    def test_files_for_range_pure(self):
        ckpt = {
            "files": ["a", "b", "c", "legacy"],
            "file_stats": {
                "a": {"rows": 5, "key_min": 0, "key_max": 99},
                "b": {"rows": 5, "key_min": 100, "key_max": 199},
                "c": {"rows": 5, "key_min": 150, "key_max": 300},
            },  # "legacy" has no stats -> always read
        }
        f = Lake.files_for_range
        assert f(ckpt, (0, 50)) == ["a", "legacy"]
        assert f(ckpt, (120, 160)) == ["b", "c", "legacy"]
        assert f(ckpt, (301, None)) == ["legacy"]
        assert f(ckpt, (None, None)) == ["a", "b", "c", "legacy"]
        assert f(ckpt, (200, 200)) == ["c", "legacy"]

    def test_range_read_equals_filtered_full(self, tmp_path):
        lake = _mk_lake(tmp_path)
        # epoch 0: keys 0-199; epoch 1: updates to 50-99 + inserts
        # 200-299; epoch 2: deletes of 60-69 and 250-259 (tombstones)
        _commit(lake, 0, _delta(list(range(200)), list(range(200))))
        ids1 = list(range(50, 100)) + list(range(200, 300))
        _commit(lake, 1, _delta(ids1, [1000 + i for i in range(len(ids1))]))
        ids2 = list(range(60, 70)) + list(range(250, 260))
        _commit(
            lake, 2,
            _delta(ids2, [2000 + i for i in range(len(ids2))],
                   deleted=[True] * len(ids2)),
        )
        for lo, hi in [(0, 49), (40, 80), (60, 69), (190, 260), (500, 900)]:
            for p in lake.partitions():
                got = lake.read_partition(p, key_range=(lo, hi))
                want = _full_filtered(lake, p, lo, hi)
                if got is None or not got.num_rows:
                    assert len(want) == 0
                    continue
                gdf = got.to_pandas().sort_values("doc_id").reset_index(drop=True)
                pd.testing.assert_frame_equal(
                    gdf[sorted(gdf.columns)], want[sorted(want.columns)]
                )

    def test_range_read_actually_skips(self, tmp_path):
        lake = _mk_lake(tmp_path)
        # two disjoint key bands -> a band query must not touch the
        # other band's fragments
        _commit(lake, 0, _delta(list(range(0, 100)), list(range(100))))
        _commit(lake, 1, _delta(list(range(1000, 1100)),
                                list(range(100, 200))))
        for p in lake.partitions():
            ck = lake.read_checkpoint(p)
            picked = Lake.files_for_range(ck, (0, 99))
            assert all("e0000001" not in rel for rel in picked)
            assert any("bootstrap" in rel or "e0000000" in rel
                       for rel in picked) or not ck["files"]

    def test_lookup_latest_deleted_and_absent(self, tmp_path):
        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(50)), list(range(50))))
        _commit(lake, 1, _delta([7], [999]))           # update key 7
        _commit(lake, 2, _delta([9], [1000], [True]))  # delete key 9
        hit = lake.lookup(7)
        assert hit.num_rows == 1
        assert hit.column("log_pos")[0].as_py() == 999
        assert lake.lookup(9).num_rows == 0    # tombstoned
        assert lake.lookup(4321).num_rows == 0  # never existed
        # a type-mismatched probe casts to the key column type for BOTH
        # the hash route and the zone-map range compare — same hit as the
        # int probe, never a TypeError inside files_for_range
        hit2 = lake.lookup("7")
        assert hit2.num_rows == 1
        assert hit2.column("log_pos")[0].as_py() == 999
        assert lake.lookup(7.0).num_rows == 1

    def test_compaction_rewrites_stats(self, tmp_path):
        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(100)), list(range(100))))
        _commit(lake, 1, _delta([5, 6], [500, 501], [True, True]))
        for p in lake.partitions():
            lake.compact_partition(p)
            ck = lake.read_checkpoint(p)
            assert set(ck["file_stats"]) == set(ck["files"])
        # range reads stay exact over the compacted base
        for p in lake.partitions():
            got = lake.read_partition(p, key_range=(0, 10))
            want = _full_filtered(lake, p, 0, 10)
            n = 0 if got is None else got.num_rows
            assert n == len(want)
        assert lake.lookup(5).num_rows == 0  # tombstone survived compaction

    def test_legacy_fragments_without_stats_still_read(self, tmp_path):
        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(40)), list(range(40))))
        # simulate a pre-zone-map lake: strip the recorded stats
        for p in lake.partitions():
            ck = lake.read_checkpoint(p)
            ck.pop("file_stats", None)
            lake.write_checkpoint(ck)
        total = 0
        for p in lake.partitions():
            t = lake.read_partition(p, key_range=(0, 39))
            total += 0 if t is None else t.num_rows
        assert total == 40


@pytest.mark.usefixtures("ray_session")
class TestDistributedRangeRead:
    def test_read_lake_key_range(self, tmp_path):
        from data_sync_ray.pipelines.replay import read_lake

        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(300)), list(range(300))))
        _commit(lake, 1, _delta([10, 20, 290], [900, 901, 902],
                                [False, True, False]))
        got = (
            read_lake(str(tmp_path / "lake"), key_range=(5, 25))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        full = (
            read_lake(str(tmp_path / "lake")).to_pandas()
        )
        want = (
            full[(full["doc_id"] >= 5) & (full["doc_id"] <= 25)]
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)]
        )
        assert 20 not in set(got["doc_id"])  # the delete is honored


@pytest.mark.usefixtures("ray_session")
class TestTimeTravel:
    def test_as_of_epoch_matches_oracle_prefix(self, tmp_path):
        """read_lake(as_of_epoch=E) == the sequential oracle replaying
        only epochs <= E — for every E, on a real replayed lake with
        updates, deletes, and schema evolution."""
        from data_sync_ray import (
            StreamSpec, SyncConfig, gen_base_table, gen_change_stream,
            replay_oracle, write_event_log,
        )
        from data_sync_ray.pipelines.replay import ReplayJob, read_lake
        from tests.test_replay_e2e import assert_tables_equal

        spec = StreamSpec(n_events=2000, n_docs=150, n_epochs=3, seed=31,
                          evolve_from_epoch=2)
        base = gen_base_table(150, seed=31)
        epochs = gen_change_stream(spec)
        ev_root = os.path.join(str(tmp_path), "events")
        write_event_log(ev_root, epochs)
        cfg = SyncConfig(lake_root=os.path.join(str(tmp_path), "lake"),
                         num_partitions=8)
        job = ReplayJob(cfg)
        job.replay(ev_root, bootstrap=base)
        for e in range(-1, 3):
            got = pa.concat_tables(
                [
                    b
                    for b in read_lake(
                        cfg.lake_root, as_of_epoch=e
                    ).iter_batches(batch_format="pyarrow")
                ],
                promote_options="permissive",
            )
            want = replay_oracle(base, epochs[: e + 1])
            # read_lake pads to the CURRENT union schema: pre-evolution
            # states carry an all-null `quality` the prefix oracle lacks
            if ("quality" in got.column_names
                    and "quality" not in want.column_names):
                q = got.column("quality")
                assert q.null_count == got.num_rows
                got = got.drop_columns(["quality"])
            assert_tables_equal(got, want)

    def test_as_of_below_compaction_horizon_raises(self, tmp_path):
        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(30)), list(range(30))))
        _commit(lake, 1, _delta([3], [100]))
        p0 = lake.partitions()[0]
        # before compaction: epoch-0 state readable
        t = lake.read_partition(p0, as_of_epoch=0)
        assert t is None or (100 not in t.column("log_pos").to_pylist())
        lake.compact_partition(p0)
        ck = lake.read_checkpoint(p0)
        if ck.get("compacted_through_epoch") is not None:
            with pytest.raises(ValueError, match="compacted"):
                lake.read_partition(p0, as_of_epoch=0)
            # at/after the horizon still fine
            assert lake.read_partition(
                p0, as_of_epoch=ck["compacted_through_epoch"]
            ) is not None

    def test_as_of_composes_with_key_range(self, tmp_path):
        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(100)), list(range(100))))
        _commit(lake, 1, _delta([5, 50], [900, 901], [True, False]))
        for p in lake.partitions():
            t = lake.read_partition(p, key_range=(0, 60), as_of_epoch=0)
            if t is None:
                continue
            ids = t.column("doc_id").to_pylist()
            assert all(0 <= i <= 60 for i in ids)
            # the epoch-1 delete of key 5 is NOT visible at epoch 0
            lp = dict(zip(ids, t.column("log_pos").to_pylist()))
            if 5 in lp:
                assert lp[5] == 5


class TestRowGroupPruning:
    def test_row_groups_selected_and_exact(self, tmp_path):
        import pyarrow.parquet as pq

        from data_sync_ray.state.lake import _read_fragment, _row_groups_for_range

        cfg = SyncConfig(lake_root=str(tmp_path / "lake"),
                         num_partitions=1, row_group_rows=50)
        lake = Lake.create(cfg)
        n = 1000
        t = pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "log_pos": pa.array(np.arange(n, dtype=np.int64)),
                "_deleted": pa.array([False] * n),
            }
        )
        lake.commit_delta(0, 0, t, n)
        path = os.path.join(lake.part_dir(0),
                            os.listdir(lake.part_dir(0))[0])
        md = pq.ParquetFile(path).metadata
        assert md.num_row_groups == 20  # 1000 rows / 50
        picked = _row_groups_for_range(md, "doc_id", (120, 180))
        assert picked == [2, 3]  # rows 100-149, 150-199
        rel = os.path.relpath(path, str(tmp_path / "lake"))
        got = _read_fragment(lake.storage, rel, None, "doc_id", (120, 180))
        ids = got.column("doc_id").to_pylist()
        assert min(ids) >= 100 and max(ids) < 200  # only 2 groups decoded
        # disjoint range -> zero groups, empty table w/ schema
        empty = _read_fragment(
            lake.storage, rel, ["doc_id"], "doc_id", (5000, 6000)
        )
        assert empty.num_rows == 0 and empty.column_names == ["doc_id"]
        # absent key column -> all groups read (never skip blindly)
        assert _row_groups_for_range(md, "nope", (0, 1)) is None
        # end-to-end: pruned partition read equals filtered full read
        full = lake.read_partition(0).to_pandas()
        want = full[(full.doc_id >= 120) & (full.doc_id <= 180)]
        rng = lake.read_partition(0, key_range=(120, 180)).to_pandas()
        assert sorted(rng.doc_id) == sorted(want.doc_id)

    def test_lookup_decodes_one_group(self, tmp_path):
        cfg = SyncConfig(lake_root=str(tmp_path / "lake"),
                         num_partitions=2, row_group_rows=25)
        lake = Lake.create(cfg)
        t = _delta(list(range(500)), list(range(500)))
        # reroute with P=2 (module-level _delta uses P=4)
        from data_sync_ray.stages.transform import assign_partition
        t = assign_partition(t.drop_columns(["partition"]), 2)
        part = t.column("partition").to_numpy()
        for p in np.unique(part):
            sub = t.filter(pa.compute.equal(t.column("partition"), int(p)))
            sub = sub.sort_by("doc_id")
            lake.commit_delta(int(p), 0, sub, sub.num_rows)
        hit = lake.lookup(123)
        assert hit.num_rows == 1
        assert hit.column("log_pos")[0].as_py() == 123


@pytest.mark.usefixtures("ray_session")
class TestManifestSnapshot:
    def test_pinned_manifest_read_is_snapshot_consistent(self, tmp_path):
        from data_sync_ray.pipelines.replay import read_lake

        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(100)), list(range(100))))
        v1 = lake.publish_manifest("after epoch 0")
        # writer keeps committing AFTER the manifest was published
        _commit(lake, 1, _delta([1, 2, 3], [500, 501, 502],
                                [False, True, False]))
        pinned = (
            read_lake(str(tmp_path / "lake"), manifest_version=v1)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        live = read_lake(str(tmp_path / "lake")).to_pandas()
        # the pinned view predates epoch 1 entirely
        assert len(pinned) == 100
        assert pinned.loc[pinned.doc_id == 1, "log_pos"].iloc[0] == 1
        assert 2 in set(pinned.doc_id)          # not yet deleted in v1
        assert 2 not in set(live.doc_id)        # deleted in live state
        assert live.loc[live.doc_id == 1, "log_pos"].iloc[0] == 500

    def test_pinned_manifest_raises_after_compaction(self, tmp_path):
        lake = _mk_lake(tmp_path)
        _commit(lake, 0, _delta(list(range(60)), list(range(60))))
        v1 = lake.publish_manifest()
        _commit(lake, 1, _delta(list(range(10)), [900 + i for i in range(10)]))
        for p in lake.partitions():
            lake.compact_partition(p)
        man = lake.read_manifest(v1)["partitions"]
        # pick a partition whose compaction actually removed old files
        # (single-fragment partitions are skipped by compact_partition)
        compacted = [
            p for p in lake.partitions()
            if lake.read_checkpoint(p).get("compaction_gen", 0) > 0
        ]
        assert compacted
        p0 = str(compacted[0])
        with pytest.raises(FileNotFoundError, match="compacted"):
            lake.read_partition(
                int(p0), files_override=man[p0]["files"]
            )

    def test_read_manifest_missing_version(self, tmp_path):
        lake = _mk_lake(tmp_path)
        with pytest.raises(FileNotFoundError):
            lake.read_manifest()
