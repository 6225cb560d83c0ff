"""The benchmark's output check: it agrees with the package's sequential
oracle, and it fails when the lake loses a fragment or a row is altered.
Ray-free: the lake is built by composing the engine's stage functions."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from data_sync_ray import (
    StreamSpec,
    SyncConfig,
    gen_base_table,
    gen_change_stream,
    replay_oracle,
)
from data_sync_ray.state.lake import Lake

import ledger
from oracle import Oracle, canonical, compare_lookup, compare_state, event_log
from tracer import Tracer


def small_inputs(seed=5):
    spec = StreamSpec(
        n_events=3_000, n_docs=400, n_epochs=3, seed=seed, hot_frac=0.01,
        evolve_from_epoch=2, min_tok=2, max_tok=12,
    )
    return gen_base_table(400, seed=seed), gen_change_stream(spec)


@pytest.fixture
def lake_and_oracle(tmp_path):
    base, epochs = small_inputs()
    cfg = SyncConfig(lake_root=str(tmp_path / "lake"))
    lake = Lake.create(cfg)
    ledger.compose_round(Tracer(), lake, cfg, list(enumerate(epochs)), bootstrap=base)
    return lake, Oracle(base, event_log(epochs)), base, epochs


def test_oracle_matches_replay_oracle():
    base, epochs = small_inputs()
    want = canonical(replay_oracle(base, epochs))
    got = Oracle(base, event_log(epochs)).state()
    assert want.num_rows > 0
    assert compare_state(got, want) is None


def test_oracle_prefix_matches_replay_oracle():
    base, epochs = small_inputs(seed=6)
    o = Oracle(base, event_log(epochs))
    assert compare_state(o.state(0), replay_oracle(base, epochs[:1])) is None


def test_check_passes_on_engine_lake(lake_and_oracle):
    lake, oracle, _, _ = lake_and_oracle
    assert compare_state(lake.read_all(), oracle.state()) is None


def test_check_fails_on_deleted_fragment(lake_and_oracle):
    lake, oracle, _, _ = lake_and_oracle
    p = next(p for p in lake.partitions() if lake.read_checkpoint(p)["files"])
    rel = lake.read_checkpoint(p)["files"][0]
    os.remove(os.path.join(lake.root, "data", rel))
    err = compare_state(lake.read_all(), oracle.state())
    assert err is not None and "row count" in err


def test_check_fails_on_altered_row(lake_and_oracle):
    lake, oracle, _, _ = lake_and_oracle
    p = next(p for p in lake.partitions() if lake.read_checkpoint(p)["files"])
    path = os.path.join(lake.root, "data", lake.read_checkpoint(p)["files"][0])
    t = pq.read_table(path)
    live = [i for i, d in enumerate(t.column("_deleted").to_pylist()) if not d]
    i = live[0]
    n_tok = t.column("n_tok").to_pylist()
    n_tok[i] += 1
    t = t.set_column(t.column_names.index("n_tok"), "n_tok", pa.array(n_tok, pa.int32()))
    pq.write_table(t, path)
    err = compare_state(lake.read_all(), oracle.state())
    assert err is not None and "n_tok" in err
    key = t.column("doc_id")[i].as_py()
    hist = oracle.histories([key])
    assert compare_lookup(lake.lookup(key), hist.expected(key, len(lake_and_oracle[3]) - 1))


def test_lookup_expectations_follow_epochs(lake_and_oracle):
    lake, oracle, base, epochs = lake_and_oracle
    keys = base.column("doc_id").to_pylist()[:30] + ["doc99999999"]
    hist = oracle.histories(keys)
    last = len(epochs) - 1
    for k in keys:
        assert compare_lookup(lake.lookup(k), hist.expected(k, last)) is None
    assert hist.expected("doc99999999", last) is None
    # before any stream epoch the bootstrap row is the winner
    assert hist.expected(keys[0], -1)["log_pos"] == 0
