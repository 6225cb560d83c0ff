"""Operator conformance queries over the driver's testdata tables.

Each entry pairs a Ray-Data pipeline (callable taking sf_dir) with an
equivalent ANSI-SQL oracle run by DuckDB on the same parquet files.
Column names (incl. aggregates) match EXACTLY between both sides; float
aggregates are rounded identically on both sides so order-of-addition
noise cannot flip the value hash.

Non-SQL-expressible semantics (SimHash, LSH top-k, BPE, the full CDC
replay) use pinned per-scale fixtures computed by independent reference
implementations (tools/gen_fixtures.py), tag-gated so the static SQL
self-selects the right fixture — every registered query carries an
oracle; none fall back to rows-only checks.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import re
import shutil
import tempfile
import threading

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Sum

from ..config import SyncConfig
from ..functions.agg import tree_sum_by_key
from ..stages.groupmap import per_group
from ..stages.merge import lww_winners
from ..stages.transform import drop_filtered_columns, filter_tables


def _t(sf_dir: str, name: str, columns=None, num_blocks=None) -> rd.Dataset:
    """num_blocks: split the read for CPU-heavy per-row downstreams — a
    small table arrives as ONE block, which would serialize the whole
    pipeline through one task."""
    return rd.read_parquet(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns,
        override_num_blocks=num_blocks,
    )


def _parts_for(
    sf_dir: str, name: str, rows_per_part: int = 500_000,
    lo: int | None = None, hi: int = 256,
) -> int:
    """Exchange partition count derived from parquet METADATA row count
    (no data read) — replaces the bench-tuned constants round 2 pinned.
    rows_per_part caps the group frame a task must hold (the memory
    bound that governs at scale); lo floors parallelism at the cluster
    CPU count so small inputs still spread (default when None); hi
    bounds tiny-group scheduling overhead."""
    if lo is None:
        lo = max(8, int(ray.cluster_resources().get("CPU", 8)))
    meta_rows = pq.ParquetFile(
        os.path.join(sf_dir, f"{name}.parquet")
    ).metadata.num_rows
    return int(max(lo, min(hi, meta_rows // rows_per_part + 1)))


def _round(df: pd.DataFrame, cols: dict[str, int]) -> pd.DataFrame:
    for c, n in cols.items():
        df[c] = df[c].astype("float64").round(n)
    return df


@ray.remote
def _mix_block(fn, block) -> pd.DataFrame:
    """Apply a pandas kernel to one cached block (block-ref task — the
    iterative-pass pattern kmeans_embeddings documents: per-pass plain
    tasks beat one streaming-executor startup per pass)."""
    if not isinstance(block, pd.DataFrame):
        block = block.to_pandas()
    if len(block) == 0:  # empty blocks may arrive COLUMN-LESS
        return pd.DataFrame()
    return fn(block)


# --- TPC-H-flavored relational operators -----------------------------------


def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style grouped aggregate with a computed column.

    Only 6 (returnflag, linestatus) groups exist, so the all-to-all
    sort-shuffle behind Ray's groupby.aggregate is pure overhead (~1s
    barrier per execution, BASELINE.md); instead each batch emits one
    combined row per key and tree_sum_by_key folds the partials with no
    exchange. Summands pre-round to integer cents (identical
    floor(x*100+0.5) on the SQL side) so the hashed result is
    order-of-addition-proof and the fold order cannot matter."""
    ds = _t(sf_dir, "lineitem",
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
             "l_discount"])

    def partial(t: pa.Table) -> pd.DataFrame:
        def c(name: str) -> np.ndarray:
            arr = t.column(name).combine_chunks().to_numpy()
            return np.floor(arr * 100.0 + 0.5).astype(np.int64)

        price = t.column("l_extendedprice").combine_chunks().to_numpy()
        disc = t.column("l_discount").combine_chunks().to_numpy()
        df = pd.DataFrame(
            {
                "l_returnflag": t.column("l_returnflag").to_pandas(),
                "l_linestatus": t.column("l_linestatus").to_pandas(),
                "sum_qty": c("l_quantity"),
                "sum_base_price": c("l_extendedprice"),
                "sum_disc_price": np.floor(
                    price * (1.0 - disc) * 100.0 + 0.5
                ).astype(np.int64),
                "count_order": np.ones(len(t), dtype=np.int64),
            }
        )
        return df.groupby(
            ["l_returnflag", "l_linestatus"], as_index=False
        ).sum()

    out = tree_sum_by_key(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
    )
    for col in ("sum_qty", "sum_base_price", "sum_disc_price"):
        out[col] = out[col] / 100.0
    return out


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) / 100.0
         AS sum_qty,
       sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) / 100.0
         AS sum_base_price,
       sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                AS BIGINT)) / 100.0                       AS sum_disc_price,
       count(*)                                           AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def top10_orders(sf_dir: str) -> pd.DataFrame:
    out = (
        _t(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .sort("o_totalprice", descending=True)
        .limit(10)
        .to_pandas()
    )
    return _round(out, {"o_totalprice": 2})


TOP10_SQL = """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders ORDER BY orders.o_totalprice DESC LIMIT 10
"""


def distinct_sources(sf_dir: str) -> pd.DataFrame:
    vals = _t(sf_dir, "documents", ["source"]).unique("source")
    return pd.DataFrame({"source": sorted(vals)})


DISTINCT_SQL = "SELECT DISTINCT source FROM documents"


def nation_region_join(sf_dir: str) -> pd.DataFrame:
    """Broadcast hash join: tiny dimension side shipped once via ray.put,
    looked up per batch — no shuffle (ref J1's broadcast-small-side)."""
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    lut_ref = ray.put(
        dict(zip(region.column("r_regionkey").to_pylist(),
                 region.column("r_name").to_pylist()))
    )

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(lut_ref)
        batch["r_name"] = batch["n_regionkey"].map(lut)
        return batch[["n_nationkey", "n_name", "r_name"]]

    return _t(sf_dir, "nation").map_batches(
        join, batch_format="pandas"
    ).to_pandas()


NATION_REGION_SQL = """
SELECT n_nationkey, n_name, r_name
FROM nation JOIN region ON n_regionkey = r_regionkey
"""


def mktsegment_order_stats(sf_dir: str) -> pd.DataFrame:
    """Fact-dim join as broadcast lookup + grouped aggregate."""
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    lut_ref = ray.put(
        dict(zip(cust.column("c_custkey").to_pylist(),
                 cust.column("c_mktsegment").to_pylist()))
    )

    def seg(batch: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(lut_ref)
        # integer cents: order-insensitive sum (matches the SQL side)
        part = pd.DataFrame(
            {
                "c_mktsegment": batch["o_custkey"].map(lut),
                "n_orders": np.ones(len(batch), dtype=np.int64),
                "sum_totalprice": np.floor(
                    batch["o_totalprice"].to_numpy() * 100.0 + 0.5
                ).astype(np.int64),
            }
        )
        return part.groupby("c_mktsegment", as_index=False).sum()

    out = tree_sum_by_key(
        _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(seg, batch_format="pandas"),
        ["c_mktsegment"],
    )
    out["sum_totalprice"] = out["sum_totalprice"] / 100.0
    return out


MKTSEG_SQL = """
SELECT c_mktsegment, count(*) AS n_orders,
       sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0
         AS sum_totalprice
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def revenue_by_month(sf_dir: str) -> pd.DataFrame:
    def month(batch: pd.DataFrame) -> pd.DataFrame:
        # integer cents: order-insensitive sum (matches the SQL side)
        part = pd.DataFrame(
            {
                # datetime64[M] renders as 'YYYY-MM' — ~10x faster than
                # per-row strftime
                "month": batch["o_orderdate"]
                .to_numpy()
                .astype("datetime64[M]")
                .astype(str),
                "n_orders": np.ones(len(batch), dtype=np.int64),
                "revenue": np.floor(
                    batch["o_totalprice"].to_numpy() * 100.0 + 0.5
                ).astype(np.int64),
            }
        )
        return part.groupby("month", as_index=False).sum()

    out = tree_sum_by_key(
        _t(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(month, batch_format="pandas"),
        ["month"],
    )
    out["revenue"] = out["revenue"] / 100.0
    return out


REVENUE_MONTH_SQL = """
SELECT strftime(o_orderdate, '%Y-%m') AS month, count(*) AS n_orders,
       sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0
         AS revenue
FROM orders GROUP BY 1
"""


def revenue_rollup_orders(sf_dir: str) -> pd.DataFrame:
    """ROLLUP-shape multi-level aggregate: order count + revenue cents
    at (year, month), (year, ALL), and (ALL, ALL) levels in ONE pass —
    the month-level histogram is bounded (months x 1), folds through
    tree_sum_by_key with no exchange, and the coarser levels are exact
    integer re-sums of it on the driver (never a second scan). The
    oracle states the same three levels via GROUPING SETS with 'ALL'
    sentinels (string sentinels, not NULLs, so both engines hash the
    rollup rows identically)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["o_orderdate"].to_numpy().astype("datetime64[M]")
        out = pd.DataFrame({
            "year": m.astype("datetime64[Y]").astype(str),
            "month": m.astype(str),
            "n_orders": np.ones(len(batch), dtype=np.int64),
            "revenue_cents": np.floor(
                batch["o_totalprice"].to_numpy() * 100.0 + 0.5
            ).astype(np.int64)})
        return out.groupby(["year", "month"], as_index=False).sum()

    months = tree_sum_by_key(
        _t(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pandas", batch_size=65536),
        ["year", "month"])
    if months.empty or "year" not in months.columns:
        return pd.DataFrame({
            "year": pd.Series([], dtype="object"),
            "month": pd.Series([], dtype="object"),
            "n_orders": pd.Series([], dtype="int64"),
            "revenue_cents": pd.Series([], dtype="int64")})
    years = months.groupby("year", as_index=False)[
        ["n_orders", "revenue_cents"]].sum()
    years["month"] = "ALL"
    total = pd.DataFrame({
        "year": ["ALL"], "month": ["ALL"],
        "n_orders": [int(months["n_orders"].sum())],
        "revenue_cents": [int(months["revenue_cents"].sum())]})
    out = pd.concat(
        [months, years[months.columns], total[months.columns]],
        ignore_index=True)
    for c in ("n_orders", "revenue_cents"):
        out[c] = out[c].astype("int64")
    return (out.sort_values(["year", "month"])
            .reset_index(drop=True))


REVENUE_ROLLUP_SQL = """
WITH m AS (
  SELECT strftime(o_orderdate, '%Y') AS y,
         strftime(o_orderdate, '%Y-%m') AS mo,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_c
  FROM orders
)
SELECT coalesce(y, 'ALL') AS year, coalesce(mo, 'ALL') AS month,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(price_c) AS BIGINT) AS revenue_cents
FROM m
GROUP BY GROUPING SETS ((y, mo), (y), ())
ORDER BY year, month
"""


def orderkeys_union(sf_dir: str) -> pd.DataFrame:
    """Set op: distinct union of keys from two tables."""
    a = _t(sf_dir, "orders", ["o_orderkey"]).map_batches(
        lambda t: t.rename_columns(["orderkey"]), batch_format="pyarrow"
    )
    b = _t(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
        lambda t: t.rename_columns(["orderkey"]), batch_format="pyarrow"
    )
    vals = a.union(b).unique("orderkey")
    return pd.DataFrame({"orderkey": sorted(vals)})


UNION_SQL = """
SELECT o_orderkey AS orderkey FROM orders
UNION
SELECT l_orderkey AS orderkey FROM lineitem
"""


def systematic_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic systematic sample (key mod 97) — the reproducible
    stand-in for random_sample so an SQL oracle exists."""
    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])

    def pick(t: pa.Table) -> pa.Table:
        keys = t.column("l_orderkey").to_numpy()
        return t.filter(pa.array(keys % 97 == 0))

    return ds.map_batches(pick, batch_format="pyarrow").to_pandas()


SAMPLE_SQL = """
SELECT l_orderkey, l_linenumber, l_quantity
FROM lineitem WHERE l_orderkey % 97 = 0
"""


def events_sorted_head(sf_dir: str) -> pd.DataFrame:
    out = (
        _t(sf_dir, "events", ["event_id", "value"])
        .sort("value", descending=True)
        .limit(20)
        .to_pandas()
    )
    return _round(out, {"value": 4})


SORT_HEAD_SQL = """
SELECT event_id, round(value, 4) AS value
FROM events ORDER BY events.value DESC LIMIT 20
"""


def orders_customer_hash_join(sf_dir: str) -> pd.DataFrame:
    """Both-sides-large hash join via Dataset.join (hash-partitioned on the
    key) followed by a grouped aggregate — the shuffle-join path, in
    contrast to the broadcast joins above."""
    def cents(t: pa.Table) -> pa.Table:
        # integer cents BEFORE the shuffle: the grouped sum is then
        # order-of-addition-proof regardless of join partitioning
        price_c = np.floor(
            t.column("o_totalprice").combine_chunks().to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {"o_custkey": t.column("o_custkey"), "price_c": pa.array(price_c)}
        )

    orders = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        cents, batch_format="pyarrow"
    )
    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    # Ray's hash join spins one aggregator per partition and its cost is
    # dominated by that fixed overhead at bench scale (measured 2.9s at
    # 4 partitions vs 9.6s at 32 on the same input), so the partition
    # count grows with METADATA rows from a floor of 4 rather than
    # pinning either extreme: ~2M join rows per partition keeps the
    # per-partition build within a task heap at scale
    joined = orders.join(
        cust, join_type="inner",
        num_partitions=_parts_for(
            sf_dir, "orders", rows_per_part=2_000_000, lo=4, hi=64
        ),
        on=("o_custkey",), right_on=("c_custkey",),
    )
    out = (
        joined.groupby("c_nationkey")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum("price_c", alias_name="sum_totalprice"),
        )
        .to_pandas()
    )
    out["sum_totalprice"] = out["sum_totalprice"] / 100.0
    # Ray's hash-join/groupby promotes the int32 parquet key to int64;
    # restore the source dtype so the frame matches the oracle exactly
    out["c_nationkey"] = out["c_nationkey"].astype("int32")
    return out


HASH_JOIN_SQL = """
SELECT c_nationkey, count(*) AS n_orders,
       sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0
         AS sum_totalprice
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_nationkey
"""


def _bloom_mix(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) splitmix-style 64-bit hashes for double-hashing bloom
    positions pos_i = (h1 + i*h2) & (nbits-1) — fully vectorized, no
    per-key Python. Internal prefilter only (exactness comes from the
    downstream co-partitioned membership check), so unlike sketch.py's
    md5 blooms it needs no cross-engine reproducibility."""
    k = k.astype(np.uint64)
    h = k * np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(29)
    return h, (h >> np.uint64(32)) | np.uint64(1)


def _bloom_build(keys: np.ndarray, nbits: int, d: int = 3) -> np.ndarray:
    bits = np.zeros(nbits, dtype=bool)
    h1, h2 = _bloom_mix(keys)
    m = np.uint64(nbits - 1)
    for i in range(d):
        bits[(h1 + np.uint64(i) * h2) & m] = True
    return np.packbits(bits)


def _bloom_probe(keys: np.ndarray, packed: np.ndarray, nbits: int,
                 d: int = 3) -> np.ndarray:
    """Membership mask, probing the PACKED bitmap directly (no unpack:
    at scale nbits is 10 bits/key and an unpacked copy per batch would
    be the allocation hot spot)."""
    h1, h2 = _bloom_mix(keys)
    m = np.uint64(nbits - 1)
    ok = np.ones(len(keys), dtype=bool)
    for i in range(d):
        pos = ((h1 + np.uint64(i) * h2) & m).astype(np.int64)
        ok &= (packed[pos >> 3] >> (7 - (pos & 7)) & 1).astype(bool)
    return ok


def _stop_in() -> str:
    """The one SQL source of truth for the STOPWORDS set — every oracle
    that restates the stopword rule interpolates this, so an edit to
    functions.text.STOPWORDS can never leave a stale hardcoded copy."""
    from ..functions.text import STOPWORDS

    return ", ".join(f"'{w}'" for w in sorted(STOPWORDS))


def _pack_bins(g: pd.DataFrame, budget: int) -> pd.DataFrame:
    """Concat-and-chunk bin assignment for ONE packing partition: sort by
    doc_id, exclusive-cumsum token counts, bin = cum_excl // budget —
    shared by pack_sequences_docs and corpus_pipeline_docs so the
    composed pipeline's packing stage cannot drift from the standalone
    query (both oracles restate this exact rule)."""
    g = g.sort_values("doc_id")
    ids = g["doc_id"].to_numpy(dtype=np.int64)
    n = g["n_words"].to_numpy(dtype=np.int64)
    cum_excl = np.concatenate(([0], np.cumsum(n)[:-1]))
    b = cum_excl // budget
    starts = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
    counts = np.diff(np.append(starts, len(b)))
    return pd.DataFrame({
        "part": np.full(starts.size, int(g["_part"].iloc[0]),
                        dtype=np.int64),
        "bin": b[starts],
        "n_docs": counts.astype(np.int64),
        "sum_tokens": np.add.reduceat(n, starts),
        "first_doc": ids[starts],
        "last_doc": ids[np.append(starts[1:] - 1, len(ids) - 1)]})


def _source_percentile_thresholds(scored) -> dict[str, int]:
    """Exact per-source 25th-percentile score thresholds from a scored
    Dataset with (source, score_c) columns: bounded per-batch histogram
    partials -> driver rank walk with k = (m * 25 + 99) // 100 — the one
    engine copy of the prune rule quality_prune_docs and
    corpus_pipeline_docs share (their oracles restate it identically).
    Returns {} when the scored set is empty."""
    partials = scored.map_batches(
        lambda b: b.groupby(["source", "score_c"], sort=False)
        .size().rename("n").reset_index(),
        batch_format="pandas",
    ).to_pandas()  # bounded histogram, never corpus rows
    if partials.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return {}
    merged = (partials.groupby(["source", "score_c"], sort=True)["n"]
              .sum().reset_index())
    thr: dict[str, int] = {}
    for src, g in merged.groupby("source"):
        m = int(g["n"].sum())
        k = (m * 25 + 99) // 100
        cum = g["n"].cumsum()
        thr[str(src)] = int(g.loc[cum >= k, "score_c"].iloc[0])
    return thr


def top_customer_revenue(
    sf_dir: str, strategy: str = "auto", broadcast_limit: int = 2_000_000
) -> pd.DataFrame:
    """Three-way join (lineitem ⋈ orders ⋈ customer) a la TPC-H Q3:
    top-10 BUILDING-segment customers by lineitem revenue. Shapes by
    side size: lineitem pre-aggregates per order INSIDE map_batches (the
    combiner — the biggest table never shuffles raw) and orders⋈partials
    is the one shuffle join on both paths. The segment membership side
    switches by customer METADATA row count: small → broadcast the exact
    key set; large → broadcast a constant-rate (10 bits/key) bloom
    PREFILTER and co-partition the BUILDING keys into the final custkey
    exchange for an exact membership check (bloom false positives drop
    there), so nothing broadcast grows past bits-per-key. Top-k reduces
    per-partition before a bounded driver merge. Revenue in integer
    cents (identical expression in the SQL oracle) so the hash is
    order-insensitive. Paths pytest-pinned equal."""
    import ray as _ray

    n_cust = pq.ParquetFile(
        os.path.join(sf_dir, "customer.parquet")
    ).metadata.num_rows
    if strategy == "auto":
        strategy = "broadcast" if n_cust <= broadcast_limit else "bloom"
    num_parts = _parts_for(sf_dir, "orders")

    building_ds = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: b.filter(
            pc.equal(b["c_mktsegment"], "BUILDING")
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )
    if strategy == "broadcast":
        # broadcast the key set as a plain int64 array: pc.is_in against
        # an Arrow value_set probes a hash table exactly like the old
        # Python set, without the per-key object boxing
        building = building_ds.to_pandas()["c_custkey"].to_numpy(np.int64)
        b_ref = _ray.put(building)
    else:
        # the bloom build AND route_members both consume this pruned
        # 1-column scan — materialize so the customer parquet is read
        # and segment-filtered once, not twice
        building_ds = building_ds.materialize()
        # ~10 bits/key, CAPPED at 2^27 (16 MB bitmap): each build batch
        # emits a full-bitmap partial, so an uncapped size would make the
        # OR-merge traffic quadratic-ish in corpus size. Past the cap the
        # prefilter saturates and passes more rows — selectivity degrades
        # GRACEFULLY while exactness is untouched (false positives die at
        # the co-partitioned membership check below).
        # max(n_cust, 1): log2(0) is -inf and int(ceil(-inf)) raises —
        # an explicit strategy="bloom" call on an empty customer table
        # must degrade to the floor-size bloom, not crash
        nbits = 1 << max(
            16, min(27, int(np.ceil(np.log2(max(n_cust, 1) * 10))))
        )
        parts = building_ds.map_batches(
            lambda b: pa.table({"bm": [_bloom_build(
                b["c_custkey"].to_numpy(zero_copy_only=False), nbits
            ).tobytes()]}),
            batch_format="pyarrow", batch_size=262144,
        ).take_all()  # nbits/8 bytes per build batch, OR-merged once
        packed = np.zeros(nbits // 8, dtype=np.uint8)
        for r in parts:
            packed |= np.frombuffer(r["bm"], dtype=np.uint8)
        b_ref = _ray.put(packed)

    def li_partial(batch: pa.Table) -> pa.Table:
        # Arrow-native combiner (same-boot A/B vs the prior pandas
        # kernels: parity to ~1.15x at sf0.1/32cpus — BASELINE.md r4)
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
        cents = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False))
            * 100.0 + 0.5
        ).astype(np.int64)
        t = pa.table({"l_orderkey": batch["l_orderkey"], "rev_c": cents})
        return pa.TableGroupBy(t, "l_orderkey").aggregate(
            [("rev_c", "sum")]
        ).rename_columns(["l_orderkey", "rev_c"])

    li = _t(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    # li ⋈ orders by co-partitioning both on orderkey % P through ONE
    # union + groupby (the repo's manual hash-join shape) — Dataset.join
    # pays Ray's sort-shuffle barrier (~3s fixed at any scale here,
    # BASELINE.md); this path measured ~2x faster for the same answer
    def route_li(batch: pa.Table) -> pa.Table:
        k = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"_part": k % num_parts, "okey": k,
             "custkey": np.full(len(k), -1, dtype=np.int64),
             "rev_c": batch["rev_c"]}
        )

    def route_orders(batch: pa.Table) -> pa.Table:
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
        bs = _ray.get(b_ref)
        if strategy == "broadcast":
            batch = batch.filter(
                pc.is_in(batch["o_custkey"], value_set=pa.array(bs))
            )
        else:
            batch = batch.filter(pa.array(_bloom_probe(
                batch["o_custkey"].to_numpy(zero_copy_only=False),
                bs, nbits,
            )))
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"_part": k % num_parts, "okey": k,
             "custkey": batch["o_custkey"],
             "rev_c": np.zeros(len(k), dtype=np.int64)}
        )

    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        route_orders, batch_format="pyarrow"
    )

    _attach_schema = pa.schema(
        [("o_custkey", pa.int64()), ("rev_c", pa.int64()),
         ("_mem", pa.int8()), ("_ppart", pa.int64())]
    )

    def attach(g: pa.Table) -> pa.Table:
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
        if g.num_rows == 0:  # typed empty: keep the exchange schema
            return _attach_schema.empty_table()
        is_o = g["custkey"].to_numpy(zero_copy_only=False) >= 0
        om = g.filter(pa.array(is_o)).select(["okey", "custkey"])
        # vectorized hash join (inner drops lineitems of non-candidate
        # orders) — Acero, single-threaded per task like the rest
        m = g.filter(pa.array(~is_o)).select(["okey", "rev_c"]).join(
            om, keys="okey", join_type="inner", use_threads=False
        )
        out = pa.TableGroupBy(m, "custkey").aggregate([("rev_c", "sum")])
        custkey = out["custkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"o_custkey": custkey, "rev_c": out["rev_c_sum"],
             "_mem": np.zeros(len(custkey), dtype=np.int8),
             "_ppart": custkey % num_parts}
        )

    def part_top(g: pd.DataFrame) -> pd.DataFrame:
        if strategy != "broadcast":
            # exact membership check: bloom false positives die here
            mem = g["_mem"].to_numpy() == 1
            members = np.unique(g.loc[mem, "o_custkey"].to_numpy(np.int64))
            g = g.loc[~mem]
            g = g[np.isin(g["o_custkey"].to_numpy(np.int64), members)]
        s = (
            g.groupby("o_custkey", as_index=False)["rev_c"].sum()
            .sort_values(["rev_c", "o_custkey"],
                         ascending=[False, True])
            .head(10)
        )
        return s[["o_custkey", "rev_c"]]

    pre = (
        li.map_batches(route_li, batch_format="pyarrow",
                       batch_size=65536)
        .union(orders)
        .sort("_part")
        .map_batches(per_group(attach, "_part", "pyarrow"),
                     batch_size=None, batch_format="pyarrow")
    )
    if strategy != "broadcast":
        def route_members(batch: pa.Table) -> pa.Table:
            k = batch["c_custkey"].to_numpy(zero_copy_only=False)
            return pa.table(
                {"o_custkey": k,
                 "rev_c": np.zeros(len(k), dtype=np.int64),
                 "_mem": np.ones(len(k), dtype=np.int8),
                 "_ppart": k % num_parts}
            )

        pre = pre.union(building_ds.map_batches(
            route_members, batch_format="pyarrow", batch_size=65536
        ))
    cand = (
        pre
        .map_batches(lambda b: b, batch_format="pyarrow",
                     batch_size=65536)  # coalesce pre-exchange blocks
        .sort("_ppart")
        .map_batches(per_group(part_top, "_ppart"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if cand.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return pd.DataFrame(
            {"o_custkey": pd.Series([], dtype="int64"),
             "revenue_cents": pd.Series([], dtype="int64")}
        )
    out = (
        cand.sort_values(["rev_c", "o_custkey"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {
            "o_custkey": out["o_custkey"].astype("int64"),
            "revenue_cents": out["rev_c"].astype("int64"),
        }
    )


TOP_REVENUE_SQL = """
WITH li AS (
  SELECT l_orderkey,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                  AS BIGINT)) AS rev_c
  FROM lineitem GROUP BY 1
)
SELECT o_custkey, CAST(sum(rev_c) AS BIGINT) AS revenue_cents
FROM li
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY 1
ORDER BY revenue_cents DESC, o_custkey ASC
LIMIT 10
"""


def local_supplier_volume(
    sf_dir: str, strategy: str = "auto", broadcast_limit: int = 2_000_000,
    region: str = "ASIA",
) -> pd.DataFrame:
    """TPC-H-Q5-style local-supplier volume: revenue per nation for
    orders in 1995-1996 where the customer and the line's supplier sit
    in the SAME nation of one region — the 6-table join shape
    (lineitem ⋈ orders ⋈ customer ⋈ supplier ⋈ nation ⋈ region) the
    query library lacked. Shapes by side size:

    - region/nation load on the driver (≤ dozens of rows, fixed);
    - supplier → region-filtered suppkey→nationkey frame, broadcast once
      (supplier is TPC-H's smallest fact-adjacent table, 1:600 of
      lineitem rows; the region filter keeps ~1/5 of that);
    - lineitem pre-aggregates rev_c per (orderkey, supplier-nation)
      INSIDE map_batches after the broadcast merge drops out-of-region
      suppliers — the biggest table never shuffles raw rows;
    - customer switches by parquet METADATA row count like
      top_customer_revenue: small → broadcast the region-filtered
      custkey→nationkey frame into the orders scan; large → co-partition
      orders ⋈ customer on custkey % P1 first (exchange #1), so nothing
      broadcast grows with scale;
    - one okey % P exchange (exchange #2; the only one on the broadcast
      path) joins lineitem partials to (okey, cust_nation), keeps
      cust_nation == supp_nation, and folds to ≤25-row per-partition
      partials; the driver sums those and attaches n_name.

    Revenue in integer cents floored per lineitem row (identical
    expression in the SQL oracle) so the hash is order-insensitive.
    Both strategies pytest-pinned equal."""
    import ray as _ray

    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet")).to_pandas()
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet")).to_pandas()
    rkeys = reg.loc[reg["r_name"] == region, "r_regionkey"]
    nat = nat[nat["n_regionkey"].isin(set(rkeys))]
    nk_names = dict(zip(nat["n_nationkey"].astype("int64"),
                        nat["n_name"]))
    empty = pd.DataFrame({"n_name": pd.Series([], dtype="object"),
                          "revenue_cents": pd.Series([], dtype="int64")})
    if not nk_names:
        return empty
    nk_arr = np.fromiter(nk_names, dtype=np.int64)

    # driver pyarrow read, not a Ray execution: supplier is the
    # broadcast side by design, and each execution costs ~0.6-1.2s of
    # streaming-executor startup (CLAUDE.md) — 2 columns of the small
    # table don't justify one
    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    if supp.empty:
        return empty
    supp = pd.DataFrame({
        "skey": supp["s_suppkey"].to_numpy(dtype=np.int64),
        "snat": supp["s_nationkey"].to_numpy(dtype=np.int64)})
    supp = supp[np.isin(supp["snat"].to_numpy(), nk_arr)]
    s_ref = _ray.put(supp)

    n_cust = pq.ParquetFile(
        os.path.join(sf_dir, "customer.parquet")).metadata.num_rows
    if strategy == "auto":
        strategy = "broadcast" if n_cust <= broadcast_limit else "copartition"
    num_parts = _parts_for(sf_dir, "orders")
    lo_ts = np.datetime64("1995-01-01")
    hi_ts = np.datetime64("1997-01-01")

    def li_partial(batch: pd.DataFrame) -> pd.DataFrame:
        sm = _ray.get(s_ref)
        cents = np.floor(
            batch["l_extendedprice"].to_numpy()
            * (1.0 - batch["l_discount"].to_numpy()) * 100.0 + 0.5
        ).astype(np.int64)
        m = pd.DataFrame({
            "okey": batch["l_orderkey"].to_numpy(dtype=np.int64),
            "skey": batch["l_suppkey"].to_numpy(dtype=np.int64),
            "rev_c": cents,
        }).merge(sm, on="skey", how="inner")  # drops out-of-region supps
        out = (m.groupby(["okey", "snat"], sort=False, as_index=False)
               ["rev_c"].sum())
        k = out["okey"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "_part": k % num_parts, "okey": k,
            "snat": out["snat"].to_numpy(dtype=np.int64),
            "cnat": np.full(len(out), -1, dtype=np.int64),
            "rev_c": out["rev_c"].to_numpy(dtype=np.int64)})

    def cust_frame(batch: pd.DataFrame) -> pd.DataFrame:
        cn = batch["c_nationkey"].to_numpy(dtype=np.int64)
        keep = np.isin(cn, nk_arr)
        return pd.DataFrame({
            "ckey": batch["c_custkey"].to_numpy(dtype=np.int64)[keep],
            "cnat": cn[keep]})

    def orders_window(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["o_orderdate"].to_numpy()
        keep = (d >= lo_ts) & (d < hi_ts)
        batch = batch.loc[keep]
        return pd.DataFrame({
            "okey": batch["o_orderkey"].to_numpy(dtype=np.int64),
            "ckey": batch["o_custkey"].to_numpy(dtype=np.int64)})

    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(orders_window, batch_format="pandas", batch_size=65536)

    if strategy == "broadcast":
        # broadcast is only chosen while customer metadata rows are
        # <= broadcast_limit, so this driver read is bounded by the same
        # gate that bounds the broadcast itself (past it: copartition)
        cm = cust_frame(pq.read_table(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_nationkey"]).to_pandas())
        c_ref = _ray.put(cm)

        def attach_cust(batch: pd.DataFrame) -> pd.DataFrame:
            m = batch.merge(_ray.get(c_ref), on="ckey", how="inner")
            k = m["okey"].to_numpy(dtype=np.int64)
            return pd.DataFrame({
                "_part": k % num_parts, "okey": k,
                "snat": np.full(len(m), -1, dtype=np.int64),
                "cnat": m["cnat"].to_numpy(dtype=np.int64),
                "rev_c": np.zeros(len(m), dtype=np.int64)})

        orders_nat = orders.map_batches(
            attach_cust, batch_format="pandas", batch_size=65536)
    else:
        # size exchange #1 by ORDERS (the dominant routed side: several
        # in-window orders per customer land in each custkey group)
        p1 = _parts_for(sf_dir, "orders")

        def route_orders(batch: pd.DataFrame) -> pd.DataFrame:
            k = batch["ckey"].to_numpy(dtype=np.int64)
            return pd.DataFrame({
                "_cpart": k % p1, "ckey": k,
                "okey": batch["okey"].to_numpy(dtype=np.int64),
                "cnat": np.full(len(batch), -1, dtype=np.int64)})

        def route_cust(batch: pd.DataFrame) -> pd.DataFrame:
            b = cust_frame(batch)
            k = b["ckey"].to_numpy(dtype=np.int64)
            return pd.DataFrame({
                "_cpart": k % p1, "ckey": k,
                "okey": np.full(len(b), -1, dtype=np.int64),
                "cnat": b["cnat"].to_numpy(dtype=np.int64)})

        def attach1(g: pd.DataFrame) -> pd.DataFrame:
            is_c = g["cnat"].to_numpy() >= 0
            cmap = g.loc[is_c, ["ckey", "cnat"]]
            m = g.loc[~is_c, ["ckey", "okey"]].merge(
                cmap, on="ckey", how="inner")
            k = m["okey"].to_numpy(dtype=np.int64)
            return pd.DataFrame({
                "_part": k % num_parts, "okey": k,
                "snat": np.full(len(m), -1, dtype=np.int64),
                "cnat": m["cnat"].to_numpy(dtype=np.int64),
                "rev_c": np.zeros(len(m), dtype=np.int64)})

        orders_nat = (
            orders.map_batches(route_orders, batch_format="pandas",
                               batch_size=65536)
            .union(_t(sf_dir, "customer", ["c_custkey", "c_nationkey"]
                      ).map_batches(route_cust, batch_format="pandas"))
            .sort("_cpart")
            .map_batches(per_group(attach1, "_cpart"),
                         batch_size=None, batch_format="pyarrow")
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_partial, batch_format="pandas", batch_size=65536)

    def attach2(g: pd.DataFrame) -> pd.DataFrame:
        is_o = g["cnat"].to_numpy() >= 0
        om = g.loc[is_o, ["okey", "cnat"]]
        m = g.loc[~is_o, ["okey", "snat", "rev_c"]].merge(
            om, on="okey", how="inner")
        m = m[m["snat"].to_numpy() == m["cnat"].to_numpy()]
        out = m.groupby("snat", as_index=False)["rev_c"].sum()
        out["rev_c"] = out["rev_c"].astype("int64")
        return out[["snat", "rev_c"]]

    parts = (
        li.union(orders_nat)
        .map_batches(lambda b: b, batch_format="pyarrow",
                     batch_size=65536)  # coalesce pre-exchange blocks
        .sort("_part")
        .map_batches(per_group(attach2, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if parts.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return empty
    out = parts.groupby("snat", as_index=False)["rev_c"].sum()
    out["n_name"] = out["snat"].map(nk_names)
    out = out.sort_values(["rev_c", "n_name"], ascending=[False, True])
    return pd.DataFrame({
        "n_name": out["n_name"].to_numpy(dtype=object),
        "revenue_cents": out["rev_c"].to_numpy(dtype=np.int64)})


LOCAL_SUPPLIER_SQL = """
WITH li AS (
  SELECT l_orderkey, l_suppkey,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS rev_c
  FROM lineitem
)
SELECT n_name, CAST(sum(li.rev_c) AS BIGINT) AS revenue_cents
FROM li
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN supplier ON s_suppkey = li.l_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE c_nationkey = s_nationkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1995-01-01'
  AND o_orderdate < DATE '1997-01-01'
GROUP BY n_name
ORDER BY revenue_cents DESC, n_name ASC
"""


def promo_revenue_share(
    sf_dir: str, strategy: str = "auto", broadcast_limit: int = 4_000_000,
) -> pd.DataFrame:
    """TPC-H-Q14-style promo revenue share per ship month
    (lineitem ⋈ part on partkey) — the query library's first use of
    p_type. The share is exact integer BASIS POINTS
    (promo_cents * 10000 // total_cents, the BIGINT floor-division
    convention TF-IDF uses) so the answer hashes deterministically with
    no float division on either side. Side shapes:

    - broadcast (part metadata rows <= broadcast_limit): partkey→promo
      flag frame broadcast once; each lineitem batch merges it and
      reduces to (month, promo_cents, total_cents) partials — bounded
      cardinality (months x 1), folded by tree_sum_by_key with NO
      groupby exchange;
    - copartition (part too big to ship): both sides route partkey % P;
      each group joins vectorized and emits per-month partials, driver
      sums <= P x months tiny rows.

    Per-row cents floor matches the SQL oracle exactly; the final
    basis-point division runs in Python ints on the <= months-sized
    driver frame (promo_cents * 10000 can exceed int64 at extreme
    scale; DuckDB's side is HUGEINT). Both paths pytest-pinned equal."""
    import ray as _ray

    n_part = pq.ParquetFile(
        os.path.join(sf_dir, "part.parquet")).metadata.num_rows
    if strategy == "auto":
        strategy = "broadcast" if n_part <= broadcast_limit else "copartition"

    def li_cents(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "pkey": batch["l_partkey"].to_numpy(dtype=np.int64),
            "month": batch["l_shipdate"].to_numpy()
            .astype("datetime64[M]").astype(str),
            "rev_c": np.floor(
                batch["l_extendedprice"].to_numpy()
                * (1.0 - batch["l_discount"].to_numpy()) * 100.0 + 0.5
            ).astype(np.int64)})

    li = _t(sf_dir, "lineitem",
            ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])

    if strategy == "broadcast":
        pm = pq.read_table(  # bounded by the strategy gate, like
            os.path.join(sf_dir, "part.parquet"),  # local_supplier_volume
            columns=["p_partkey", "p_type"]).to_pandas()
        pm = pd.DataFrame({
            "pkey": pm["p_partkey"].to_numpy(dtype=np.int64),
            "promo": (pm["p_type"] == "PROMO").to_numpy(dtype=np.int64)})
        p_ref = _ray.put(pm)

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            m = li_cents(batch).merge(_ray.get(p_ref), on="pkey",
                                      how="inner")
            m["promo_cents"] = m["rev_c"] * m["promo"]
            out = (m.groupby("month", as_index=False)
                   .agg(promo_cents=("promo_cents", "sum"),
                        total_cents=("rev_c", "sum")))
            out["promo_cents"] = out["promo_cents"].astype("int64")
            out["total_cents"] = out["total_cents"].astype("int64")
            return out

        months = tree_sum_by_key(
            li.map_batches(partial, batch_format="pandas",
                           batch_size=65536),
            ["month"])
    else:
        # size the exchange by LINEITEM rows: its (pkey, month) partials
        # dominate every group frame (random partkeys barely dedup
        # within a batch), so sizing by the small part table would blow
        # the 500k-rows/task bound _parts_for exists to enforce
        num_parts = _parts_for(sf_dir, "lineitem")

        def route_li(batch: pd.DataFrame) -> pd.DataFrame:
            b = li_cents(batch)
            out = (b.groupby(["pkey", "month"], sort=False,
                             as_index=False)["rev_c"].sum())
            k = out["pkey"].to_numpy(dtype=np.int64)
            return pd.DataFrame({
                "_ppart": k % num_parts, "pkey": k,
                "month": out["month"],
                "rev_c": out["rev_c"].to_numpy(dtype=np.int64),
                "promo": np.full(len(out), -1, dtype=np.int64)})

        def route_part(batch: pd.DataFrame) -> pd.DataFrame:
            k = batch["p_partkey"].to_numpy(dtype=np.int64)
            return pd.DataFrame({
                "_ppart": k % num_parts, "pkey": k,
                "month": np.full(len(batch), "", dtype=object),
                "rev_c": np.zeros(len(batch), dtype=np.int64),
                "promo": (batch["p_type"] == "PROMO")
                .to_numpy(dtype=np.int64)})

        def attach(g: pd.DataFrame) -> pd.DataFrame:
            is_p = g["promo"].to_numpy() >= 0
            pmap = g.loc[is_p, ["pkey", "promo"]]
            m = g.loc[~is_p, ["pkey", "month", "rev_c"]].merge(
                pmap, on="pkey", how="inner")
            m["promo_cents"] = m["rev_c"] * m["promo"]
            out = (m.groupby("month", as_index=False)
                   .agg(promo_cents=("promo_cents", "sum"),
                        total_cents=("rev_c", "sum")))
            out["promo_cents"] = out["promo_cents"].astype("int64")
            out["total_cents"] = out["total_cents"].astype("int64")
            return out

        grouped = (
            li.map_batches(route_li, batch_format="pandas",
                           batch_size=65536)
            .union(_t(sf_dir, "part", ["p_partkey", "p_type"])
                   .map_batches(route_part, batch_format="pandas"))
            .map_batches(lambda b: b, batch_format="pyarrow",
                         batch_size=65536)  # coalesce pre-exchange
            .sort("_ppart")
            .map_batches(per_group(attach, "_ppart"),
                         batch_size=None, batch_format="pyarrow")
            .to_pandas()
        )
        if grouped.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
            months = pd.DataFrame({
                "month": pd.Series([], dtype="object"),
                "promo_cents": pd.Series([], dtype="int64"),
                "total_cents": pd.Series([], dtype="int64")})
        else:
            months = (grouped.groupby("month", as_index=False)
                      [["promo_cents", "total_cents"]].sum())

    if months.empty or "month" not in months.columns:
        # zero-row to_pandas is COLUMN-LESS (CLAUDE.md) — tree_sum_by_key
        # passes that frame through verbatim on the broadcast path
        months = pd.DataFrame({
            "month": pd.Series([], dtype="object"),
            "promo_cents": pd.Series([], dtype="int64"),
            "total_cents": pd.Series([], dtype="int64")})
    months = months.sort_values("month").reset_index(drop=True)
    # t == 0 yields 0 — the oracle states the same CASE explicitly
    # (bare `// 0` in DuckDB would be NULL and flip the column to float)
    share = [int(p) * 10000 // int(t) if t else 0
             for p, t in zip(months["promo_cents"],
                             months["total_cents"])]
    return pd.DataFrame({
        "month": months["month"].to_numpy(dtype=object),
        "promo_cents": months["promo_cents"].to_numpy(dtype=np.int64),
        "total_cents": months["total_cents"].to_numpy(dtype=np.int64),
        "share_bp": np.asarray(share, dtype=np.int64)})


PROMO_SHARE_SQL = """
WITH li AS (
  SELECT strftime(l_shipdate, '%Y-%m') AS month, l_partkey,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS rev_c
  FROM lineitem
)
SELECT month,
       CAST(sum(CASE WHEN p_type = 'PROMO' THEN rev_c ELSE 0 END)
            AS BIGINT) AS promo_cents,
       CAST(sum(rev_c) AS BIGINT) AS total_cents,
       CAST(CASE WHEN sum(rev_c) = 0 THEN 0
                 ELSE sum(CASE WHEN p_type = 'PROMO' THEN rev_c
                          ELSE 0 END) * 10000 // sum(rev_c)
            END AS BIGINT) AS share_bp
FROM li
JOIN part ON p_partkey = l_partkey
GROUP BY month
ORDER BY month
"""


#: the one source of the Q4-style lateness window — the engine default
#: and the SQL oracle both derive from it, so a non-default call can't
#: silently diverge from the registered oracle
LATE_DAYS = 60


def orders_above_customer_avg(sf_dir: str) -> pd.DataFrame:
    """Correlated-scalar-subquery shape: orders priced above THEIR OWN
    customer's average order price. One custkey % P exchange; inside
    each group the per-customer mean never divides — price_c * cnt >
    sum_c compares by int64 cross-multiply (the global_sales_opportunity
    trick applied per group), so the answer is exact and the SQL window
    restates it identically. Per-batch pre-aggregation is impossible
    here (every row needs its full group's sum), which is exactly why
    this shape earns its one exchange."""
    num_parts = _parts_for(sf_dir, "orders")

    def route(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["o_custkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "_part": k % num_parts,
            "o_orderkey": batch["o_orderkey"].to_numpy(np.int64),
            "o_custkey": k,
            "price_c": np.floor(
                batch["o_totalprice"].to_numpy() * 100.0 + 0.5
            ).astype(np.int64)})

    def above(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("o_custkey")["price_c"]
        s = grp.transform("sum").to_numpy(np.int64)
        cnt = grp.transform("size").to_numpy(np.int64)
        keep = g["price_c"].to_numpy(np.int64) * cnt > s
        return g.loc[keep, ["o_orderkey", "o_custkey", "price_c"]]

    out = (
        _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(route, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(above, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return pd.DataFrame({
            "o_orderkey": pd.Series([], dtype="int64"),
            "o_custkey": pd.Series([], dtype="int64"),
            "price_c": pd.Series([], dtype="int64")})
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


ABOVE_AVG_SQL = """
WITH w AS (
  SELECT o_orderkey, o_custkey,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_c,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              OVER (PARTITION BY o_custkey) AS BIGINT) AS s,
         CAST(count(*) OVER (PARTITION BY o_custkey) AS BIGINT) AS cnt
  FROM orders
)
SELECT o_orderkey, o_custkey, price_c
FROM w WHERE price_c * cnt > s
ORDER BY o_orderkey
"""


def late_shipment_priority_counts(
    sf_dir: str, late_days: int = LATE_DAYS,
) -> pd.DataFrame:
    """TPC-H-Q4-style predicate semi-join: count orders per priority
    having AT LEAST ONE lineitem shipped more than late_days after the
    order date. The correlated EXISTS collapses to an aggregate —
    `max(l_shipdate) per order > o_orderdate + late_days` — so lineitem
    pre-aggregates its per-batch MAX shipdate per orderkey (the
    combiner; raw lineitems never shuffle), one okey % P exchange joins
    it to orders, each group compares vectorized in int64 microseconds
    and emits a bounded (priority → count) partial, and the driver sums
    <= P x |priorities| tiny rows. Orders with no lineitem drop at the
    inner merge (EXISTS false), identical to the SQL."""
    num_parts = _parts_for(sf_dir, "orders")
    late_us = late_days * 86_400 * 1_000_000

    def route_li(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "okey": batch["l_orderkey"].to_numpy(dtype=np.int64),
            "ship_us": batch["l_shipdate"].to_numpy()
            .astype("datetime64[us]").astype(np.int64),
        }).groupby("okey", as_index=False)["ship_us"].max()
        k = out["okey"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "_part": k % num_parts, "okey": k,
            # explicit side discriminator (the semi_anti_join_orders
            # _is_probe pattern) — never an in-band data sentinel
            "_is_o": np.zeros(len(out), dtype=np.int8),
            "prio": np.full(len(out), "", dtype=object),
            "odate_us": np.zeros(len(out), dtype=np.int64),
            "ship_us": out["ship_us"].to_numpy(dtype=np.int64)})

    def route_orders(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["o_orderkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "_part": k % num_parts, "okey": k,
            "_is_o": np.ones(len(batch), dtype=np.int8),
            "prio": batch["o_orderpriority"].to_numpy(dtype=object),
            "odate_us": batch["o_orderdate"].to_numpy()
            .astype("datetime64[us]").astype(np.int64),
            "ship_us": np.full(len(batch), -1, dtype=np.int64)})

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        is_o = g["_is_o"].to_numpy() == 1
        lm = (g.loc[~is_o, ["okey", "ship_us"]]
              .groupby("okey", as_index=False)["ship_us"].max())
        m = g.loc[is_o, ["okey", "prio", "odate_us"]].merge(
            lm, on="okey", how="inner")
        late = (m["ship_us"].to_numpy(np.int64)
                > m["odate_us"].to_numpy(np.int64) + late_us)
        out = (m.loc[late].groupby("prio", sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    parts = (
        _t(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
        .map_batches(route_li, batch_format="pandas", batch_size=65536)
        .union(_t(sf_dir, "orders",
                  ["o_orderkey", "o_orderpriority", "o_orderdate"])
               .map_batches(route_orders, batch_format="pandas",
                            batch_size=65536))
        .map_batches(lambda b: b, batch_format="pyarrow",
                     batch_size=65536)  # coalesce pre-exchange blocks
        .sort("_part")
        .map_batches(per_group(attach, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if parts.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return pd.DataFrame({
            "o_orderpriority": pd.Series([], dtype="object"),
            "n_late": pd.Series([], dtype="int64")})
    out = (parts.groupby("prio", sort=True)["n"].sum().reset_index()
           .rename(columns={"prio": "o_orderpriority", "n": "n_late"}))
    out["n_late"] = out["n_late"].astype("int64")
    return out


LATE_PRIORITY_SQL = f"""
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_late
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate
                    + INTERVAL {LATE_DAYS} DAY)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def global_sales_opportunity(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q22-style anti-join report: per nation, count and total
    balance of customers whose account balance is ABOVE the global
    positive-balance average and who have placed NO orders. Two
    integer-exactness tricks make the answer hash-stable:

    - 'above average' never divides: bal_c * cnt > total_c compares by
      CROSS-MULTIPLY in int64 (bal ~1e8 cents x 1e9 customers stays
      under 2^63), identical in the SQL;
    - balances are floored to cents before any sum.

    Shape: the 3-column positive-balance projection materializes once
    (scalar partials AND the candidate filter both read it — the
    quality_prune two-pass pattern); the NOT-EXISTS side pre-dedups
    o_custkey per batch (combiner) and co-partitions with candidates on
    custkey % P — ONE exchange; each group anti-joins vectorized and
    emits bounded (nationkey, n, sum) partials."""
    num_parts = _parts_for(sf_dir, "orders")

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        bal_c = np.floor(
            batch["c_acctbal"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        keep = bal_c > 0
        return pd.DataFrame({
            "ckey": batch["c_custkey"].to_numpy(np.int64)[keep],
            "nkey": batch["c_nationkey"].to_numpy(np.int64)[keep],
            "bal_c": bal_c[keep]})

    pos = _t(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"]
             ).map_batches(project, batch_format="pandas").materialize()
    parts = pos.map_batches(
        lambda b: pd.DataFrame({"tot": [b["bal_c"].sum()],
                                "cnt": [len(b)]}),
        batch_format="pandas").to_pandas()
    empty = pd.DataFrame({
        "c_nationkey": pd.Series([], dtype="int64"),
        "n_cust": pd.Series([], dtype="int64"),
        "sum_bal_cents": pd.Series([], dtype="int64")})
    if parts.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return empty
    tot, cnt = int(parts["tot"].sum()), int(parts["cnt"].sum())

    def cand(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["bal_c"].to_numpy(np.int64) * cnt > tot]
        k = batch["ckey"].to_numpy(np.int64)
        return pd.DataFrame({
            "_part": k % num_parts, "ckey": k,
            # explicit side discriminator (the semi_anti_join_orders
            # _is_probe pattern) — never an in-band data sentinel
            "_is_ord": np.zeros(len(batch), dtype=np.int8),
            "nkey": batch["nkey"].to_numpy(np.int64),
            "bal_c": batch["bal_c"].to_numpy(np.int64)})

    def route_orders(batch: pd.DataFrame) -> pd.DataFrame:
        k = np.unique(batch["o_custkey"].to_numpy(np.int64))  # combiner
        return pd.DataFrame({
            "_part": k % num_parts, "ckey": k,
            "_is_ord": np.ones(len(k), dtype=np.int8),
            "nkey": np.zeros(len(k), dtype=np.int64),
            "bal_c": np.zeros(len(k), dtype=np.int64)})

    def anti(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:  # empty exchange partition arrives COLUMN-LESS
            return pd.DataFrame(
                {"nkey": pd.Series([], dtype="int64"),
                 "n_cust": pd.Series([], dtype="int64"),
                 "sum_bal_cents": pd.Series([], dtype="int64")}
            )
        has_ord = g["_is_ord"].to_numpy() == 1
        members = np.unique(g.loc[has_ord, "ckey"].to_numpy(np.int64))
        c = g.loc[~has_ord]
        c = c[~np.isin(c["ckey"].to_numpy(np.int64), members)]
        out = (c.groupby("nkey", as_index=False)
               .agg(n_cust=("ckey", "size"), sum_bal_cents=("bal_c", "sum")))
        out["n_cust"] = out["n_cust"].astype("int64")
        out["sum_bal_cents"] = out["sum_bal_cents"].astype("int64")
        return out

    res = (
        pos.map_batches(cand, batch_format="pandas")
        .union(_t(sf_dir, "orders", ["o_custkey"])
               .map_batches(route_orders, batch_format="pandas",
                            batch_size=65536))
        .map_batches(lambda b: b, batch_format="pyarrow",
                     batch_size=65536)  # coalesce pre-exchange blocks
        .sort("_part")
        .map_batches(per_group(anti, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if res.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return empty
    out = (res.groupby("nkey", sort=True)[["n_cust", "sum_bal_cents"]]
           .sum().reset_index().rename(columns={"nkey": "c_nationkey"}))
    for c in ("c_nationkey", "n_cust", "sum_bal_cents"):
        out[c] = out[c].astype("int64")
    return out


SALES_OPPORTUNITY_SQL = """
WITH pos AS (
  SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS bal_c
  FROM customer WHERE floor(c_acctbal * 100 + 0.5) > 0
),
s AS (SELECT CAST(sum(bal_c) AS BIGINT) AS tot,
             CAST(count(*) AS BIGINT) AS cnt FROM pos),
cand AS (
  SELECT c_custkey, c_nationkey, bal_c FROM pos, s
  WHERE bal_c * cnt > tot
)
SELECT c_nationkey, CAST(count(*) AS BIGINT) AS n_cust,
       CAST(sum(bal_c) AS BIGINT) AS sum_bal_cents
FROM cand
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = cand.c_custkey)
GROUP BY c_nationkey
ORDER BY c_nationkey
"""


def semi_anti_join_orders(
    sf_dir: str, strategy: str = "auto", broadcast_limit: int = 2_000_000
) -> pd.DataFrame:
    """Semi/anti filter: customers with vs without orders (ref J1's
    existence-check semi-join). Size-based strategy selection like the
    as-of join: while the build side is small by parquet METADATA row
    count, broadcast its distinct key set once; past broadcast_limit the
    key set is GBs, so CO-PARTITION instead — both sides route to
    key % P (schema-aligned union + single-int-key groupby, the repo's
    manual hash-join shape) and each group answers membership with one
    vectorized isin. Both paths pytest-pinned equal."""
    if strategy == "auto":
        meta_rows = pq.ParquetFile(
            os.path.join(sf_dir, "orders.parquet")
        ).metadata.num_rows
        strategy = (
            "broadcast" if meta_rows <= broadcast_limit else "copartition"
        )
    if strategy == "broadcast":
        keys = set(_t(sf_dir, "orders", ["o_custkey"]).unique("o_custkey"))
        key_ref = ray.put(keys)

        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            ks = ray.get(key_ref)
            batch["has_orders"] = batch["c_custkey"].isin(ks)
            return batch[["c_custkey", "has_orders"]]

        return _t(sf_dir, "customer", ["c_custkey"]).map_batches(
            tag, batch_format="pandas"
        ).to_pandas()

    num_parts = _parts_for(sf_dir, "orders")

    def route_o(batch: pd.DataFrame) -> pd.DataFrame:
        k = np.unique(batch["o_custkey"].to_numpy(dtype=np.int64))
        return pd.DataFrame(
            {"_part": k % num_parts, "k": k,
             "_is_probe": np.zeros(len(k), dtype=np.int8)}
        )

    def route_c(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["c_custkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"_part": k % num_parts, "k": k,
             "_is_probe": np.ones(len(k), dtype=np.int8)}
        )

    def member(g: pd.DataFrame) -> pd.DataFrame:
        probe = g["_is_probe"].to_numpy() == 1
        build = np.unique(g.loc[~probe, "k"].to_numpy(dtype=np.int64))
        ck = g.loc[probe, "k"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"c_custkey": ck, "has_orders": np.isin(ck, build)}
        )

    return (
        _t(sf_dir, "orders", ["o_custkey"])
        .map_batches(route_o, batch_format="pandas", batch_size=65536)
        .union(
            _t(sf_dir, "customer", ["c_custkey"]).map_batches(
                route_c, batch_format="pandas", batch_size=65536
            )
        )
        .sort("_part")
        .map_batches(per_group(member, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )


SEMI_ANTI_SQL = """
SELECT c_custkey,
       c_custkey IN (SELECT o_custkey FROM orders) AS has_orders
FROM customer
"""


def sessionize_events(sf_dir: str) -> pd.DataFrame:
    """Session windows per user (gap > 1h starts a new session) — the
    streaming-shaped stateful window the Dataset API can't express
    directly. Users route into a fixed int partition (NOT one Ray group
    per user — ~3k tiny groups was the measured many-tiny-group
    pitfall); inside a partition one (user, ts) sort + run-boundary
    arithmetic sessionizes every user at once. Partitioning assumption:
    one user's history fits one task (same as user_rolling_window).
    Order-insensitive sums: each value rounds to integer cents FIRST
    (identical floor(x*100+0.5) on the SQL side), then sums int64 —
    float-sum order across engines can flip a final round() at a .xx5
    boundary, which showed up as a round-1 hash mismatch."""
    num_parts = _parts_for(sf_dir, "events")

    def route(batch: pd.DataFrame) -> pd.DataFrame:
        batch["value_c"] = np.floor(
            batch["value"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        batch["_part"] = (
            batch["user_id"].to_numpy().astype(np.int64) % num_parts
        )
        return batch[["user_id", "ts", "event_id", "value_c", "_part"]]

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy()
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        value_c = g["value_c"].to_numpy()
        start = np.empty(len(g), dtype=bool)
        start[0] = True
        start[1:] = (u[1:] != u[:-1]) | (
            ts_us[1:] - ts_us[:-1] > 3_600_000_000
        )
        sid_global = np.cumsum(start) - 1
        # per-user numbering: subtract the user's first session's global id
        new_user = np.empty(len(g), dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        user_first = np.maximum.accumulate(
            np.where(new_user, sid_global, -1)
        )
        starts_idx = np.flatnonzero(start)
        n_events = np.diff(np.append(starts_idx, len(g)))
        return pd.DataFrame(
            {
                "user_id": u[starts_idx].astype(np.int64),
                "session_id": (sid_global - user_first)[starts_idx],
                "n_events": n_events.astype(np.int64),
                "sum_value": np.add.reduceat(value_c, starts_idx) / 100.0,
            }
        )

    return (
        _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
        .map_batches(route, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(sessions, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )


SESSIONIZE_SQL = """
WITH marked AS (
  SELECT user_id, event_id, value, ts,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 1 HOUR OR
                   lag(ts) OVER w IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
  SELECT *, CAST(sum(new_session) OVER
            (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS BIGINT)
            AS session_id
  FROM marked
)
SELECT user_id, session_id, count(*) AS n_events,
       sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_value
FROM sess GROUP BY user_id, session_id
"""


def user_rolling_window(sf_dir: str) -> pd.DataFrame:
    """Per-user trailing-3-row running sum (ROWS BETWEEN 2 PRECEDING AND
    CURRENT ROW) — the bounded sliding window the reference's range scan
    + ORDER BY would feed. Routes users into a fixed int partition
    (never one Ray group per user — many-tiny-group pitfall) and runs
    one vectorized pandas grouped-rolling per partition; per-user
    history fitting one task is the same partitioning assumption as
    sessionize. Integer cents throughout — hash-exact across engines."""
    num_parts = _parts_for(sf_dir, "events")

    def route(batch: pd.DataFrame) -> pd.DataFrame:
        batch["value_c"] = np.floor(
            batch["value"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        batch["_part"] = (
            batch["user_id"].to_numpy().astype(np.int64) % num_parts
        )
        return batch[["user_id", "event_id", "ts", "value_c", "_part"]]

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        r = (
            g.groupby("user_id", sort=False)["value_c"]
            .rolling(3, min_periods=1)
            .sum()
            .reset_index(level=0, drop=True)
        )
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "event_id": g["event_id"].astype("int64"),
                "w3_sum_cents": r.astype("int64"),
            }
        )

    return (
        _t(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
        .map_batches(route, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(roll, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )


ROLLING_SQL = """
SELECT user_id, event_id,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS w3_sum_cents
FROM events
"""


def top_tokens_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.text import top_tokens

    return top_tokens(
        _t(sf_dir, "documents", ["text"], num_blocks=16), k=50
    )


def token_commonness_docs(sf_dir: str) -> pd.DataFrame:
    """Unigram-LM-style commonness scoring (the CCNet-ish quality
    signal): build an exact top-1000 vocabulary with corpus counts
    (reusing top_tokens' hash-partition heavy-hitters — no
    vocabulary-sized sort), broadcast it once, then score every doc in
    one map_batches probe: sum of vocabulary counts over its tokens plus
    its out-of-vocabulary token count. Integer-only output, so the hash
    cannot hinge on float log/probability rounding; a real LM would map
    counts to -log p in the same probe. Zero-token docs are dropped
    (the SQL explode produces no rows for them)."""
    from ..functions.text import top_tokens

    docs = _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16)
    vocab_df = top_tokens(
        _t(sf_dir, "documents", ["text"], num_blocks=16), k=1000
    )
    vocab = dict(
        zip(vocab_df["token"], vocab_df["cnt"].astype(np.int64))
    )
    v_ref = ray.put(vocab)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        v = ray.get(v_ref)
        toks = batch.set_index("doc_id")["text"].str.split()
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_tok": pd.Series([], dtype="int64"),
                    "sum_freq": pd.Series([], dtype="int64"),
                    "n_oov": pd.Series([], dtype="int64"),
                }
            )
        freq = ex.map(v)
        g = freq.groupby(level=0)
        out = pd.DataFrame(
            {
                "n_tok": g.size().astype(np.int64),
                "sum_freq": g.sum().astype(np.int64),
                "n_oov": (g.size() - g.count()).astype(np.int64),
            }
        ).reset_index()
        return out.astype({"doc_id": np.int64})

    out = docs.map_batches(score, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


TOKEN_COMMONNESS_SQL = r"""
WITH w AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
vocab AS (
  SELECT token, count(*) AS cnt FROM w GROUP BY token
  ORDER BY cnt DESC, token ASC LIMIT 1000
)
SELECT w.doc_id, count(*) AS n_tok,
       CAST(coalesce(sum(v.cnt), 0) AS BIGINT) AS sum_freq,
       CAST(sum(CASE WHEN v.cnt IS NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_oov
FROM w LEFT JOIN vocab v USING (token)
GROUP BY w.doc_id ORDER BY w.doc_id
"""


def source_drift_docs(
    sf_dir: str, k: int = 10, num_parts: int = 32
) -> pd.DataFrame:
    """Per-source token-distribution drift audit: for every source, the
    k tokens whose frequency share diverges most from the corpus-wide
    share — the mixture-skew detector a training-data pipeline runs
    before trusting a new crawl dump (a source whose top drift tokens
    are boilerplate is over-weighted in the mix). Shares are integer
    parts-per-million (cnt * 1e6 // total) so the result hashes exactly
    across engines; drift = src_ppm - corp_ppm, ranked by |drift|.

    Scale shape: per-batch (source, token) count combiner (rows out
    bounded by the batch's distinct tokens), ONE exchange on
    token-hash % num_parts — a token lives in exactly one partition, so
    per-partition sums are its exact per-source AND corpus counts with
    no second shuffle; per-source token totals ride a tiny
    O(sources x blocks) driver sum over the memoized combiner output
    (one text scan total). Each partition emits only its local top-k
    per source, so the driver merge is <= sources * k * num_parts tiny
    rows. cnt * 1e6 stays in int64 up to ~9e12 corpus tokens per token;
    a 100-TB corpus crossing that for a single token would switch the
    ppm basis to per-billion in the same kernel."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = (
            pd.DataFrame(
                {
                    "source": batch["source"].to_numpy(dtype=object),
                    "token": batch["text"].str.split(),
                }
            )
            .explode("token")
            .dropna(subset=["token"])
            .groupby(["source", "token"], sort=False)
            .size()
        )
        if vc.empty:
            return pd.DataFrame(
                {"source": pd.Series([], dtype="object"),
                 "token": pd.Series([], dtype="object"),
                 "cnt": pd.Series([], dtype="int64"),
                 "_part": pd.Series([], dtype="int64")}
            )
        out = vc.reset_index(name="cnt")
        out["cnt"] = out["cnt"].astype("int64")
        h = pd.util.hash_pandas_object(out["token"], index=False)
        out["_part"] = (h.to_numpy() % num_parts).astype(np.int64)
        return out

    _empty = pd.DataFrame(
        {"source": pd.Series([], dtype="object"),
         "token": pd.Series([], dtype="object"),
         "src_ppm": pd.Series([], dtype="int64"),
         "corp_ppm": pd.Series([], dtype="int64"),
         "drift": pd.Series([], dtype="int64")}
    )

    # combiner output is consumed twice (totals + drift exchange);
    # materialize the bounded partials, never the corpus
    parts = (
        _t(sf_dir, "documents", ["source", "text"], num_blocks=16)
        .map_batches(partial, batch_format="pandas", batch_size=4096)
        .materialize()
    )
    tot_rows = parts.map_batches(
        lambda b: b.groupby("source", sort=False)["cnt"]
        .sum().reset_index(),
        batch_format="pandas",
    ).to_pandas()
    if tot_rows.empty:
        return _empty
    totals = tot_rows.groupby("source")["cnt"].sum().to_dict()
    corp_tot = int(sum(totals.values()))

    def part_top(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby(["source", "token"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        corp = s.groupby("token", sort=False)["cnt"].transform("sum")
        cnt = s["cnt"].to_numpy(np.int64)
        tot = s["source"].map(totals).to_numpy(np.int64)
        s["src_ppm"] = cnt * 1_000_000 // tot
        s["corp_ppm"] = (
            corp.to_numpy(np.int64) * 1_000_000 // corp_tot
        )
        s["drift"] = (s["src_ppm"] - s["corp_ppm"]).astype("int64")
        s["_abs"] = s["drift"].abs()
        return (
            s.sort_values(["source", "_abs", "token"],
                          ascending=[True, False, True])
            .groupby("source", as_index=False, sort=False)
            .head(k)
            .drop(columns=["cnt", "_abs"])
        )

    cand = (
        parts.sort("_part")
        .map_batches(per_group(part_top, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if cand.empty:
        return _empty
    cand["_abs"] = cand["drift"].abs()
    out = (
        cand.sort_values(["source", "_abs", "token"],
                         ascending=[True, False, True])
        .groupby("source", as_index=False, sort=False)
        .head(k)
        .drop(columns=["_abs"])
        .reset_index(drop=True)
    )
    return out.astype(
        {"src_ppm": "int64", "corp_ppm": "int64", "drift": "int64"}
    )


SOURCE_DRIFT_SQL = r"""
WITH w AS (
  SELECT source,
         unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
st AS (SELECT source, token, count(*) AS cnt
       FROM w GROUP BY source, token),
src_tot AS (SELECT source, count(*) AS tot FROM w GROUP BY source),
corp AS (SELECT token, count(*) AS cnt FROM w GROUP BY token),
corp_tot AS (SELECT count(*) AS tot FROM w),
d AS (
  SELECT st.source, st.token,
         st.cnt * 1000000 // src_tot.tot AS src_ppm,
         corp.cnt * 1000000 // corp_tot.tot AS corp_ppm
  FROM st JOIN src_tot USING (source)
          JOIN corp USING (token) CROSS JOIN corp_tot
),
r AS (
  SELECT source, token, src_ppm, corp_ppm,
         src_ppm - corp_ppm AS drift,
         row_number() OVER (
           PARTITION BY source
           ORDER BY abs(src_ppm - corp_ppm) DESC, token) AS rn
  FROM d
)
SELECT source, token, src_ppm, corp_ppm, drift
FROM r WHERE rn <= 10
ORDER BY source, abs(drift) DESC, token
"""


def bpe_merges_docs(sf_dir: str) -> pd.DataFrame:
    """BPE tokenizer training: 40 merge rules learned from the corpus
    (distributed exact word counting -> driver-side merge loop over the
    bounded top-2000 word table — the standard tokenizer-training scale
    split). Oracle: pinned fixture computed by the independent
    Counter+re.sub reference in tools/gen_fixtures.py (tag-gated like
    SIMHASH_SQL)."""
    from ..functions.text import bpe_merges

    return bpe_merges(
        _t(sf_dir, "documents", ["text"], num_blocks=16),
        n_merges=40, vocab_words=2000,
    )


# BPE_SQL is defined after _FIXTURE_DIR (tag-gated fixture oracle)


def bpe_encode_docs(sf_dir: str) -> pd.DataFrame:
    """Tokenize the corpus with the merges bpe_merges_docs trains — the
    apply half of the tokenizer pipeline. Per doc: piece count + md5 of
    the full piece stream (value-checks the entire encoding). Oracle:
    pinned fixture re-encoded by the independent re.sub formulation in
    tools/gen_fixtures.py (tag-gated like BPE_SQL)."""
    from ..functions.text import bpe_encode, bpe_merges

    docs = _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16)
    m = bpe_merges(docs, n_merges=40, vocab_words=2000)
    out = bpe_encode(
        docs, list(zip(m["left"], m["right"]))
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# BPE_ENCODE_SQL is defined after _FIXTURE_DIR (tag-gated fixture oracle)


# ties break (cnt DESC, token ASC) — stated identically in the engine
TOP_TOKENS_SQL = r"""
WITH w AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
)
SELECT token, count(*) AS cnt FROM w GROUP BY token
ORDER BY cnt DESC, token ASC LIMIT 50
"""


def asof_latest_order(
    sf_dir: str, strategy: str = "auto", broadcast_limit: int = 2_000_000
) -> pd.DataFrame:
    """As-of join: for each event, the most recent order of the same key
    with o_orderdate <= ts. Size-based strategy selection (what a join
    optimizer does): when the orders side is small by parquet METADATA
    row count (no data read), broadcast it once (`ray.put`) and
    merge_asof per event batch — no exchange at all; past
    broadcast_limit, CO-PARTITION — both sides route to a fixed int
    partition (key % P, the schema-aligned-union + single-key-groupby
    co-group pattern the Jaccard verify uses) and one pd.merge_asof per
    partition matches every key at once, so the join holds when orders
    is as big as events. Both paths share the deterministic
    (key, date) -> min-orderkey dedup and are pinned equal by pytest.
    Partitioning assumption (copartition): one key's rows fit one task;
    P scales with the data."""
    if strategy == "auto":
        meta_rows = pq.ParquetFile(
            os.path.join(sf_dir, "orders.parquet")
        ).metadata.num_rows
        strategy = (
            "broadcast" if meta_rows <= broadcast_limit else "copartition"
        )
    if strategy == "broadcast":
        orders = pq.read_table(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderdate", "o_orderkey"],
        ).to_pandas()
        orders = (
            orders.sort_values(["o_orderdate", "o_orderkey"])
            .drop_duplicates(["o_custkey", "o_orderdate"], keep="first")
            .reset_index(drop=True)
        )
        o_ref = ray.put(orders)

        def join(batch: pd.DataFrame) -> pd.DataFrame:
            od = ray.get(o_ref)
            batch = batch.sort_values("ts").reset_index(drop=True)
            out = pd.merge_asof(
                batch, od, left_on="ts", right_on="o_orderdate",
                left_by="user_id", right_by="o_custkey",
                direction="backward",
            )
            return out[["event_id", "user_id", "o_orderkey"]]

        out = (
            _t(sf_dir, "events", ["event_id", "user_id", "ts"])
            .map_batches(join, batch_format="pandas")
            .to_pandas()
        )
        out["o_orderkey"] = out["o_orderkey"].astype("float64")
        return out

    num_parts = _parts_for(sf_dir, "events")

    def route_events(batch: pd.DataFrame) -> pd.DataFrame:
        key = batch["user_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "_part": key % num_parts,
                "_tag": np.zeros(len(batch), dtype=np.int8),
                "key": key,
                "ts": batch["ts"].astype("datetime64[us]"),
                "event_id": batch["event_id"].to_numpy(np.int64),
                "o_orderkey": np.full(len(batch), np.nan),
            }
        )

    def route_orders(batch: pd.DataFrame) -> pd.DataFrame:
        key = batch["o_custkey"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "_part": key % num_parts,
                "_tag": np.ones(len(batch), dtype=np.int8),
                "key": key,
                "ts": pd.to_datetime(
                    batch["o_orderdate"]
                ).astype("datetime64[us]"),
                "event_id": np.full(len(batch), -1, dtype=np.int64),
                "o_orderkey": batch["o_orderkey"]
                .to_numpy(np.int64)
                .astype(np.float64),
            }
        )

    def asof_part(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["_tag"] == 0][["key", "ts", "event_id"]]
        o = g[g["_tag"] == 1][["key", "ts", "o_orderkey"]]
        # one row per (key, date) — min orderkey — so the as-of match is
        # deterministic on both sides (the SQL oracle dedups identically)
        o = (
            o.sort_values(["ts", "o_orderkey"])
            .drop_duplicates(["key", "ts"], keep="first")
        )
        out = pd.merge_asof(
            e.sort_values("ts"), o.sort_values("ts"),
            on="ts", by="key", direction="backward",
        )
        return pd.DataFrame(
            {
                "event_id": out["event_id"].to_numpy(np.int64),
                "user_id": out["key"].to_numpy(np.int64),
                "o_orderkey": out["o_orderkey"].astype("float64"),
            }
        )

    ev = _t(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        route_events, batch_format="pandas"
    )
    od = _t(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey"]
    ).map_batches(route_orders, batch_format="pandas")
    return (
        ev.union(od)
        .sort("_part")
        .map_batches(per_group(asof_part, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )


ASOF_SQL = """
SELECT e.event_id, e.user_id, CAST(o.o_orderkey AS DOUBLE) AS o_orderkey
FROM events e
ASOF LEFT JOIN (
  SELECT o_custkey, o_orderkey, o_orderdate,
         row_number() OVER (PARTITION BY o_custkey, o_orderdate
                            ORDER BY o_orderkey) AS rn
  FROM orders QUALIFY rn = 1
) o ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


def top2_orders_per_customer(sf_dir: str) -> pd.DataFrame:
    """Per-group top-k (window-function analog). Customers route into a
    fixed int partition; one sorted grouped head(2) per partition — not
    one Ray group per customer (many-tiny-group pitfall). A per-batch
    local head(2) combiner first bounds what the exchange moves."""

    def local2(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
        )
        out = batch.groupby("o_custkey", sort=False).head(2)
        out = out.assign(
            _part=(out["o_custkey"].to_numpy().astype(np.int64) % 32)
        )
        return out

    def top2(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
        )
        return g.groupby("o_custkey", sort=False).head(2).drop(
            columns=["_part"]
        )

    out = (
        _t(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
        .map_batches(local2, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(top2, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    return _round(out, {"o_totalprice": 2})


TOP2_SQL = """
SELECT o_custkey, o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders
QUALIFY row_number() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) <= 2
"""


def distinct_user_count(sf_dir: str) -> pd.DataFrame:
    """Exact distinct count (the shuffle-dedup aggregate)."""
    n = len(_t(sf_dir, "events", ["user_id"]).unique("user_id"))
    return pd.DataFrame({"n_users": np.array([n], dtype="int64")})


DISTINCT_COUNT_SQL = "SELECT count(DISTINCT user_id) AS n_users FROM events"


# --- CDC semantics on the driver's events table -----------------------------


def _lww_events(sf_dir: str) -> rd.Dataset:
    """Two-phase LWW: per-batch combiner, then per-key final reduce —
    the engine's merge kernel applied to the driver's events table
    (key=user_id, order=event_id). The final reduce groups a FIXED int
    partition of users (all rows of one user land in one partition, so
    the per-partition kernel is a global LWW) — one Ray group per user
    was the measured many-tiny-group pitfall."""
    ds = _t(sf_dir, "events", ["user_id", "event_id", "event_type", "value"])
    out_schema = pa.schema([
        ("user_id", pa.int64()), ("event_id", pa.int64()),
        ("event_type", pa.string()), ("value", pa.float64()),
    ])

    def pre(t: pa.Table) -> pa.Table:
        t = lww_winners(t, key="user_id", order="event_id")
        part = (
            t.column("user_id").to_numpy().astype(np.int64) % 32
        )
        return t.append_column("_part", pa.array(part))

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # empty groups arrive COLUMN-LESS (CLAUDE.md);
            return out_schema.empty_table()  # keep the operator's schema
        return lww_winners(t, key="user_id", order="event_id").drop(
            ["_part"]
        )

    return (
        ds.map_batches(pre, batch_format="pyarrow")
        .sort("_part")
        .map_batches(per_group(final, "_part", "pyarrow"),
                     batch_size=None, batch_format="pyarrow")
    )


def cdc_lww_latest(sf_dir: str) -> pd.DataFrame:
    out = _lww_events(sf_dir).to_pandas()
    return _round(out, {"value": 4})


LWW_SQL = """
SELECT user_id, event_id, event_type, round(value, 4) AS value
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
  FROM events
) WHERE rn = 1
"""


def cdc_apply_final(sf_dir: str) -> pd.DataFrame:
    """Full upsert semantics: LWW winner per key; winner op 'purchase'
    plays the delete tombstone -> key dropped from the final state."""
    ds = _lww_events(sf_dir)
    out = ds.map_batches(
        lambda t: t.filter(
            pc.invert(pc.equal(t["event_type"], pa.scalar("purchase")))
        ),
        batch_format="pyarrow",
    ).to_pandas()
    return _round(out, {"value": 4})


APPLY_SQL = """
SELECT user_id, event_id, event_type, round(value, 4) AS value
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
  FROM events
) WHERE rn = 1 AND event_type <> 'purchase'
"""


def cdc_wire_formats_lww(sf_dir: str) -> pd.DataFrame:
    """All FOUR wire parsers hash-checked against one SQL oracle: each
    event row is serialized into one of the four supported CDC envelopes
    (Maxwell / Debezium / Canal / AWS DMS, chosen by event_id % 4),
    parsed by that format's real parser, and the union LWW-reduced per
    user — so a drift in ANY parser's op mapping, position encoding, or
    payload extraction flips this query red at the driver. Every format
    is fed inputs that decode to the SAME position (event_id + 1) << 20
    (Maxwell/Debezium carry it directly; Canal's id and DMS's
    transaction-id are chosen so their own encodings land on it), so
    the cross-format total order is the event order and the winners
    match the plain window SQL. The per-row JSON serialization is intrinsic
    (it IS the wire format); everything downstream is the two-phase LWW
    kernel."""
    import json as _json

    from ..sources.canal import parse_canal_batch
    from ..sources.debezium import parse_debezium_batch
    from ..sources.dms import parse_dms_batch
    from ..sources.maxwell import parse_maxwell_batch

    def to_wire(batch: pd.DataFrame) -> pa.Table:
        lines: dict[int, list[str]] = {0: [], 1: [], 2: [], 3: []}
        eids = batch["event_id"].to_numpy(np.int64)
        uids = batch["user_id"].to_numpy(np.int64)
        types = batch["event_type"].to_numpy(object)
        vals = batch["value"].to_numpy()
        for eid, uid, et, v in zip(eids, uids, types, vals):
            data = {"user_id": int(uid), "event_id": int(eid),
                    "event_type": str(et), "value": float(v)}
            f = int(eid) % 4
            pos = (int(eid) + 1) << 20
            if f == 0:
                lines[0].append(_json.dumps({
                    "type": "insert", "table": "events",
                    "position": pos, "data": data}))
            elif f == 1:
                lines[1].append(_json.dumps({
                    "payload": {"op": "c", "after": data, "before": None,
                                "source": {"table": "events",
                                           "lsn": pos}}}))
            elif f == 2:
                # canal encodes (id << 16 | row): id = pos >> 16
                lines[2].append(_json.dumps({
                    "type": "INSERT", "table": "events", "data": [data],
                    "old": None, "id": pos >> 16, "isDdl": False}))
            else:
                # dms encodes ((txid + 1) << 20 | rec): txid = eid
                lines[3].append(_json.dumps({
                    "data": data,
                    "metadata": {"record-type": "data",
                                 "operation": "insert",
                                 "table-name": "events",
                                 "transaction-id": int(eid)}}))
        parsers = (parse_maxwell_batch, parse_debezium_batch,
                   parse_canal_batch, parse_dms_batch)
        parts = [p(lines[i], key_column="user_id")
                 for i, p in enumerate(parsers) if lines[i]]
        cols = ["doc_id", "log_pos", "event_id", "event_type", "value"]
        parts = [t.select(cols) for t in parts if t.num_rows]
        if not parts:
            # keep the _part routing column: an empty block without it
            # breaks the downstream groupby's schema unification
            return pa.table({
                "doc_id": pa.array([], pa.string()),
                "log_pos": pa.array([], pa.int64()),
                "event_id": pa.array([], pa.int64()),
                "event_type": pa.array([], pa.string()),
                "value": pa.array([], pa.float64()),
                "_part": pa.array([], pa.int64())})
        t = pa.concat_tables(parts, promote_options="permissive")
        t = lww_winners(t, key="doc_id", order="log_pos")
        # vectorized routing: the keys are numeric strings by construction
        uid = t.column("doc_id").cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return t.append_column("_part", pa.array(uid % 32))

    def final(t: pa.Table) -> pa.Table:
        t = lww_winners(t, key="doc_id", order="log_pos")
        uid = t.column("doc_id").cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid),
            "event_id": t.column("event_id").cast(pa.int64()),
            "event_type": t.column("event_type"),
            "value": t.column("value").cast(pa.float64())})

    out = (
        _t(sf_dir, "events",
           ["user_id", "event_id", "event_type", "value"])
        .map_batches(to_wire, batch_format="pandas", batch_size=8192)
        .sort("_part")
        .map_batches(per_group(final, "_part", "pyarrow"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return pd.DataFrame({
            "user_id": pd.Series([], dtype="int64"),
            "event_id": pd.Series([], dtype="int64"),
            "event_type": pd.Series([], dtype="object"),
            "value": pd.Series([], dtype="float64")})
    return _round(out, {"value": 4})


WIRE_FORMATS_SQL = """
SELECT user_id, event_id, event_type, round(value, 4) AS value
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
  FROM events
) WHERE rn = 1
"""


def watermark_max(sf_dir: str) -> pd.DataFrame:
    v = _t(sf_dir, "events", ["event_id"]).max("event_id")
    return pd.DataFrame({"watermark": np.array([v], dtype="int64")})


WATERMARK_SQL = "SELECT max(event_id) AS watermark FROM events"


def props_json_stats(sf_dir: str) -> pd.DataFrame:
    """Per-type aggregates over the JSON props payload (ref §2.8's json
    scalar utils, exercised at scale): parse `{"k": N}` per event, then
    n / sum / max / exact distinct-count of k per event_type. The
    per-row json.loads is intrinsic (opaque payloads); everything after
    is a bounded (event_type, k) COUNT HISTOGRAM folded by
    tree_sum_by_key — no groupby exchange, and the exact distinct count
    falls out of the histogram for free. Partitioning assumption: the
    histogram is bounded by |types| x |k domain| (independent of event
    rows); an unbounded k domain would need the sessionize-style
    fixed-int-bucket exchange instead."""
    import json as _json

    def parse_k(s):
        # keep ONLY int64-representable plain-JSON integers, dropping
        # everything else — and the oracle states the SAME rule
        # (json_type in BIGINT/UBIGINT + TRY_CAST), so numeric strings,
        # floats, bools, and beyond-int64 ints are a dropped-row
        # AGREEMENT on both sides, never a crash or divergence
        try:
            o = _json.loads(s) if s else None
        except (TypeError, ValueError):
            return None
        k = o.get("k") if isinstance(o, dict) else None
        if not isinstance(k, int) or isinstance(k, bool):
            return None
        return k if -(1 << 63) <= k < (1 << 63) else None

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "event_type": batch["event_type"],
            "k": batch["props"].map(parse_k)})
        out = out[out["k"].notna()]
        out["k"] = out["k"].astype("int64")
        return (out.groupby(["event_type", "k"], sort=False)
                .size().rename("n").reset_index())

    hist = tree_sum_by_key(
        _t(sf_dir, "events", ["event_type", "props"])
        .map_batches(partial, batch_format="pandas", batch_size=65536),
        ["event_type", "k"])
    if hist.empty or "event_type" not in hist.columns:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype="object"),
            "n_events": pd.Series([], dtype="int64"),
            "sum_k": pd.Series([], dtype="int64"),
            "max_k": pd.Series([], dtype="int64"),
            "n_distinct_k": pd.Series([], dtype="int64")})
    hist["kn"] = hist["k"].to_numpy(np.int64) * hist["n"].to_numpy(np.int64)
    out = (hist.groupby("event_type", sort=True)
           .agg(n_events=("n", "sum"), sum_k=("kn", "sum"),
                max_k=("k", "max"), n_distinct_k=("k", "size"))
           .reset_index())
    for c in ("n_events", "sum_k", "max_k", "n_distinct_k"):
        out[c] = out[c].astype("int64")
    return out


PROPS_JSON_SQL = """
WITH e AS (
  SELECT event_type,
         CASE WHEN json_valid(props) THEN
           CASE WHEN json_type(props, '$.k') IN ('BIGINT', 'UBIGINT')
                THEN TRY_CAST(json_extract_string(props, '$.k')
                              AS BIGINT)
           END
         END AS k
  FROM events
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(k) AS BIGINT) AS sum_k, CAST(max(k) AS BIGINT) AS max_k,
       CAST(count(DISTINCT k) AS BIGINT) AS n_distinct_k
FROM e WHERE k IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


def event_type_counts(sf_dir: str) -> pd.DataFrame:
    def cents(t: pa.Table) -> pa.Table:
        # integer cents pre-shuffle: grouped sum is order-of-addition-
        # proof (max is intrinsically order-insensitive)
        value_c = np.floor(
            t.column("value").combine_chunks().to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "value_c": pa.array(value_c),
                "value": t.column("value"),
            }
        )

    out = (
        _t(sf_dir, "events", ["event_type", "value"])
        .map_batches(cents, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value_c", alias_name="sum_value"),
            Max("value", alias_name="max_value"),
        )
        .to_pandas()
    )
    out["sum_value"] = out["sum_value"] / 100.0
    return _round(out, {"max_value": 4})


TYPE_COUNTS_SQL = """
SELECT event_type, count(*) AS n_events,
       sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_value,
       round(max(value), 4) AS max_value
FROM events GROUP BY event_type
"""


def _filtered_type_counts(sf_dir: str, cfg: SyncConfig) -> pd.DataFrame:
    """filter_tables predicate -> per-type counts; a handful of types
    with integer counts, so partials tree-combine with no exchange."""

    def partial(t: pa.Table) -> pd.DataFrame:
        t = filter_tables(t, cfg, table_col="event_type")
        return pd.DataFrame(
            {"event_type": t.column("event_type").to_pandas(),
             "n": np.ones(t.num_rows, dtype=np.int64)}
        ).groupby("event_type", as_index=False).sum()

    return tree_sum_by_key(
        _t(sf_dir, "events", ["event_type", "event_id"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["event_type"],
    )


def table_filter_include(sf_dir: str) -> pd.DataFrame:
    """The reference's include/exclude predicate (include wins) applied to
    the event_type column — include=('click','view')."""
    cfg = SyncConfig(include_tables=("click", "view"))
    return _filtered_type_counts(sf_dir, cfg)


FILTER_INCLUDE_SQL = """
SELECT event_type, count(*) AS n FROM events
WHERE event_type IN ('click', 'view') GROUP BY event_type
"""


def table_filter_exclude(sf_dir: str) -> pd.DataFrame:
    """Only-exclude configured => pass everything else (precedence branch
    regular_base.go:27-29)."""
    cfg = SyncConfig(include_tables=(), exclude_tables=("error",))
    return _filtered_type_counts(sf_dir, cfg)


FILTER_EXCLUDE_SQL = """
SELECT event_type, count(*) AS n FROM events
WHERE event_type <> 'error' GROUP BY event_type
"""


def column_projection(sf_dir: str) -> pd.DataFrame:
    """filter_cols projection with PK protection: configured to drop
    (text, n_chars, doc_id); doc_id survives because it is the key."""
    cfg = SyncConfig(
        key_column="doc_id",
        filter_cols={"documents": ("text", "n_chars", "doc_id")},
        include_tables=("documents",),
    )
    ds = _t(sf_dir, "documents")
    return ds.map_batches(
        lambda t: drop_filtered_columns(t, cfg), batch_format="pyarrow"
    ).to_pandas()


PROJECTION_SQL = "SELECT doc_id, lang, source FROM documents"


# --- text analysis ----------------------------------------------------------


def token_counts_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.text import with_token_counts

    ds = with_token_counts(_t(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(["doc_id", "n_words"]).to_pandas()


TOKEN_COUNT_SQL = r"""
SELECT doc_id,
       len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))
         AS n_words
FROM documents
"""


def pack_sequences_docs(sf_dir: str) -> pd.DataFrame:
    """Sequence packing (concat-and-chunk): documents concatenate in
    doc_id order into fixed token-budget bins — the standard LLM
    pretraining prep step. Docs route to a fixed int partition
    (doc_id % P, the sessionize pattern — packing is order-stateful, so
    the Dataset API can't express it directly); within a partition one
    sort + exclusive-cumsum assigns bin = cum_excl // budget (a doc's
    tokens count wholly toward the bin where it starts, so bins may
    overrun the budget by < 1 doc — concat-and-chunk semantics, not
    bin-capacity first-fit). Partitioning assumption: one partition's
    doc list fits one task; P scales with the corpus. Output is
    integer-only per-bin stats, hash-robust across engines."""
    num_parts, budget = 16, 512
    from ..functions.text import with_token_counts

    def route(batch: pd.DataFrame) -> pd.DataFrame:
        batch["_part"] = (
            batch["doc_id"].to_numpy().astype(np.int64) % num_parts
        )
        return batch[["doc_id", "n_words", "_part"]]

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        return _pack_bins(g, budget)

    out = (
        with_token_counts(_t(sf_dir, "documents", ["doc_id", "text"]))
        .select_columns(["doc_id", "n_words"])
        .map_batches(route, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(pack, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["part", "bin"]).reset_index(drop=True)


PACK_SQL = r"""
WITH tok AS (
  SELECT doc_id, doc_id % 16 AS part,
         len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))
           AS n_words
  FROM documents
),
cum AS (
  SELECT doc_id, part, n_words,
         coalesce(sum(n_words) OVER (
           PARTITION BY part ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum_excl
  FROM tok
)
SELECT part, CAST(cum_excl // 512 AS BIGINT) AS bin, count(*) AS n_docs,
       CAST(sum(n_words) AS BIGINT) AS sum_tokens,
       min(doc_id) AS first_doc, max(doc_id) AS last_doc
FROM cum GROUP BY part, bin ORDER BY part, bin
"""


def doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    from ..functions.text import with_fingerprints

    ds = with_fingerprints(_t(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(["doc_id", "fp_md5"]).to_pandas()


FINGERPRINT_SQL = "SELECT doc_id, md5(text) AS fp_md5 FROM documents"


def text_quality_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.text import with_quality

    ds = with_quality(_t(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(
        ["doc_id", "n_words", "mean_word_len", "stopword_ratio"]
    ).to_pandas()


QUALITY_SQL = f"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z]+') AS ws FROM documents
)
SELECT doc_id, len(ws) AS n_words,
  round(list_sum(list_transform(ws, x -> len(x))) * 1.0
        / greatest(len(ws), 1), 6) AS mean_word_len,
  round(list_sum(list_transform(ws, x -> CASE WHEN lower(x)
      IN ({_stop_in()}) THEN 1 ELSE 0 END)) * 1.0
        / greatest(len(ws), 1), 6)
    AS stopword_ratio
FROM w
"""


def mixture_resample_docs(sf_dir: str) -> pd.DataFrame:
    """Exact deterministic mixture resampling: downsample sources so the
    kept corpus matches target mixing weights (here wt=2 for even-numbered
    sources, 1 for odd — derived from the name so the oracle is
    self-contained). The kept total T = min_s(count_s * sum_wt // wt_s)
    and per-source quota needed_s = T * wt_s // sum_wt are pure integer
    arithmetic; each source keeps its needed_s docs with the smallest
    (md5('mix:'||doc_id), doc_id) — consistent-hash selection, so re-runs
    and engines agree doc-by-doc.

    Scale shape — exact distributed selection WITHOUT a sort shuffle:
    pass 1 reduces per-(source, 4-hex-prefix) counts (bounded: sources x
    65536); the driver walks each source's histogram to the boundary
    bucket; a gather pass collects ONLY boundary-bucket rows (expected
    count_s/65536 — tiny) to pick the in-bucket remainder exactly; pass 2
    filters on (prefix < boundary) OR (doc_id in the tiny boundary keep
    set). Driver state O(sources x 65536). The hashed projection is
    materialized once; the three passes then run as plain Ray tasks over
    the cached block refs (the kmeans_embeddings pattern — one streaming
    execution total instead of paying executor startup per pass)."""

    def hashes(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        h = np.array(
            [
                hashlib.md5(f"mix:{int(i)}".encode()).hexdigest()[:16]
                for i in ids
            ]
        )
        return pd.DataFrame(
            {"doc_id": ids, "source": batch["source"], "h": h}
        )

    docs = _t(sf_dir, "documents", ["doc_id", "source"])
    # three passes reuse the hashed (doc_id, source, h) projection —
    # materialize it once into the object store (3 narrow columns;
    # blocks stay distributed and spill under pressure), then run each
    # pass as plain tasks over the cached block refs
    hashed = docs.map_batches(hashes, batch_format="pandas").materialize()
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype="int64"),
            "source": pd.Series([], dtype="object"),
        }
    )
    if hashed.count() == 0:  # _mix_block parts would be column-less
        return empty
    block_refs = [
        br
        for bundle in hashed.iter_internal_ref_bundles()
        for br in bundle.block_refs
    ]

    def bucket_hist(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.assign(h4=batch["h"].str[:4])
        return (
            b.groupby(["source", "h4"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    hist = (
        pd.concat(
            ray.get(
                [_mix_block.remote(bucket_hist, br) for br in block_refs]
            ),
            ignore_index=True,
        )
        .groupby(["source", "h4"], sort=True)["n"]
        .sum()
        .reset_index()
    )
    counts = hist.groupby("source")["n"].sum()
    wt = {
        s: 2 if int(s[3:]) % 2 == 0 else 1 for s in counts.index
    }
    sum_wt = sum(wt.values())
    total = min(int(counts[s]) * sum_wt // wt[s] for s in counts.index)
    needed = {s: total * wt[s] // sum_wt for s in counts.index}

    boundary: dict[str, str] = {}
    remainder: dict[str, int] = {}
    for s, g in hist.groupby("source"):
        cum = g["n"].cumsum()
        pos = int(np.searchsorted(cum.to_numpy(), needed[s], side="left"))
        if pos >= len(g):  # keep the whole source
            boundary[s] = "ffff￿"  # above any 4-hex prefix
            remainder[s] = 0
            continue
        below = int(cum.iloc[pos - 1]) if pos else 0
        boundary[s] = str(g["h4"].iloc[pos])
        remainder[s] = needed[s] - below

    def in_boundary(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[
            batch["h"].str[:4].to_numpy()
            == batch["source"].map(boundary).to_numpy()
        ]
        return b[["doc_id", "source", "h"]]

    edge = pd.concat(
        ray.get([_mix_block.remote(in_boundary, br) for br in block_refs]),
        ignore_index=True,  # expected count_s/65536 rows per source
    ).sort_values(["source", "h", "doc_id"])
    keep_edge: set[int] = set()
    for s, g in edge.groupby("source"):
        keep_edge.update(
            int(i) for i in g["doc_id"].head(remainder.get(s, 0))
        )

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        below = (
            batch["h"].str[:4].to_numpy()
            < batch["source"].map(boundary).to_numpy()
        )
        edge_keep = batch["doc_id"].isin(keep_edge).to_numpy()
        return batch.loc[below | edge_keep, ["doc_id", "source"]]

    out = pd.concat(
        ray.get([_mix_block.remote(keep, br) for br in block_refs]),
        ignore_index=True,
    )
    return out.sort_values("doc_id").reset_index(drop=True)


MIXTURE_RESAMPLE_SQL = """
WITH h AS (
  SELECT doc_id, source,
         substr(md5('mix:' || CAST(doc_id AS VARCHAR)), 1, 16) AS hh
  FROM documents
),
w AS (
  SELECT source,
         CASE WHEN CAST(substr(source, 4) AS INTEGER) % 2 = 0
              THEN 2 ELSE 1 END AS wt,
         count(*) AS m
  FROM documents GROUP BY source
),
t AS (SELECT min(m * (SELECT sum(wt) FROM w) // wt) AS total FROM w),
needed AS (
  SELECT source, (SELECT total FROM t) * wt // (SELECT sum(wt) FROM w)
           AS need
  FROM w
),
r AS (
  SELECT h.doc_id, h.source,
         row_number() OVER (PARTITION BY h.source
                            ORDER BY h.hh, h.doc_id) AS rn
  FROM h
)
SELECT r.doc_id, r.source
FROM r JOIN needed USING (source)
WHERE r.rn <= needed.need ORDER BY r.doc_id
"""


_DSIR_BUCKETS = 1024
_WORD_RE = re.compile(r"[A-Za-z]+")


def _dsir_bigram_buckets(ws: list, n_buckets: int) -> np.ndarray:
    """Hashed-bigram feature buckets for one token list: md5 of
    'w1 w2' (15 hex -> int, the cms/consistent-sample convention) mod
    n_buckets. Each distinct bigram is hashed ONCE per call, then
    scattered back to occurrences via the np.unique inverse — the
    Python-cost term is distinct bigrams, not occurrences."""
    pairs = np.array([f"{a} {b}" for a, b in zip(ws, ws[1:])])
    uniq, inv = np.unique(pairs, return_inverse=True)
    hb = np.array(
        [
            int(hashlib.md5(p.encode()).hexdigest()[:15], 16) % n_buckets
            for p in uniq
        ],
        dtype=np.int64,
    )
    return hb[inv]


def dsir_resample_docs(
    sf_dir: str, frac_bp: int = 2000, target_lang: str = "en"
) -> pd.DataFrame:
    """DSIR-style data selection (Xie et al., arXiv 2302.03169): score
    every document by hashed n-gram importance against a target
    distribution (here lang='en' docs) and keep the top frac_bp basis
    points of the corpus. Two departures from the paper, both forced by
    the exact-hash gate and documented: the per-bucket weight is the
    integer RATIO (cnt_target+1)*1e6 // (cnt_all+1) rather than a float
    log-ratio (libm-rounding-free on both engines), and selection is
    deterministic top-K by (score DESC, doc_id ASC) rather than
    Gumbel-noised sampling.

    Scale shape: pass 1 reduces per-batch (bucket, cnt_target, cnt_all)
    partials through tree_sum_by_key (bounded cardinality: 1024 feature
    buckets — no exchange); the 8 KB weight table broadcasts once via
    ray.put; pass 2 streams the corpus once into a materialized
    (doc_id, score) projection (16-byte rows); top-K selection then
    runs the mixture_resample boundary-bucket walk over the cached
    block refs — a 4096-bin score histogram to the driver, ONLY the
    boundary bin's rows gathered (expected n/4096; heavy score ties
    widen it — documented, not hidden), and a final filter pass. The
    text is regex-scanned exactly twice (intrinsic: DSIR needs global
    bucket statistics before any doc can be scored); no sort shuffle,
    no whole-corpus driver materialization beyond the selected rows the
    caller asked for."""
    docs = _t(
        sf_dir, "documents", ["doc_id", "text", "lang"], num_blocks=16
    )
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype="int64"),
            "score": pd.Series([], dtype="int64"),
        }
    )

    def bucket_partial(batch: pd.DataFrame) -> pd.DataFrame:
        ct = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
        ca = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
        for text, lang in zip(batch["text"], batch["lang"]):
            ws = _WORD_RE.findall(text)
            if len(ws) < 2:
                continue
            bs = _dsir_bigram_buckets(ws, _DSIR_BUCKETS)
            np.add.at(ca, bs, 1)
            if lang == target_lang:
                np.add.at(ct, bs, 1)
        nz = np.flatnonzero(ca)
        return pd.DataFrame(
            {"b": nz, "ct": ct[nz], "ca": ca[nz]}
        )

    cnt = tree_sum_by_key(
        docs.map_batches(
            bucket_partial, batch_format="pandas", batch_size=4096
        ),
        keys=["b"],
    )
    W = np.zeros(_DSIR_BUCKETS, dtype=np.int64)
    if len(cnt):
        b = cnt["b"].to_numpy(np.int64)
        W[b] = (
            (cnt["ct"].to_numpy(np.int64) + 1) * 1_000_000
            // (cnt["ca"].to_numpy(np.int64) + 1)
        )
    wref = ray.put(W)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        wt = ray.get(wref)
        ids = batch["doc_id"].to_numpy(np.int64)
        sc = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch["text"]):
            ws = _WORD_RE.findall(t)
            if len(ws) >= 2:
                sc[i] = int(
                    wt[_dsir_bigram_buckets(ws, _DSIR_BUCKETS)].sum()
                )
        return pd.DataFrame({"doc_id": ids, "score": sc})

    scored = docs.map_batches(
        score, batch_format="pandas", batch_size=4096
    ).materialize()
    n = scored.count()
    if n == 0:
        return empty
    k = (n * frac_bp + 9999) // 10000
    block_refs = [
        br
        for bundle in scored.iter_internal_ref_bundles()
        for br in bundle.block_refs
    ]

    def minmax(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["score"].to_numpy(np.int64)
        return pd.DataFrame({"lo": [s.min()], "hi": [s.max()]})

    mm = pd.concat(
        ray.get([_mix_block.remote(minmax, br) for br in block_refs]),
        ignore_index=True,
    )
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max())
    width = hi - lo + 1  # >= 1, so the bin index below is always valid
    nbins = 4096

    def hist(batch: pd.DataFrame) -> pd.DataFrame:
        hb = (
            (batch["score"].to_numpy(np.int64) - lo) * nbins // width
        )
        c = np.bincount(hb, minlength=nbins)
        nz = np.flatnonzero(c)
        return pd.DataFrame({"hb": nz, "n": c[nz]})

    h = (
        pd.concat(
            ray.get([_mix_block.remote(hist, br) for br in block_refs]),
            ignore_index=True,
        )
        .groupby("hb", sort=True)["n"]
        .sum()
    )
    # walk the histogram DESCENDING to the bin holding the K-th score
    bins = h.index.to_numpy()[::-1]
    cnts = h.to_numpy()[::-1]
    cum = cnts.cumsum()
    pos = int(np.searchsorted(cum, k, side="left"))
    b_star = int(bins[pos])
    above = int(cum[pos - 1]) if pos else 0  # rows in bins > b_star

    def in_boundary(batch: pd.DataFrame) -> pd.DataFrame:
        hb = (batch["score"].to_numpy(np.int64) - lo) * nbins // width
        return batch.loc[hb == b_star, ["doc_id", "score"]]

    edge = pd.concat(
        ray.get(
            [_mix_block.remote(in_boundary, br) for br in block_refs]
        ),
        ignore_index=True,
    ).sort_values(["score", "doc_id"], ascending=[False, True])
    keep_edge = set(
        int(i) for i in edge["doc_id"].head(k - above)
    )

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        hb = (batch["score"].to_numpy(np.int64) - lo) * nbins // width
        sel = (hb > b_star) | batch["doc_id"].isin(keep_edge).to_numpy()
        return batch.loc[sel, ["doc_id", "score"]]

    out = pd.concat(
        ray.get([_mix_block.remote(keep, br) for br in block_refs]),
        ignore_index=True,
    )
    if out.empty:
        return empty
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["score"] = out["score"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


DSIR_SQL = """
WITH tok AS (
  SELECT doc_id, lang, regexp_extract_all(text, '[A-Za-z]+') AS ws
  FROM documents
),
bg AS (
  SELECT doc_id, lang,
         CAST(('0x' || substr(md5(ws[i] || ' ' || ws[i + 1]), 1, 15))
              ::UBIGINT % 1024 AS BIGINT) AS b
  FROM tok, unnest(generate_series(1, len(ws) - 1)) AS t(i)
),
cnt AS (
  SELECT b,
         CAST(coalesce(count(*) FILTER (WHERE lang = 'en'), 0) AS BIGINT)
           AS ct,
         CAST(count(*) AS BIGINT) AS ca
  FROM bg GROUP BY b
),
w AS (SELECT b, (ct + 1) * 1000000 // (ca + 1) AS wt FROM cnt),
sc AS (
  SELECT bg.doc_id, CAST(sum(wt) AS BIGINT) AS score
  FROM bg JOIN w USING (b) GROUP BY bg.doc_id
),
allsc AS (
  SELECT d.doc_id, coalesce(sc.score, 0) AS score
  FROM documents d LEFT JOIN sc USING (doc_id)
),
rk AS (
  SELECT doc_id, score,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rn
  FROM allsc
)
SELECT doc_id, CAST(score AS BIGINT) AS score
FROM rk
WHERE rn <= (SELECT (count(*) * 2000 + 9999) // 10000 FROM documents)
ORDER BY doc_id
"""


@ray.remote
def _pr_block_outdeg(block) -> pd.DataFrame:
    """Per-edge-block out-degree partial: (src, n) for the block's
    distinct sources — bounded by block rows."""
    if not isinstance(block, pd.DataFrame):
        block = block.to_pandas()
    if len(block) == 0:  # empty blocks may arrive COLUMN-LESS
        return pd.DataFrame({"src": [], "n": []})
    u, c = np.unique(block["src"].to_numpy(np.int64), return_counts=True)
    return pd.DataFrame({"src": u, "n": c.astype(np.int64)})


@ray.remote
def _pr_block_inbound(block, state) -> np.ndarray:
    """One PageRank pass over one cached edge block: scatter-add
    rank[src] // outdeg[src] onto dst — int64-exact (np.add.at, never a
    float-weighted bincount)."""
    rank, outdeg = state
    if not isinstance(block, pd.DataFrame):
        block = block.to_pandas()
    acc = np.zeros(len(rank), dtype=np.int64)
    if len(block) == 0:
        return acc
    src = block["src"].to_numpy(np.int64)
    dst = block["dst"].to_numpy(np.int64)
    np.add.at(acc, dst, rank[src] // outdeg[src])
    return acc


def pagerank_trade_graph(
    sf_dir: str, iters: int = 3, top_n: int = 25
) -> pd.DataFrame:
    """Distributed PageRank over the customer<->supplier trade graph
    (nodes = customers and suppliers that traded; directed edges both
    ways per distinct (custkey, suppkey) pair from orders |><| lineitem).
    Integer fixed-point iteration so both engines hash identically:
    rank_0 = 1e9 per node; rank_{k+1}[v] = 15e7 + (85 * sum_in(rank_k[u]
    // outdeg[u])) // 100 — every division floors in int64, no float
    damping anywhere. Returns the top-25 nodes by (rank DESC, node ASC).

    Scale shape: the pair-distinct runs as per-batch combiner -> one
    fixed-int-bucket sort exchange -> per_group dedup (never one Ray
    group per pair); the directed edge list materializes ONCE and each
    pass runs as plain tasks over the cached block refs (the
    kmeans/pca pattern — no per-pass executor startup). Partitioning
    assumption, stated: the rank/outdeg vectors are broadcast (ray.put,
    O(nodes) ints), the single-box analog of Pregel's vertex-sharded
    state — on a billion-node cluster graph the same scatter-add
    routes contributions through the hash(dst) exchange the dedup
    already uses and each shard holds only its slice; the per-edge-
    block kernels are unchanged under that sharding."""
    P = _parts_for(sf_dir, "lineitem")
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    line = _t(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    joined = orders.join(
        line, join_type="inner",
        # aggregator-per-partition startup dominates below ~2M
        # join rows/partition (the orders_customer_hash_join numbers)
        num_partitions=_parts_for(
            sf_dir, "lineitem", rows_per_part=2_000_000, lo=4, hi=64
        ),
        on=("o_orderkey",), right_on=("l_orderkey",),
    )
    pair_schema = pa.schema([("c", pa.int64()), ("s", pa.int64()),
                             ("_part", pa.int64())])

    def pre(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_schema.empty_table()
        df = pd.DataFrame({
            "c": t.column("o_custkey").to_numpy().astype(np.int64),
            "s": t.column("l_suppkey").to_numpy().astype(np.int64),
        }).drop_duplicates()
        df["_part"] = (df["c"] * 31 + df["s"]) % P
        return pa.Table.from_pandas(df, schema=pair_schema,
                                    preserve_index=False)

    edge_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return edge_schema.empty_table()
        df = t.to_pandas()[["c", "s"]].drop_duplicates()
        cn = df["c"].to_numpy(np.int64) * 2
        sn = df["s"].to_numpy(np.int64) * 2 + 1
        return pa.table({
            "src": np.concatenate([cn, sn]),
            "dst": np.concatenate([sn, cn]),
        }, schema=edge_schema)

    edges = (
        joined.map_batches(pre, batch_format="pyarrow")
        .sort("_part")
        .map_batches(per_group(finish, "_part", "pyarrow"),
                     batch_size=None, batch_format="pyarrow")
        .materialize()
    )
    empty = pd.DataFrame({
        "node_type": pd.Series([], dtype="object"),
        "key": pd.Series([], dtype="int64"),
        "pr": pd.Series([], dtype="int64"),
    })
    if edges.count() == 0:
        return empty
    block_refs = [
        br
        for bundle in edges.iter_internal_ref_bundles()
        for br in bundle.block_refs
    ]
    od = (
        pd.concat(
            ray.get([_pr_block_outdeg.remote(br) for br in block_refs]),
            ignore_index=True,
        )
        .groupby("src", sort=False)["n"]
        .sum()
    )
    nodes = od.index.to_numpy(np.int64)  # every node has out-edges
    size = int(nodes.max()) + 1
    outdeg = np.ones(size, dtype=np.int64)  # holes never divide a rank
    outdeg[nodes] = od.to_numpy(np.int64)
    rank = np.zeros(size, dtype=np.int64)
    rank[nodes] = 1_000_000_000
    for _ in range(iters):
        state = ray.put((rank, outdeg))
        acc = np.zeros(size, dtype=np.int64)
        for part in ray.get(
            [_pr_block_inbound.remote(br, state) for br in block_refs]
        ):
            acc += part
        rank = np.zeros(size, dtype=np.int64)
        rank[nodes] = 150_000_000 + (85 * acc[nodes]) // 100
    order = np.lexsort((nodes, -rank[nodes]))[:top_n]
    top = nodes[order]
    return pd.DataFrame({
        "node_type": np.where(top % 2 == 0, "c", "s"),
        "key": (top // 2).astype(np.int64),
        "pr": rank[top],
    })


def _pagerank_sql(iters: int = 3, top_n: int = 25) -> str:
    """Unrolled integer PageRank oracle — generated per iteration so
    the SQL can never drift from the engine's pass count."""
    parts = [
        """
WITH pairs AS (
  SELECT DISTINCT o.o_custkey AS c, l.l_suppkey AS s
  FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
),
e AS (
  SELECT c * 2 AS src, s * 2 + 1 AS dst FROM pairs
  UNION ALL
  SELECT s * 2 + 1 AS src, c * 2 AS dst FROM pairs
),
n AS (SELECT DISTINCT src AS node FROM e),
od AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY src),
r0 AS (SELECT node, CAST(1000000000 AS BIGINT) AS pr FROM n)"""
    ]
    for k in range(1, iters + 1):
        parts.append(f""",
c{k} AS (
  SELECT e.dst AS node, sum(r{k - 1}.pr // od.d) AS s
  FROM e JOIN r{k - 1} ON e.src = r{k - 1}.node
         JOIN od ON od.src = e.src
  GROUP BY e.dst
),
r{k} AS (
  SELECT n.node,
         CAST(150000000 + (85 * coalesce(c{k}.s, 0)) // 100 AS BIGINT)
           AS pr
  FROM n LEFT JOIN c{k} USING (node)
)"""
        )
    parts.append(f"""
SELECT CASE WHEN node % 2 = 0 THEN 'c' ELSE 's' END AS node_type,
       CAST(node // 2 AS BIGINT) AS key, pr
FROM r{iters} ORDER BY pr DESC, node ASC LIMIT {top_n}
""")
    return "".join(parts)


PAGERANK_SQL = _pagerank_sql(3, 25)


@ray.remote
def _tri_block_edges(block) -> tuple[np.ndarray, np.ndarray]:
    """Gather one deduped edge block as compact (s1, s2) int64 arrays —
    O(edges) ints cross the wire, never a DataFrame."""
    if not isinstance(block, pd.DataFrame):
        block = block.to_pandas()
    if len(block) == 0:  # empty blocks may arrive COLUMN-LESS
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return (block["s1"].to_numpy(np.int64),
            block["s2"].to_numpy(np.int64))


@ray.remote
def _tri_block_count(block, state) -> int:
    """Triangles closed by this block's edges against the broadcast
    oriented CSR: for each edge (u, v) with u < v, count w in adj(u)
    with w > v and (v, w) an edge — each triangle a < b < c is counted
    exactly once, at its (a, b) edge with w = c. Wedge candidates are
    flattened fully vectorized (repeat + offset arithmetic, no per-edge
    Python) and membership is a searchsorted against the sorted edge-key
    array; scratch is chunked to a ~8 MB wedge budget per slice (the
    whole-batch-scratch-larger-than-cache pitfall BASELINE.md measured
    at 25x on this host)."""
    indptr, indices, keys, size = state
    if not isinstance(block, pd.DataFrame):
        block = block.to_pandas()
    if len(block) == 0:
        return 0
    u = block["s1"].to_numpy(np.int64)
    v = block["s2"].to_numpy(np.int64)
    reps = (indptr[u + 1] - indptr[u]).astype(np.int64)
    cum = np.cumsum(reps)
    if len(cum) == 0 or cum[-1] == 0:
        return 0
    tri = 0
    budget = 1 << 20  # wedge candidates per chunk (~8 MB int64 scratch)
    lo = 0
    while lo < len(u):
        base = int(cum[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cum, base + budget)) + 1
        hi = max(lo + 1, min(hi, len(u)))
        r = reps[lo:hi]
        t = int(r.sum())
        if t:
            starts = indptr[u[lo:hi]]
            off = np.arange(t, dtype=np.int64) - np.repeat(
                np.cumsum(r) - r, r
            )
            w = indices[starts.repeat(r) + off]
            vv = np.repeat(v[lo:hi], r)
            m = w > vv
            if m.any():
                q = vv[m] * np.int64(size) + w[m]
                pos = np.searchsorted(keys, q)
                pos_c = np.minimum(pos, len(keys) - 1)
                tri += int(((pos < len(keys)) & (keys[pos_c] == q)).sum())
        lo = hi
    return tri


def _copurchase_edges(sf_dir: str):
    """Distinct undirected edge list (s1 < s2) of the part co-purchase
    graph — parts sharing an order. Per-batch distinct -> orderkey-
    routed exchange so each order's parts co-locate -> vectorized
    within-order pair emit -> pair-hash-routed second exchange for the
    global edge distinct (the measured 2-barrier sweet spot); the
    deduped edge list materializes ONCE so downstream graph passes run
    as plain tasks over the cached block refs (the kmeans/pagerank
    pattern — no per-pass executor startup). Returns (edges, P)."""
    P = _parts_for(sf_dir, "lineitem")
    line = _t(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    pl_schema = pa.schema([("ok", pa.int64()), ("p", pa.int64()),
                           ("_part", pa.int64())])

    def pre(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pl_schema.empty_table()
        df = pd.DataFrame({
            "ok": t.column("l_orderkey").to_numpy().astype(np.int64),
            "p": t.column("l_partkey").to_numpy().astype(np.int64),
        }).drop_duplicates()
        df["_part"] = df["ok"] % P
        return pa.Table.from_pandas(df, schema=pl_schema,
                                    preserve_index=False)

    pair_schema = pa.schema([("s1", pa.int64()), ("s2", pa.int64()),
                             ("_p2", pa.int64())])

    def pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_schema.empty_table()
        df = t.to_pandas()[["ok", "p"]].drop_duplicates()
        m = df.merge(df, on="ok")  # within-order pairs; orders are
        m = m[m["p_x"] < m["p_y"]]  # whole in this group by routing
        e = m[["p_x", "p_y"]].drop_duplicates()
        s1 = e["p_x"].to_numpy(np.int64)
        s2 = e["p_y"].to_numpy(np.int64)
        return pa.table(
            {"s1": s1, "s2": s2, "_p2": (s1 * 31 + s2) % P},
            schema=pair_schema)

    edge_schema = pa.schema([("s1", pa.int64()), ("s2", pa.int64())])

    def dedup(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return edge_schema.empty_table()
        df = t.to_pandas()[["s1", "s2"]].drop_duplicates()
        return pa.Table.from_pandas(df, schema=edge_schema,
                                    preserve_index=False)

    edges = (
        line.map_batches(pre, batch_format="pyarrow")
        .sort("_part")
        .map_batches(per_group(pairs, "_part", "pyarrow"),
                     batch_size=None, batch_format="pyarrow")
        .sort("_p2")
        .map_batches(per_group(dedup, "_p2", "pyarrow"),
                     batch_size=None, batch_format="pyarrow")
        .materialize()
    )
    return edges, P


def _gather_edges(edges) -> tuple[list, np.ndarray, np.ndarray]:
    """Cached block refs + the concatenated (s1, s2) edge arrays —
    O(edges) ints on the driver, the graph analog of PageRank's
    O(nodes) rank vector (stated broadcast assumption)."""
    block_refs = [
        br
        for bundle in edges.iter_internal_ref_bundles()
        for br in bundle.block_refs
    ]
    parts = ray.get([_tri_block_edges.remote(br) for br in block_refs])
    s1 = np.concatenate([p[0] for p in parts])
    s2 = np.concatenate([p[1] for p in parts])
    return block_refs, s1, s2


def triangle_count_graph(sf_dir: str) -> pd.DataFrame:
    """Exact triangle census of the part co-purchase graph (nodes =
    parts; an undirected edge joins two parts that appear in the same
    order) — the graph-structure profile a dedup/community pass wants
    before clustering: n_nodes, n_edges, exact triangle and wedge
    counts, and the global clustering coefficient 3T/W in exact basis
    points (integer floor, no float anywhere hashed).

    Scale shape: edge build via _copurchase_edges (two-exchange
    distinct, materialized once); counting runs as plain tasks over the
    cached block refs. Partitioning assumption, stated: the node-id-
    oriented adjacency CSR + sorted edge-key set are broadcast
    (ray.put, O(edges) ints) — the single-box analog of a replicated
    adjacency cache; on a graph too big to broadcast, the same kernel
    runs per (edge-block x CSR-shard) pair with keys range-sharded by
    v, and the per-block wedge kernel is unchanged under that
    sharding. Triangle identity is orientation-invariant, so node-id
    orientation (s1 < s2, already the edge normal form) needs no
    degree reranking."""
    edges, _ = _copurchase_edges(sf_dir)

    def frame(nodes: int, ne: int, tri: int, wedges: int) -> pd.DataFrame:
        cc = 0 if wedges == 0 else (30000 * tri) // wedges
        return pd.DataFrame({
            "n_nodes": np.array([nodes], np.int64),
            "n_edges": np.array([ne], np.int64),
            "n_triangles": np.array([tri], np.int64),
            "n_wedges": np.array([wedges], np.int64),
            "cc_bp": np.array([cc], np.int64),
        })

    if edges.count() == 0:
        return frame(0, 0, 0, 0)
    block_refs, s1, s2 = _gather_edges(edges)
    size = int(max(int(s1.max()), int(s2.max()))) + 1
    deg = (np.bincount(s1, minlength=size)
           + np.bincount(s2, minlength=size)).astype(np.int64)
    wedges = int((deg * (deg - 1) // 2).sum())
    order = np.lexsort((s2, s1))
    s1s, s2s = s1[order], s2[order]
    indptr = np.zeros(size + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(s1s, minlength=size))
    keys = s1s * np.int64(size) + s2s  # ascending by construction
    state = ray.put((indptr, s2s, keys, size))
    tri = sum(ray.get(
        [_tri_block_count.remote(br, state) for br in block_refs]
    ))
    return frame(int((deg > 0).sum()), int(len(s1)), int(tri), wedges)


TRIANGLE_SQL = """
WITH pl AS (
  SELECT DISTINCT l_orderkey AS ok, l_partkey AS p FROM lineitem
),
e AS (
  SELECT a.p AS s1, b.p AS s2
  FROM pl a JOIN pl b ON a.ok = b.ok AND a.p < b.p
  GROUP BY 1, 2
),
deg AS (
  SELECT s, CAST(count(*) AS BIGINT) AS d
  FROM (SELECT s1 AS s FROM e UNION ALL SELECT s2 AS s FROM e)
  GROUP BY s
),
tri AS (
  SELECT CAST(count(*) AS BIGINT) AS t
  FROM e ab
  JOIN e bc ON ab.s2 = bc.s1
  JOIN e ac ON ac.s1 = ab.s1 AND ac.s2 = bc.s2
),
w AS (
  SELECT CAST(coalesce(sum(d * (d - 1) // 2), 0) AS BIGINT) AS w FROM deg
)
SELECT CAST((SELECT count(*) FROM deg) AS BIGINT) AS n_nodes,
       CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       (SELECT t FROM tri) AS n_triangles,
       (SELECT w FROM w) AS n_wedges,
       CAST(CASE WHEN (SELECT w FROM w) = 0 THEN 0
            ELSE (30000 * (SELECT t FROM tri)) // (SELECT w FROM w)
            END AS BIGINT) AS cc_bp
"""


@ray.remote
def _cn_node_partial(state, node_lo, node_hi, P) -> pa.Table:
    """Common-neighbor wedge partials for one node range of the FULL
    (both-direction) adjacency CSR: flattened position g — node b's
    neighbor a — pairs with every LATER neighbor c in b's slice, so
    each unordered candidate (a < c, adjacency slices are sorted)
    is generated exactly once per shared neighbor b. Fully vectorized
    (repeat + offset arithmetic) in ~8 MB wedge chunks; returns a
    task-local aggregated (key, cnt, _part) table — the combiner that
    keeps the exchange payload at distinct-pairs, not wedges."""
    indptr, indices, size = state
    empty = pa.table({"key": np.empty(0, np.int64),
                      "cnt": np.empty(0, np.int64)})
    g = np.arange(indptr[node_lo], indptr[node_hi], dtype=np.int64)
    if len(g) == 0:
        return (empty,) * P
    b = np.searchsorted(indptr, g, side="right") - 1
    reps = (indptr[b + 1] - g - 1).astype(np.int64)
    cum = np.cumsum(reps)
    if cum[-1] == 0:
        return (empty,) * P
    keys_out, cnts_out = [], []
    budget = 1 << 20
    lo = 0
    while lo < len(g):
        base = int(cum[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cum, base + budget)) + 1
        hi = max(lo + 1, min(hi, len(g)))
        r = reps[lo:hi]
        t = int(r.sum())
        if t:
            off = np.arange(t, dtype=np.int64) - np.repeat(
                np.cumsum(r) - r, r
            )
            c = indices[(g[lo:hi] + 1).repeat(r) + off]
            a = np.repeat(indices[g[lo:hi]], r)
            uk, cnt = np.unique(a * np.int64(size) + c,
                                return_counts=True)
            keys_out.append(uk)
            cnts_out.append(cnt.astype(np.int64))
        lo = hi
    key = np.concatenate(keys_out)
    cnt = np.concatenate(cnts_out)
    if len(keys_out) > 1:  # re-combine across chunks of the same task
        uk, inv = np.unique(key, return_inverse=True)
        acc = np.zeros(len(uk), dtype=np.int64)
        np.add.at(acc, inv, cnt)
        key, cnt = uk, acc
    # route by key % P via stable-sort slicing: sub-table p goes to the
    # p-th sum task through num_returns fan-out — no sort barrier
    part = key % P
    order = np.argsort(part, kind="stable")
    key, cnt, part = key[order], cnt[order], part[order]
    bounds = np.searchsorted(part, np.arange(P + 1))
    return tuple(
        pa.table({"key": key[bounds[p]:bounds[p + 1]],
                  "cnt": cnt[bounds[p]:bounds[p + 1]]})
        for p in range(P)
    )


@ray.remote
def _cn_part_sum_topk(edge_keys, k, *tables) -> pa.Table:
    """One hash-partition's reduce: sum the routed partials by key,
    drop existing edges (searchsorted anti-join against the broadcast
    sorted edge keys — Ray derefs the ray.put arg), local top-k by
    (cnt DESC, key ASC). Output is bounded at k rows."""
    t = pa.concat_tables(tables)
    empty = pa.table({"key": np.empty(0, np.int64),
                      "cnt": np.empty(0, np.int64)})
    if t.num_rows == 0:
        return empty
    key = t.column("key").to_numpy().astype(np.int64)
    cnt = t.column("cnt").to_numpy().astype(np.int64)
    uk, inv = np.unique(key, return_inverse=True)
    acc = np.zeros(len(uk), dtype=np.int64)
    np.add.at(acc, inv, cnt)
    pos = np.searchsorted(edge_keys, uk)
    pos_c = np.minimum(pos, len(edge_keys) - 1)
    m = ~((pos < len(edge_keys)) & (edge_keys[pos_c] == uk))
    uk, acc = uk[m], acc[m]
    top = np.lexsort((uk, -acc))[:k]
    return pa.table({"key": uk[top], "cnt": acc[top]})


def common_neighbors_topk(sf_dir: str, k: int = 25) -> pd.DataFrame:
    """Link prediction over the part co-purchase graph: the top-k
    NON-adjacent part pairs ranked by common-neighbor count (the
    classic 'parts bought together with the same third parts' signal),
    ties broken (count DESC, part_a ASC, part_b ASC) so the hash is
    deterministic.

    Scale shape: edge build via _copurchase_edges (materialized once);
    the full adjacency CSR is broadcast and wedge enumeration runs as
    node-range tasks whose per-task np.unique combiner bounds the
    exchange payload at distinct candidate pairs (never raw wedges);
    each task routes its partial into P hash-bucket sub-tables via
    num_returns fan-out (the SemDeDup shard pattern — no sort barrier,
    no streaming executor, partials never land on the driver) and P
    plain reduce tasks sum their bucket, anti-join existing edges
    (searchsorted against the broadcast sorted edge keys) and keep a
    local top-k; the driver merges P bounded top-k lists. A sort-
    exchange version of the same sum measured 5.0 s at sf0.1 vs ~1.5 s
    for this fan-out — full query 8.5 -> 4.9 s warm (the sort barrier,
    not compute, dominated).
    Partitioning assumption, stated: same broadcast-CSR assumption as
    triangle_count_graph — past broadcast scale, shard the CSR by
    center-node range and the kernel is unchanged."""
    edges, P = _copurchase_edges(sf_dir)
    empty = pd.DataFrame({
        "part_a": pd.Series([], dtype="int64"),
        "part_b": pd.Series([], dtype="int64"),
        "common_neighbors": pd.Series([], dtype="int64"),
    })
    if edges.count() == 0:
        return empty
    _, s1, s2 = _gather_edges(edges)
    size = int(max(int(s1.max()), int(s2.max()))) + 1
    # full (both-direction) adjacency, slices sorted ascending
    ctr = np.concatenate([s1, s2])
    nb = np.concatenate([s2, s1])
    order = np.lexsort((nb, ctr))
    ctr, nb = ctr[order], nb[order]
    indptr = np.zeros(size + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(ctr, minlength=size))
    state = ray.put((indptr, nb, size))
    # node-range tasks cut by cumulative wedge work, ~CPU-count tasks
    deg = (indptr[1:] - indptr[:-1]).astype(np.int64)
    node_wedges = np.cumsum(deg * (deg - 1) // 2)
    total_w = int(node_wedges[-1])
    n_tasks = max(1, min(64, int(ray.cluster_resources().get("CPU", 8))))
    budget = max(1 << 22, total_w // n_tasks + 1)
    cuts = [0]
    while cuts[-1] < size:
        nxt = int(np.searchsorted(
            node_wedges, int(node_wedges[cuts[-1] - 1] if cuts[-1]
                             else 0) + budget)) + 1
        cuts.append(max(cuts[-1] + 1, min(nxt, size)))
    routed = [
        _cn_node_partial.options(num_returns=P).remote(state, lo, hi, P)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    ek_ref = ray.put(np.sort(s1 * np.int64(size) + s2))
    tops = ray.get([
        _cn_part_sum_topk.remote(ek_ref, k,
                                 *[task_out[p] for task_out in routed])
        for p in range(P)
    ])
    merged = pa.concat_tables(tops)
    if merged.num_rows == 0:
        return empty
    key = merged.column("key").to_numpy().astype(np.int64)
    cnt = merged.column("cnt").to_numpy().astype(np.int64)
    top = np.lexsort((key, -cnt))[:k]
    return pd.DataFrame({
        "part_a": (key[top] // size).astype(np.int64),
        "part_b": (key[top] % size).astype(np.int64),
        "common_neighbors": cnt[top],
    })


COMMON_NEIGHBORS_SQL = """
WITH pl AS (
  SELECT DISTINCT l_orderkey AS ok, l_partkey AS p FROM lineitem
),
e AS (
  SELECT a.p AS s1, b.p AS s2
  FROM pl a JOIN pl b ON a.ok = b.ok AND a.p < b.p
  GROUP BY 1, 2
),
und AS (
  SELECT s1 AS ctr, s2 AS nb FROM e
  UNION ALL
  SELECT s2 AS ctr, s1 AS nb FROM e
),
w AS (
  SELECT u1.nb AS a, u2.nb AS c, CAST(count(*) AS BIGINT) AS cn
  FROM und u1 JOIN und u2 ON u1.ctr = u2.ctr AND u1.nb < u2.nb
  GROUP BY 1, 2
)
SELECT a AS part_a, c AS part_b, cn AS common_neighbors
FROM w
WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.s1 = w.a AND e.s2 = w.c)
ORDER BY cn DESC, a ASC, c ASC
LIMIT 25
"""


def quality_prune_docs(sf_dir: str) -> pd.DataFrame:
    """Per-source quality pruning (FineWeb-style): keep docs whose
    stopword score reaches their source's exact 25th-percentile value —
    low-stopword text is boilerplate/code-ish and gets cut per stratum,
    not globally (sources have different baselines). Integer-exact
    everywhere: score = stop_hits * 1e6 // max(n_words, 1) (pure integer
    division on both engines), threshold = the k-th smallest score with
    k = (m*25 + 99) // 100 (the rank formula event_value_percentiles
    pins). No shuffle: the scored 3-column projection materializes once
    (the regex pass is the dominant cost — never run it twice); pass 1
    reduces its per-batch (source, score) histograms (bounded: sources x
    distinct integer scores, independent of corpus rows) to per-source
    thresholds on the driver; pass 2 filters the cached blocks with the
    broadcast thresholds."""
    import re as _re

    from ..functions.text import STOPWORDS

    word_re = _re.compile(r"[A-Za-z]+")

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].str.findall(word_re)
        n_words = words.map(len).to_numpy(np.int64)
        stops = words.map(
            lambda ws: sum(1 for w in ws if w.lower() in STOPWORDS)
        ).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "source": batch["source"],
                "score_c": stops * 1_000_000 // np.maximum(n_words, 1),
            }
        )

    docs = _t(sf_dir, "documents", ["doc_id", "text", "source"])
    scored = docs.map_batches(
        score, batch_format="pandas", batch_size=4096
    ).materialize()
    thr = _source_percentile_thresholds(scored)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["source"].map(thr).to_numpy(np.int64)
        return batch[batch["score_c"].to_numpy() >= t]

    out = scored.map_batches(keep, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUALITY_PRUNE_SQL = f"""
WITH w AS (
  SELECT doc_id, source, regexp_extract_all(text, '[A-Za-z]+') AS ws
  FROM documents
),
s AS (
  SELECT doc_id, source,
         CAST(coalesce(list_sum(list_transform(ws, x -> CASE WHEN lower(x)
             IN ({_stop_in()}) THEN 1 ELSE 0 END)), 0) * 1000000
              // greatest(len(ws), 1) AS BIGINT) AS score_c
  FROM w
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY source
              ORDER BY score_c, doc_id) AS rn,
         count(*) OVER (PARTITION BY source) AS m
  FROM s
),
thr AS (SELECT source, score_c AS t FROM r WHERE rn = (m * 25 + 99) // 100)
SELECT s.doc_id, s.source, s.score_c
FROM s JOIN thr USING (source)
WHERE s.score_c >= thr.t ORDER BY s.doc_id
"""


def lang_id_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.text import with_lang_id

    ds = with_lang_id(_t(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(["doc_id", "pred_lang"]).to_pandas()


def _profile_hits(lang: str) -> str:
    from ..functions.text import LANG_PROFILES

    words = ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang]))
    return (
        f"len(list_filter(ws, x -> lower(x) IN ({words})))"
    )


# SQL restatement of the LangId heuristic: CJK => zh; else argmax of
# per-language stopword hits over [A-Za-z + accents]+ words, first language
# in (en, fr, de, es) order wins ties; zero hits => unknown
LANG_ID_SQL = f"""
WITH w AS (
  SELECT doc_id,
         regexp_extract_all(text, '[a-zA-ZÀ-ÿäöüßñ]+') AS ws,
         regexp_matches(text, '[一-鿿]') AS cjk
  FROM documents
),
h AS (
  SELECT doc_id, cjk,
         {_profile_hits("en")} AS e, {_profile_hits("fr")} AS f,
         {_profile_hits("de")} AS d, {_profile_hits("es")} AS s
  FROM w
)
SELECT doc_id,
       CASE WHEN cjk THEN 'zh'
            WHEN greatest(e, f, d, s) = 0 THEN 'unknown'
            WHEN e = greatest(e, f, d, s) THEN 'en'
            WHEN f = greatest(e, f, d, s) THEN 'fr'
            WHEN d = greatest(e, f, d, s) THEN 'de'
            ELSE 'es' END AS pred_lang
FROM h
"""


def rebalance_sample(sf_dir: str) -> pd.DataFrame:
    """Class-rebalancing deterministic downsample: undersample each
    event_type toward the minority class with a per-type systematic
    stride k_t = max(1, cnt_t // min_cnt), keeping event_id % k_t == 0.

    Two-pass: (1) tiny per-batch count combiners -> driver holds one row
    per class (bounded by class cardinality, not data size); (2) strides
    broadcast via ray.put, stateless mod-filter per batch — no shuffle
    at all. Deterministic by construction (id-keyed, not RNG), so
    resumable shards sample identically. The reference's page-limit
    scan (config.go page_size) is the ancestor; this is its
    class-balanced analog for training-data curation."""
    import ray as _ray

    ev = _t(sf_dir, "events", ["event_id", "event_type", "user_id"])

    def pcount(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["event_type"].value_counts()
        return pd.DataFrame(
            {"event_type": vc.index.to_numpy(dtype=object),
             "cnt": vc.to_numpy(dtype=np.int64)}
        )

    counts = (
        ev.map_batches(pcount, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby("event_type")["cnt"].sum()
    )
    mn = int(counts.min())
    strides = {t: max(1, int(c) // mn) for t, c in counts.items()}
    s_ref = _ray.put(strides)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        st = _ray.get(s_ref)
        k = batch["event_type"].map(st).to_numpy(dtype=np.int64)
        return batch[batch["event_id"].to_numpy() % k == 0]

    out = ev.map_batches(
        keep, batch_format="pandas", batch_size=65536
    ).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out[["event_id", "event_type", "user_id"]]


REBALANCE_SQL = """
WITH c AS (SELECT event_type, count(*) AS cnt FROM events GROUP BY 1),
m AS (SELECT min(cnt) AS mn FROM c),
k AS (SELECT event_type, greatest(1, cnt // mn) AS k FROM c, m)
SELECT e.event_id, e.event_type, e.user_id
FROM events e JOIN k USING (event_type)
WHERE e.event_id % k.k = 0
"""


def chunk_documents(sf_dir: str) -> pd.DataFrame:
    """Sequence-prep chunking: split each doc into fixed 64-word windows
    (the pre-packing step of an LLM data pipeline). Pure per-batch
    expansion — np.repeat/arange vectorized, embarrassingly parallel,
    no shuffle; output rows = sum(ceil(n_words/64))."""
    C = 64

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        n = (
            batch["text"].str.split().map(len).to_numpy(dtype=np.int64)
        )
        keep = n > 0
        n = n[keep]
        ids = batch.loc[keep, "doc_id"].to_numpy()
        n_chunks = -(-n // C)  # ceil
        doc_rep = np.repeat(ids, n_chunks)
        n_rep = np.repeat(n, n_chunks)
        # per-doc chunk indices 0..n_chunks-1, flattened
        total = int(n_chunks.sum())
        idx = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks
        )
        return pd.DataFrame(
            {
                "doc_id": doc_rep,
                "chunk_idx": idx.astype("int64"),
                "n_words_chunk": np.minimum(
                    C, n_rep - idx * C
                ).astype("int64"),
            }
        )

    return (
        _t(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(expand, batch_format="pandas", batch_size=4096)
        .to_pandas()
    )


CHUNK_SQL = r"""
WITH wl AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(text, '\s+'),
                         x -> x <> '')) AS n
  FROM documents
)
SELECT doc_id,
       unnest(range(CAST(ceil(n / 64.0) AS BIGINT))) AS chunk_idx,
       least(64, n - unnest(range(CAST(ceil(n / 64.0) AS BIGINT))) * 64)
         AS n_words_chunk
FROM wl WHERE n > 0
"""


def corpus_prep_stats(sf_dir: str) -> pd.DataFrame:
    """Flagship LLM-corpus prep composition: integer-predicate quality
    gate (n_words >= 10 AND stopword ratio >= 5%, stated as
    n_stop*20 >= n_words so no float compare can diverge) -> exact
    dedup keep-first -> language ID -> per-language corpus stats.
    Every stage is an already-oracle-green operator; this query checks
    their COMPOSITION end-to-end."""
    import re as _re

    from ..functions.dedup import exact_dedup
    from ..functions.text import STOPWORDS

    word_re = _re.compile(r"[A-Za-z]+")

    def gate(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].str.findall(word_re)
        n_words = words.map(len)
        n_stop = words.map(
            lambda ws: sum(1 for w in ws if w.lower() in STOPWORDS)
        )
        keep = (n_words >= 10) & (n_stop * 20 >= n_words)
        out = batch.loc[keep, ["doc_id", "text"]].copy()
        out["n_words"] = n_words[keep].astype("int64")
        return out

    kept = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        gate, batch_format="pandas"
    )
    from ..functions.text import with_lang_id

    # lang-ID BEFORE the dedup so the dedup exchange can drop text and
    # ship only (doc_id, content_hash, n_words, pred_lang): the
    # keep-first winner's language is computed from its own text either
    # way, so results are identical — only the sort-exchange payload
    # shrinks from the corpus to a few ints per row. (Dup rate bounds
    # the extra lang-ID work; text is still scanned O(1) times.)
    langed = exact_dedup(
        with_lang_id(kept), payload_cols=["n_words", "pred_lang"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        agg = batch.groupby("pred_lang").agg(
            n_docs=("doc_id", "size"), total_words=("n_words", "sum")
        ).reset_index()
        return agg

    # handful of language groups with integer sums: tree-combine, no
    # exchange
    out = tree_sum_by_key(
        langed.map_batches(partial, batch_format="pandas"), ["pred_lang"]
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["total_words"] = out["total_words"].astype("int64")
    return out


CORPUS_PREP_SQL = f"""
WITH g AS (
  SELECT doc_id, text,
         len(regexp_extract_all(text, '[A-Za-z]+')) AS n_words,
         len(list_filter(regexp_extract_all(text, '[A-Za-z]+'),
                         x -> lower(x) IN ({_stop_in()}))) AS n_stop
  FROM documents
),
kept AS (
  SELECT * FROM g WHERE n_words >= 10 AND n_stop * 20 >= n_words
),
ded AS (SELECT min(doc_id) AS doc_id FROM kept GROUP BY md5(text)),
k2 AS (SELECT kept.* FROM kept JOIN ded USING (doc_id)),
w AS (
  SELECT doc_id, n_words,
         regexp_extract_all(text, '[a-zA-ZÀ-ÿäöüßñ]+') AS ws,
         regexp_matches(text, '[一-鿿]') AS cjk
  FROM k2
),
h AS (
  SELECT doc_id, n_words, cjk,
         {_profile_hits("en")} AS e, {_profile_hits("fr")} AS f,
         {_profile_hits("de")} AS d, {_profile_hits("es")} AS s
  FROM w
),
lang AS (
  SELECT doc_id, n_words,
       CASE WHEN cjk THEN 'zh'
            WHEN greatest(e, f, d, s) = 0 THEN 'unknown'
            WHEN e = greatest(e, f, d, s) THEN 'en'
            WHEN f = greatest(e, f, d, s) THEN 'fr'
            WHEN d = greatest(e, f, d, s) THEN 'de'
            ELSE 'es' END AS pred_lang
  FROM h
)
SELECT pred_lang, count(*) AS n_docs,
       CAST(sum(n_words) AS BIGINT) AS total_words
FROM lang GROUP BY pred_lang
"""


# --- dedup ------------------------------------------------------------------


def dedup_exact_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.dedup import exact_dedup

    # the exchange ships only (doc_id, content_hash) — the decision,
    # never the text (payload_cols=[]; at corpus scale the sort payload
    # drops from the corpus itself to ~48 B/row)
    ds = exact_dedup(
        _t(sf_dir, "documents", ["doc_id", "text"]), payload_cols=[]
    )
    return ds.to_pandas()


DEDUP_EXACT_SQL = """
SELECT min(doc_id) AS doc_id, md5(text) AS content_hash
FROM documents GROUP BY md5(text)
"""


def corpus_pipeline_docs(
    sf_dir: str, budget: int = 512, num_parts: int = 16,
    dedup_parts: int = 32,
) -> pd.DataFrame:
    """Flagship COMPOSED prep pipeline — the chain a pretraining corpus
    actually runs, as one engine entry: lang-ID filter (keep 'en') →
    per-source quality prune (exact 25th-percentile integer stopword
    score) → exact dedup keep-first (md5, min doc_id) → fixed-budget
    sequence packing. Each stage's semantics are IDENTICAL to its
    standalone query (lang_id_docs / quality_prune_docs /
    dedup_exact_docs / pack_sequences_docs), and the oracle restates the
    whole chain as one SQL pipeline, so the composition itself is
    hash-checked end to end.

    Cost shape: the text column is read and regex-scanned ONCE — stage A
    computes pred_lang, the integer stopword score, the whitespace token
    count and the md5 dedup key in the same pass, then DROPS text; the
    scored 5-column projection materializes once because the exact
    percentile needs two passes over it (the quality_prune pattern);
    the final execution chains the dedup-bucket and packing exchanges
    (2 barriers, the measured per-execution sweet spot)."""
    import hashlib
    import re as _re

    from ..functions.text import STOPWORDS, LangId

    lid = LangId()
    word_re = _re.compile(r"[A-Za-z]+")
    ws_re = _re.compile(r"\s+")

    def stage_a(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["text"].map(lid._predict) == "en"]
        texts = batch["text"]
        words = texts.str.findall(word_re)
        n_w = words.map(len).to_numpy(np.int64)
        stops = words.map(
            lambda ws: sum(1 for w in ws if w.lower() in STOPWORDS)
        ).to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": batch["doc_id"].to_numpy(np.int64),
            "source": batch["source"],
            "score_c": stops * 1_000_000 // np.maximum(n_w, 1),
            "n_words": texts.str.split(ws_re)
            .map(lambda t: sum(1 for w in t if w))
            .to_numpy(np.int64),
            "content_hash": texts.map(
                lambda t: hashlib.md5(t.encode()).hexdigest()),
        })

    docs = _t(sf_dir, "documents", ["doc_id", "text", "source"])
    scored = docs.map_batches(
        stage_a, batch_format="pandas", batch_size=4096
    ).materialize()

    empty = pd.DataFrame({
        "part": pd.Series([], dtype="int64"),
        "bin": pd.Series([], dtype="int64"),
        "n_docs": pd.Series([], dtype="int64"),
        "sum_tokens": pd.Series([], dtype="int64"),
        "first_doc": pd.Series([], dtype="int64"),
        "last_doc": pd.Series([], dtype="int64")})
    thr = _source_percentile_thresholds(scored)
    if not thr:
        return empty

    def keep_route(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["source"].map(thr).to_numpy(np.int64)
        batch = batch[batch["score_c"].to_numpy() >= t]
        # local keep-first combiner before the hash-bucket exchange
        batch = batch.sort_values("doc_id").drop_duplicates(
            "content_hash", keep="first")
        return pd.DataFrame({
            "_dpart": batch["content_hash"].str.slice(0, 8)
            .apply(lambda s: int(s, 16) % dedup_parts).astype("int64"),
            "doc_id": batch["doc_id"].to_numpy(np.int64),
            "n_words": batch["n_words"].to_numpy(np.int64),
            "content_hash": batch["content_hash"]})

    def dedup_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").drop_duplicates(
            "content_hash", keep="first")
        ids = g["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "_part": ids % num_parts, "doc_id": ids,
            "n_words": g["n_words"].to_numpy(np.int64)})

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        return _pack_bins(g, budget)

    out = (
        scored.map_batches(keep_route, batch_format="pandas")
        .sort("_dpart").map_batches(per_group(dedup_first, "_dpart"), batch_size=None, batch_format="pyarrow")
        .sort("_part").map_batches(per_group(pack, "_part"), batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return empty
    return out.sort_values(["part", "bin"]).reset_index(drop=True)


# the full chain restated: en filter (LANG_ID_SQL's rule) → per-source
# exact 25th-pct stopword-score prune (QUALITY_PRUNE_SQL's rule) → md5
# keep-first (DEDUP_EXACT_SQL's rule) → 512-token packing (PACK_SQL's
# rule) — one oracle hash-checks the whole composition
CORPUS_PIPELINE_SQL = rf"""
WITH lw AS (
  SELECT doc_id, source, text,
         regexp_extract_all(text, '[a-zA-ZÀ-ÿäöüßñ]+') AS ws,
         regexp_matches(text, '[一-鿿]') AS cjk
  FROM documents
),
lh AS (
  SELECT doc_id, source, text, cjk,
         {_profile_hits("en")} AS e, {_profile_hits("fr")} AS f,
         {_profile_hits("de")} AS d, {_profile_hits("es")} AS s
  FROM lw
),
en AS (
  SELECT doc_id, source, text FROM lh
  WHERE NOT cjk AND greatest(e, f, d, s) > 0
    AND e = greatest(e, f, d, s)
),
sc AS (
  SELECT doc_id, source, text,
         CAST(coalesce(list_sum(list_transform(
                regexp_extract_all(text, '[A-Za-z]+'),
                x -> CASE WHEN lower(x) IN ({_stop_in()})
                     THEN 1 ELSE 0 END)), 0) * 1000000
              // greatest(len(regexp_extract_all(text, '[A-Za-z]+')), 1)
              AS BIGINT) AS score_c
  FROM en
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY source
              ORDER BY score_c, doc_id) AS rn,
         count(*) OVER (PARTITION BY source) AS m
  FROM sc
),
thr AS (SELECT source, score_c AS t FROM r WHERE rn = (m * 25 + 99) // 100),
q AS (
  SELECT sc.doc_id, sc.text
  FROM sc JOIN thr USING (source) WHERE sc.score_c >= thr.t
),
dd AS (SELECT min(doc_id) AS doc_id FROM q GROUP BY md5(text)),
tok AS (
  SELECT q.doc_id, q.doc_id % 16 AS part,
         len(list_filter(regexp_split_to_array(q.text, '\s+'),
             x -> x <> '')) AS n_words
  FROM q JOIN dd ON q.doc_id = dd.doc_id
),
cum AS (
  SELECT doc_id, part, n_words,
         coalesce(sum(n_words) OVER (
           PARTITION BY part ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum_excl
  FROM tok
)
SELECT part, CAST(cum_excl // 512 AS BIGINT) AS bin, count(*) AS n_docs,
       CAST(sum(n_words) AS BIGINT) AS sum_tokens,
       min(doc_id) AS first_doc, max(doc_id) AS last_doc
FROM cum GROUP BY part, bin ORDER BY part, bin
"""


def minhash_near_dup_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.dedup import minhash_dedup_pairs

    ds = minhash_dedup_pairs(
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16),
        threshold=0.5, k=3,
    )
    out = ds.select_columns(["doc_a", "doc_b", "jaccard"]).to_pandas()
    return _round(out, {"jaccard": 6})


# exact 3-gram-shingle Jaccard >= 0.5 over all pairs — the oracle proves the
# LSH path loses nothing at this threshold (128 hashes, 32x4 bands)
MINHASH_SQL = r"""
WITH wl AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(ws) AS word, unnest(range(len(ws))) AS pos FROM wl
  WHERE len(ws) >= 3
),
sh AS (
  SELECT DISTINCT doc_id,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w
           AS shingle
  FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(word, 2) OVER w IS NOT NULL
),
ss AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
  FROM sh a JOIN sh b USING (shingle)
  WHERE a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       round(i * 1.0 / (sa.n + sb.n - i), 6) AS jaccard
FROM inter
JOIN ss sa ON sa.doc_id = doc_a
JOIN ss sb ON sb.doc_id = doc_b
WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.5
"""


def ngram_jaccard_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.dedup import ngram_jaccard_pairs

    ds = ngram_jaccard_pairs(
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16),
        threshold=0.3, k=3,
    )
    out = ds.select_columns(["doc_a", "doc_b", "jaccard"]).to_pandas()
    return _round(out, {"jaccard": 6})


# exact all-pairs 3-gram Jaccard >= 0.3 — unlike MINHASH_SQL (which proves
# the LSH path loses nothing at 0.5), this oracle checks the sketch-free
# inverted-index operator at a threshold LSH banding could not guarantee
NGRAM_JACCARD_SQL = r"""
WITH wl AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(ws) AS word, unnest(range(len(ws))) AS pos FROM wl
  WHERE len(ws) >= 3
),
sh AS (
  SELECT DISTINCT doc_id,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w
           AS shingle
  FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(word, 2) OVER w IS NOT NULL
),
ss AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
  FROM sh a JOIN sh b USING (shingle)
  WHERE a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       round(i * 1.0 / (sa.n + sb.n - i), 6) AS jaccard
FROM inter
JOIN ss sa ON sa.doc_id = doc_a
JOIN ss sb ON sb.doc_id = doc_b
WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.3
"""


def ngram_dedup_keep_first_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.dedup import ngram_jaccard_dedup_keep_first

    ds = ngram_jaccard_dedup_keep_first(
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16),
        threshold=0.3, k=3,
    )
    return ds.select_columns(["doc_id"]).to_pandas()


# keep-first over the EXACT >=0.3 n-gram Jaccard pair graph (complete
# recall — no sketch); transitive closure via recursive CTE
NGRAM_KEEP_FIRST_SQL = r"""
WITH RECURSIVE wl AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(ws) AS word, unnest(range(len(ws))) AS pos FROM wl
  WHERE len(ws) >= 3
),
sh AS (
  SELECT DISTINCT doc_id,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w
           AS shingle
  FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(word, 2) OVER w IS NOT NULL
),
ss AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
dup_pairs AS (
  SELECT a.doc_id AS u, b.doc_id AS v
  FROM sh a JOIN sh b USING (shingle)
  JOIN ss sa ON sa.doc_id = a.doc_id
  JOIN ss sb ON sb.doc_id = b.doc_id
  WHERE a.doc_id < b.doc_id
  GROUP BY 1, 2, sa.n, sb.n
  HAVING count(*) * 1.0 / (sa.n + sb.n - count(*)) >= 0.3
),
edges AS (
  SELECT u, v FROM dup_pairs UNION SELECT v, u FROM dup_pairs
),
reach(a, b) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, r.b FROM edges e JOIN reach r ON e.v = r.a
),
label AS (SELECT a AS doc_id, min(b) AS root FROM reach GROUP BY a)
SELECT d.doc_id
FROM documents d LEFT JOIN label l ON d.doc_id = l.doc_id
WHERE l.root IS NULL OR l.root = d.doc_id
"""


def minhash_dedup_keep_first_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.dedup import minhash_dedup_keep_first

    ds = minhash_dedup_keep_first(
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16),
        threshold=0.5, k=3,
    )
    return ds.select_columns(["doc_id"]).to_pandas()


# keep-first over near-dup components: transitive closure of the exact
# >=0.5-Jaccard pair graph (recursive CTE), keep each component's min id
KEEP_FIRST_SQL = r"""
WITH RECURSIVE wl AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(ws) AS word, unnest(range(len(ws))) AS pos FROM wl
  WHERE len(ws) >= 3
),
sh AS (
  SELECT DISTINCT doc_id,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w
           AS shingle
  FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(word, 2) OVER w IS NOT NULL
),
ss AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
dup_pairs AS (
  SELECT a.doc_id AS u, b.doc_id AS v
  FROM sh a JOIN sh b USING (shingle)
  JOIN ss sa ON sa.doc_id = a.doc_id
  JOIN ss sb ON sb.doc_id = b.doc_id
  WHERE a.doc_id < b.doc_id
  GROUP BY 1, 2, sa.n, sb.n
  HAVING count(*) * 1.0 / (sa.n + sb.n - count(*)) >= 0.5
),
edges AS (
  SELECT u, v FROM dup_pairs UNION SELECT v, u FROM dup_pairs
),
reach(a, b) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, r.b FROM edges e JOIN reach r ON e.v = r.a
),
label AS (SELECT a AS doc_id, min(b) AS root FROM reach GROUP BY a)
SELECT d.doc_id
FROM documents d LEFT JOIN label l ON d.doc_id = l.doc_id
WHERE l.root IS NULL OR l.root = d.doc_id
"""


def simhash_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.dedup import SimHasher

    ds = _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=8).map_batches(
        SimHasher().__call__, batch_format="pandas"
    )

    def hexify(batch: pd.DataFrame) -> pd.DataFrame:
        batch["simhash_hex"] = batch["simhash"].map(lambda v: f"{int(v):016x}")
        return batch[["doc_id", "simhash_hex"]]

    return ds.map_batches(hexify, batch_format="pandas").to_pandas()


_FIXTURE_DIR = os.path.join(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ),
    "fixtures",
)


def simhash_dedup_keep_first(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup REMOVAL, end-to-end verified: banded candidate
    pairs at max_hamming=3 -> components -> keep-first. 4x16-bit banding
    at Hamming <= 3 is COMPLETE by pigeonhole (3 flipped bits can touch
    at most 3 of the 4 bands), so the exact SQL Hamming-closure over the
    pinned independent-reference signatures is a valid full oracle —
    this checks pairing, components, and the keep rule, not just
    signatures."""
    from ..functions.dedup import (
        drop_non_roots,
        drop_set_from_pairs,
        simhash_dup_pairs,
    )

    docs = _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=8)
    # max_bucket=None: no truncation — matches the oracle's exact closure
    pairs = simhash_dup_pairs(
        docs, max_hamming=3, max_bucket=None
    ).to_pandas()
    out = drop_non_roots(
        docs, drop_set_from_pairs(pairs), id_col="doc_id"
    )
    return out.select_columns(["doc_id"]).to_pandas()


# exact Hamming-<=3 closure over the pinned reference signatures
# (simhash_int = two's-complement int64 view; xor/bit_count in SQL)
SIMHASH_KEEP_FIRST_SQL = f"""
WITH RECURSIVE t AS (
  SELECT md5(text) AS tag FROM documents
  WHERE doc_id = (SELECT min(doc_id) FROM documents)
),
f AS (
  SELECT doc_id, simhash_int
  FROM read_parquet('{_FIXTURE_DIR}/simhash_*.parquet') s, t
  WHERE s.tag = t.tag
),
dup_pairs AS (
  SELECT a.doc_id AS u, b.doc_id AS v
  FROM f a JOIN f b ON a.doc_id < b.doc_id
  WHERE bit_count(xor(a.simhash_int, b.simhash_int)) <= 3
),
edges AS (
  SELECT u, v FROM dup_pairs UNION SELECT v, u FROM dup_pairs
),
reach(a, b) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, r.b FROM edges e JOIN reach r ON e.v = r.a
),
label AS (SELECT a AS doc_id, min(b) AS root FROM reach GROUP BY a)
SELECT d.doc_id
FROM documents d LEFT JOIN label l ON d.doc_id = l.doc_id
WHERE l.root IS NULL OR l.root = d.doc_id
"""


#: pinned-fixture oracle: expected signatures computed by the independent
#: pure-Python reference in tools/gen_fixtures.py, not by SimHasher
#: itself. Fixtures exist for every test scale and carry a content-hash
#: `tag` of their source corpus; the SQL recomputes the tag from the
#: registered view and self-selects the matching fixture from the glob
#: (_FIXTURE_DIR is defined above simhash_dedup_keep_first, its first use).
SIMHASH_SQL = f"""
WITH t AS (
  SELECT md5(text) AS tag FROM documents
  WHERE doc_id = (SELECT min(doc_id) FROM documents)
)
SELECT f.doc_id, f.simhash_hex
FROM read_parquet('{_FIXTURE_DIR}/simhash_*.parquet') f, t
WHERE f.tag = t.tag
"""


#: pinned-fixture oracle for BPE APPLY (tag-gated like BPE_SQL):
#: expected per-doc piece counts + stream fingerprints re-encoded by the
#: independent space-joined re.sub formulation in tools/gen_fixtures.py
BPE_ENCODE_SQL = f"""
WITH t AS (
  SELECT md5(text) AS tag FROM documents
  WHERE doc_id = (SELECT min(doc_id) FROM documents)
)
SELECT f.doc_id, f.n_pieces, f.pieces_fp
FROM read_parquet('{_FIXTURE_DIR}/bpeapply_*.parquet') f, t
WHERE f.tag = t.tag
ORDER BY f.doc_id
"""


#: pinned-fixture oracle for the real multimodal decode: stats computed
#: by the byte-level pure-Python reference decoder in
#: tools/gen_fixtures.py media_ref. Spec (n/seed/size) is constant, so
#: one fixture serves every scale; regenerate with gen_fixtures.py if
#: the gen_real_media spec or the decoders change.
_MEDIA_N, _MEDIA_SEED, _MEDIA_SIZE = 48, 13, 16


def _media_tag() -> str:
    """Content tag of the CURRENT gen_real_media spec — computed at
    import (48 tiny payloads, ~ms) and baked into the oracle SQL so a
    regenerated fixture lingering next to a stale one self-selects,
    exactly like the tag-gated BPE/simhash oracles."""
    from ..functions.multimodal import gen_real_media

    media = gen_real_media(_MEDIA_N, seed=_MEDIA_SEED, size=_MEDIA_SIZE)
    return hashlib.md5(
        b"".join(media.column("payload").to_pylist())
    ).hexdigest()


MEDIA_DECODE_SQL = f"""
SELECT media_id, media_type, dim1, dim2, checksum
FROM read_parquet('{_FIXTURE_DIR}/media_stats_*.parquet')
WHERE tag = '{_media_tag()}'
ORDER BY media_id
"""


#: pinned-fixture oracle for BPE merge training (tag-gated like
#: SIMHASH_SQL); expected merges computed by the independent
#: Counter+re.sub reference in tools/gen_fixtures.py bpe_ref
BPE_SQL = f"""
WITH t AS (
  SELECT md5(text) AS tag FROM documents
  WHERE doc_id = (SELECT min(doc_id) FROM documents)
)
SELECT f.rank, f.left, f.right, f.freq
FROM read_parquet('{_FIXTURE_DIR}/bpe_*.parquet') f, t
WHERE f.tag = t.tag
ORDER BY f.rank
"""


def media_decode_stats(sf_dir: str) -> pd.DataFrame:
    """REAL multimodal decode, oracle-checked: a constant seeded media
    table (PPM images, zlib-compressed PNG images cycling all five
    scanline filters, baseline JPEG rotating 4:4:4 / 4:2:0 / grayscale,
    and PCM WAV clips) decodes through the actor/batch plumbing to
    integer-exact stats: image (height, width, sum of all RGB bytes),
    audio (frames, sample rate, sum of squared samples). The pinned
    fixture recomputes the same stats with a byte-level pure-Python
    decoder (tools/gen_fixtures.py gen_media — struct/int loops, a
    per-byte unfilter walk, and for JPEG a math.cos triple-loop IDCT
    with its own bit reader; no numpy shared with
    functions/multimodal.py), so this is a genuine cross-check of the
    real decode path, all in exact int64 (no float hash hazard). The
    spec is sf-independent (like cdc_replay_lake's): one fixture serves
    every scale."""
    from ..functions.multimodal import (
        decode_jpeg, decode_png, decode_ppm, decode_wav, gen_real_media,
    )

    media = gen_real_media(_MEDIA_N, seed=_MEDIA_SEED, size=_MEDIA_SIZE)
    img_dec = {
        "image/x-portable-pixmap": decode_ppm,
        "image/png": decode_png,
        "image/jpeg": decode_jpeg,
    }

    def stats(t: pa.Table) -> pa.Table:
        d1, d2, cks = [], [], []
        for p, mt in zip(t.column("payload"), t.column("media_type")):
            raw, kind = p.as_py(), mt.as_py()
            if kind in img_dec:
                arr = img_dec[kind](raw)
                d1.append(arr.shape[0])
                d2.append(arr.shape[1])
                cks.append(int(arr.astype(np.int64).sum()))
            else:
                samples, rate = decode_wav(raw)
                d1.append(samples.shape[0])
                d2.append(rate)
                cks.append(int((samples.astype(np.int64) ** 2).sum()))
        return pa.table(
            {"media_id": t.column("media_id"),
             "media_type": t.column("media_type"),
             "dim1": pa.array(d1, pa.int64()),
             "dim2": pa.array(d2, pa.int64()),
             "checksum": pa.array(cks, pa.int64())}
        )

    out = (
        rd.from_arrow(media)
        .map_batches(stats, batch_format="pyarrow", batch_size=8)
        .to_pandas()
    )
    return out.sort_values("media_id").reset_index(drop=True)


#: pinned real-video spec (tag-gated like _media_tag); regenerate the
#: video_frames fixture with tools/gen_fixtures.py if gen_real_video,
#: encode_y4m/decode_y4m or these constants change
_VIDEO_N, _VIDEO_SEED, _VIDEO_SIZE, _VIDEO_STRIDE = 24, 17, 16, 3


def _video_tag() -> str:
    from ..functions.multimodal import gen_real_video

    v = gen_real_video(_VIDEO_N, seed=_VIDEO_SEED, size=_VIDEO_SIZE)
    return hashlib.md5(
        b"".join(v.column("payload").to_pylist())
    ).hexdigest()


VIDEO_FRAMES_SQL = f"""
SELECT media_id, frame_index, height, width, luma_sum
FROM read_parquet('{_FIXTURE_DIR}/video_frames_*.parquet')
WHERE tag = '{_video_tag()}'
ORDER BY media_id, frame_index
"""


def video_frame_sample_stats(sf_dir: str) -> pd.DataFrame:
    """REAL video frame sampling, oracle-checked: a constant seeded
    table of uncompressed Y4M clips (the standard codec-free video
    interchange format — mono luma planes here) runs through the
    FrameSampler actor pool keeping every 3rd frame, then each kept
    luma plane reduces to an exact int64 byte sum. The pinned fixture
    re-derives the same rows with an independent pure-Python Y4M walk
    (tools/gen_fixtures.py gen_video_frames — text header split,
    index()-based FRAME scan, per-byte sum loops; no numpy shared with
    functions/multimodal.decode_y4m). Spec is sf-independent; one
    fixture serves every scale. Reference analog: frame-sample is the
    video leg of the multimodal prep the brief's pipelines need; the
    decode stub for COMPRESSED containers stays an honest
    NotImplementedError (multimodal.FrameSampler)."""
    from ..functions.multimodal import gen_real_video, sample_frames

    v = gen_real_video(_VIDEO_N, seed=_VIDEO_SEED, size=_VIDEO_SIZE)

    def stats(t: pa.Table) -> pa.Table:
        sums = [
            int(np.frombuffer(f.as_py(), np.uint8).astype(np.int64).sum())
            for f in t.column("frame")
        ]
        return pa.table(
            {"media_id": t.column("media_id"),
             "frame_index": t.column("frame_index").cast(pa.int64()),
             "height": t.column("height").cast(pa.int64()),
             "width": t.column("width").cast(pa.int64()),
             "luma_sum": pa.array(sums, pa.int64())}
        )

    out = (
        sample_frames(
            rd.from_arrow(v), stride=_VIDEO_STRIDE, fake=False,
            batch_size=8,
        )
        .map_batches(stats, batch_format="pyarrow", batch_size=64)
        .to_pandas()
    )
    return out.sort_values(
        ["media_id", "frame_index"]
    ).reset_index(drop=True)


RESIZE_SQL = f"""
SELECT media_id, media_type, out_h, out_w, resized_sum
FROM read_parquet('{_FIXTURE_DIR}/resize_stats_*.parquet')
WHERE tag = '{_media_tag()}'
ORDER BY media_id
"""


def media_resize_stats(sf_dir: str) -> pd.DataFrame:
    """REAL image resize, oracle-checked: the pinned media table's image
    rows (PPM + filtered PNG) decode and box-mean downsample to 4x4 in
    exact int64 (multimodal.resize_box — floor of each box's mean, no
    float interpolation), reducing to the resized raster's byte sum.
    The fixture recomputes the same sums with pure-Python double loops
    over the byte-level reference rasters (tools/gen_fixtures.py
    gen_resize), so the whole decode->resize path is cross-checked
    bit-for-bit. Same tag gate as media_decode_stats (shared payload
    spec)."""
    from ..functions.multimodal import (
        decode_jpeg, decode_png, decode_ppm, gen_real_media, resize_box,
    )

    media = gen_real_media(_MEDIA_N, seed=_MEDIA_SEED, size=_MEDIA_SIZE)
    img_dec = {
        "image/x-portable-pixmap": decode_ppm,
        "image/png": decode_png,
        "image/jpeg": decode_jpeg,
    }

    def stats(t: pa.Table) -> pa.Table:
        ids, mts, sums = [], [], []
        for mid, mt, p in zip(
            t.column("media_id"), t.column("media_type"),
            t.column("payload"),
        ):
            kind = mt.as_py()
            if kind not in img_dec:
                continue  # audio rows have no raster to resize
            raw = p.as_py()
            arr = img_dec[kind](raw)
            if arr.ndim != 3:
                continue  # grayscale JPEG: fixture skips these too
            r = resize_box(arr, 4, 4)
            ids.append(mid.as_py())
            mts.append(kind)
            sums.append(int(r.astype(np.int64).sum()))
        n = len(ids)
        return pa.table(
            {"media_id": pa.array(ids, pa.string()),
             "media_type": pa.array(mts, pa.string()),
             "out_h": pa.array([4] * n, pa.int64()),
             "out_w": pa.array([4] * n, pa.int64()),
             "resized_sum": pa.array(sums, pa.int64())}
        )

    out = (
        rd.from_arrow(media)
        .map_batches(stats, batch_format="pyarrow", batch_size=8)
        .to_pandas()
    )
    return out.sort_values("media_id").reset_index(drop=True)


# _MEDIA_* constants live above _media_tag (import-order dependency)


# --- similarity search ------------------------------------------------------


def _query_vec(sf_dir: str) -> np.ndarray:
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    idx = t.column("vec_id").to_pylist().index(0)
    return np.asarray(t.column("embedding")[idx].as_py(), dtype=np.float64)


def quantized_ann_topk(sf_dir: str) -> pd.DataFrame:
    """Top-10 neighbors of vec 0 over 8-bit scalar-quantized codes with
    an INTEGER dot-product score — the vector-compression scale path
    (8x smaller working set at 100 TB), bit-exact against the SQL
    restatement of the identical floor((x-mn)/(mx-mn)*255+0.5)
    quantizer."""
    from ..functions.ann import quantized_topk

    out = quantized_topk(
        _t(sf_dir, "embeddings"), _query_vec(sf_dir), query_id=0, k=10
    )
    return out


QUANTIZED_ANN_SQL = """
WITH d AS (
  SELECT vec_id, unnest(embedding) AS x,
         generate_subscripts(embedding, 1) AS dim
  FROM embeddings
),
mm AS (SELECT dim, min(x) AS mn, max(x) AS mx FROM d GROUP BY 1),
q AS (
  SELECT d.vec_id, d.dim,
         CASE WHEN mx = mn THEN 0
              ELSE least(255, greatest(0, CAST(
                floor((x - mn) / (mx - mn) * 255.0 + 0.5) AS BIGINT)))
         END AS code
  FROM d JOIN mm USING (dim)
),
qq AS (SELECT dim, code AS qcode FROM q WHERE vec_id = 0)
SELECT q.vec_id, CAST(sum(q.code * qq.qcode) AS BIGINT) AS score
FROM q JOIN qq USING (dim)
WHERE q.vec_id <> 0
GROUP BY q.vec_id
ORDER BY score DESC, q.vec_id ASC
LIMIT 10
"""


def bigram_lm_docs(sf_dir: str) -> pd.DataFrame:
    """Top-50 bigram LM table (count + exact integer-ppm conditional
    probability) trained distributed: combiner counts, one left-word
    exchange, local context totals."""
    from ..functions.text import bigram_lm

    return bigram_lm(
        _t(sf_dir, "documents", ["text"], num_blocks=16), k=50
    )


BIGRAM_LM_SQL = """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
bg AS (
  SELECT ws[i] AS w1, ws[i + 1] AS w2
  FROM tok, unnest(generate_series(1, len(ws) - 1)) AS t(i)
),
bgc AS (SELECT w1, w2, count(*) AS cnt FROM bg GROUP BY 1, 2),
lc AS (SELECT w1, CAST(sum(cnt) AS BIGINT) AS left_cnt FROM bgc GROUP BY 1)
SELECT b.w1, b.w2, CAST(b.cnt AS BIGINT) AS cnt, l.left_cnt,
       CAST(b.cnt * 1000000 // l.left_cnt AS BIGINT) AS cond_ppm
FROM bgc b JOIN lc l USING (w1)
ORDER BY cnt DESC, w1 ASC, w2 ASC
LIMIT 50
"""


def lm_coverage_prune_docs(
    sf_dir: str, k: int = 50, min_bp: int = 500,
) -> pd.DataFrame:
    """LM-based quality filter, integer-exact: train the top-k bigram
    table distributed (bigram_lm — combiner counts, one left-word
    exchange), broadcast the k (w1, w2) pairs once, and keep docs whose
    bigram coverage — lm_hits * 10000 // n_bigrams, exact basis
    points — reaches min_bp. The CCNet/KenLM-style perplexity prune
    reshaped to integer arithmetic so both engines hash identically
    (a float log-prob would be at the mercy of libm rounding).
    Tokenization matches the trained LM exactly: single-space split,
    empty tokens kept. Two executions: the LM train and the streamed
    coverage scan (broadcast probe via one vectorized merge per batch,
    no exchange — at any corpus size the shipped state is k pairs)."""
    import ray as _ray

    from ..functions.text import bigram_lm

    lm = bigram_lm(_t(sf_dir, "documents", ["text"], num_blocks=16), k=k)
    top = _ray.put(lm[["w1", "w2"]].drop_duplicates())

    def cover(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        n_bi = np.empty(len(ids), dtype=np.int64)
        pairs: list[tuple[int, str, str]] = []
        for i, t in enumerate(batch["text"]):
            ws = t.split(" ")
            n_bi[i] = max(len(ws) - 1, 0)
            pairs.extend((ids[i], a, b) for a, b in zip(ws, ws[1:]))
        hits = np.zeros(len(ids), dtype=np.int64)
        if pairs:
            bg = pd.DataFrame(pairs, columns=["doc_id", "w1", "w2"])
            hit = (bg.merge(_ray.get(top), on=["w1", "w2"], how="inner")
                   .groupby("doc_id").size())
            idx = pd.Series(np.arange(len(ids)), index=ids)
            hits[idx[hit.index].to_numpy()] = hit.to_numpy()
        out = pd.DataFrame({
            "doc_id": ids, "n_bigrams": n_bi, "lm_hits": hits,
            "coverage_bp": hits * 10000 // np.maximum(n_bi, 1)})
        return out[out["coverage_bp"] >= min_bp]

    out = (
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16)
        .map_batches(cover, batch_format="pandas", batch_size=4096)
        .to_pandas()
    )
    if out.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "n_bigrams": pd.Series([], dtype="int64"),
            "lm_hits": pd.Series([], dtype="int64"),
            "coverage_bp": pd.Series([], dtype="int64")})
    return out.sort_values("doc_id").reset_index(drop=True)


LM_COVERAGE_SQL = """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
bg AS (
  SELECT doc_id, ws[i] AS w1, ws[i + 1] AS w2
  FROM tok, unnest(generate_series(1, len(ws) - 1)) AS t(i)
),
bgc AS (SELECT w1, w2, count(*) AS cnt FROM bg GROUP BY 1, 2),
top50 AS (SELECT w1, w2 FROM bgc ORDER BY cnt DESC, w1 ASC, w2 ASC LIMIT 50),
cov AS (
  SELECT bg.doc_id, count(*) AS n_bigrams, count(t5.w1) AS lm_hits
  FROM bg LEFT JOIN top50 t5 USING (w1, w2) GROUP BY 1
),
c2 AS (
  SELECT d.doc_id, coalesce(n_bigrams, 0) AS n_bigrams,
         coalesce(lm_hits, 0) AS lm_hits,
         CAST(coalesce(lm_hits, 0) * 10000
              // greatest(coalesce(n_bigrams, 0), 1) AS BIGINT)
           AS coverage_bp
  FROM documents d LEFT JOIN cov USING (doc_id)
)
SELECT doc_id, CAST(n_bigrams AS BIGINT) AS n_bigrams,
       CAST(lm_hits AS BIGINT) AS lm_hits, coverage_bp
FROM c2 WHERE coverage_bp >= 500 ORDER BY doc_id
"""


def ann_topk_cosine(sf_dir: str) -> pd.DataFrame:
    from ..functions.ann import brute_force_topk

    q = _query_vec(sf_dir)[None, :]
    out = brute_force_topk(_t(sf_dir, "embeddings"), q, k=10)
    out["query_id"] = out["query_id"].astype("int64")
    return _round(out, {"score": 4})


ANN_SQL = """
WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
SELECT CAST(0 AS BIGINT) AS query_id, vec_id,
       round(list_cosine_similarity(embedding::DOUBLE[], qe::DOUBLE[]), 4)
         AS score
FROM embeddings, q
ORDER BY list_cosine_similarity(embedding::DOUBLE[], qe::DOUBLE[]) DESC,
         vec_id ASC
LIMIT 10
"""


def ivf_ann_topk(sf_dir: str) -> pd.DataFrame:
    """IVF top-k probed at n_probe = n_lists (all cells): the coarse
    quantizer then prunes nothing, so the result is EXACT and the same
    all-pairs SQL oracle applies — a correctness check of the train/
    assign/score machinery; the recall of partial probing is pinned by
    tests/test_functions.py instead."""
    from ..functions.ann import ivf_topk

    q = _query_vec(sf_dir)[None, :]
    out = ivf_topk(_t(sf_dir, "embeddings"), q, k=10, n_lists=16,
                   n_probe=16)
    out["query_id"] = out["query_id"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return _round(out, {"score": 4})


def embedding_near_dup(sf_dir: str) -> pd.DataFrame:
    from ..functions.ann import cosine_near_dup_pairs

    ds = cosine_near_dup_pairs(_t(sf_dir, "embeddings"), threshold=0.4)
    out = ds.to_pandas()
    out["vec_a"] = out["vec_a"].astype("int64")
    out["vec_b"] = out["vec_b"].astype("int64")
    return _round(out, {"cosine": 4})


EMB_NEAR_DUP_SQL = """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(a.embedding::DOUBLE[],
                                    b.embedding::DOUBLE[]), 4) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])
      >= 0.4
"""


def embedding_near_dup_lsh(sf_dir: str) -> pd.DataFrame:
    """The bucketed (hyperplane-band) near-dup path, checked against the
    SAME exact all-pairs oracle — band count chosen so the deterministic
    seed achieves full recall on this data even at the wide 0.4 angle
    (at production thresholds ~0.9 far fewer bands suffice)."""
    from ..functions.ann import cosine_near_dup_pairs_lsh

    ds = cosine_near_dup_pairs_lsh(
        _t(sf_dir, "embeddings"), threshold=0.4, n_planes=2, n_bands=24
    )
    out = ds.to_pandas()
    out["vec_a"] = out["vec_a"].astype("int64")
    out["vec_b"] = out["vec_b"].astype("int64")
    return _round(out, {"cosine": 4})


def embedding_dedup_keep_first(sf_dir: str) -> pd.DataFrame:
    from ..functions.ann import cosine_dedup_keep_first

    ds = cosine_dedup_keep_first(_t(sf_dir, "embeddings"), threshold=0.4)
    out = ds.select_columns(["vec_id"]).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    return out


# keep-first over cosine near-dup components: transitive closure of the
# exact >=0.4-cosine pair graph (recursive CTE), keep each component's
# min vec_id — the embedding analog of KEEP_FIRST_SQL
EMB_KEEP_FIRST_SQL = """
WITH RECURSIVE dup_pairs AS (
  SELECT a.vec_id AS u, b.vec_id AS v
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                               b.embedding::DOUBLE[]) >= 0.4
),
edges AS (
  SELECT u, v FROM dup_pairs UNION SELECT v, u FROM dup_pairs
),
reach(a, b) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, r.b FROM edges e JOIN reach r ON e.v = r.a
),
label AS (SELECT a AS vec_id, min(b) AS root FROM reach GROUP BY a)
SELECT e.vec_id
FROM embeddings e LEFT JOIN label l ON e.vec_id = l.vec_id
WHERE l.root IS NULL OR l.root = e.vec_id
"""


def kmeans_embeddings(sf_dir: str) -> pd.DataFrame:
    """Distributed Lloyd's k-means over the full embedding corpus —
    3 assignment passes, k=8, seeds = the 8 smallest vec_ids. Integer
    per-cluster stats of the final assignment; the oracle unrolls the
    identical iterations in SQL (cross-join argmin with the same
    lowest-cluster tie-break, unnest-zip element-wise means,
    carry-forward for empty clusters)."""
    from ..functions.ann import kmeans_embeddings as _km

    out = _km(_t(sf_dir, "embeddings"), k=8, iters=3)
    out["cluster"] = out["cluster"].astype("int64")
    out["n_vecs"] = out["n_vecs"].astype("int64")
    out["sum_vec_id"] = out["sum_vec_id"].astype("int64")
    return out


# one a_t/c_t CTE pair per Lloyd iteration; distances/means in DOUBLE on
# both engines, hashed output is integer-only so float summation order
# cannot flip the hash (the sessionize lesson). The CTE chain through
# the final assignment a3 is shared with SEMDEDUP_SQL so the two
# oracles restate the SAME clustering.
_KMEANS_A3_CTES = """
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS x FROM embeddings),
c0 AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster, x AS c
  FROM e ORDER BY vec_id LIMIT 8
),
a1 AS (
  SELECT vec_id, x, cluster FROM (
    SELECT e.vec_id, e.x, c.cluster,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_distance(e.x, c.c), c.cluster) AS rn
    FROM e CROSS JOIN c0 c) WHERE rn = 1
),
c1 AS (
  SELECT cluster, list(a ORDER BY dim) AS c FROM (
    SELECT cluster, dim, avg(v) AS a FROM (
      SELECT cluster, unnest(x) AS v,
             unnest(range(1, len(x) + 1)) AS dim FROM a1
    ) GROUP BY cluster, dim
  ) GROUP BY cluster
),
c1f AS (
  SELECT c0.cluster, coalesce(c1.c, c0.c) AS c
  FROM c0 LEFT JOIN c1 USING (cluster)
),
a2 AS (
  SELECT vec_id, x, cluster FROM (
    SELECT p.vec_id, p.x, c.cluster,
           row_number() OVER (PARTITION BY p.vec_id
             ORDER BY list_distance(p.x, c.c), c.cluster) AS rn
    FROM a1 p CROSS JOIN c1f c) WHERE rn = 1
),
c2 AS (
  SELECT cluster, list(a ORDER BY dim) AS c FROM (
    SELECT cluster, dim, avg(v) AS a FROM (
      SELECT cluster, unnest(x) AS v,
             unnest(range(1, len(x) + 1)) AS dim FROM a2
    ) GROUP BY cluster, dim
  ) GROUP BY cluster
),
c2f AS (
  SELECT c1f.cluster, coalesce(c2.c, c1f.c) AS c
  FROM c1f LEFT JOIN c2 USING (cluster)
),
a3 AS (
  SELECT vec_id, x, cluster FROM (
    SELECT p.vec_id, p.x, c.cluster,
           row_number() OVER (PARTITION BY p.vec_id
             ORDER BY list_distance(p.x, c.c), c.cluster) AS rn
    FROM a2 p CROSS JOIN c2f c) WHERE rn = 1
)
"""

KMEANS_SQL = _KMEANS_A3_CTES + """
SELECT cluster, count(*) AS n_vecs,
       CAST(sum(vec_id) AS BIGINT) AS sum_vec_id
FROM a3 GROUP BY cluster ORDER BY cluster
"""


def semantic_dedup_embeddings(sf_dir: str) -> pd.DataFrame:
    """SemDeDup-style semantic dedup: k-means-cluster the embedding
    corpus (identical deterministic spec as kmeans_embeddings), then
    within each cluster drop every vector with an earlier (lower
    vec_id) member at cosine >= 0.4. Clustering bounds the pairwise
    cost to O(sum n_c^2) and each cluster task reads only its routed
    shards — the SemDeDup scale shape (arXiv 2303.09540)."""
    from ..functions.ann import semantic_dedup_keep_first

    out = semantic_dedup_keep_first(
        _t(sf_dir, "embeddings"), k=8, iters=3, threshold=0.4
    )
    out["vec_id"] = out["vec_id"].astype("int64")
    return out


# the NOT EXISTS restates keep-first exactly: a vector dies if ANY
# earlier same-cluster member (kept or not) is >= the threshold — no
# transitive closure, unlike EMB_KEEP_FIRST_SQL
SEMDEDUP_SQL = _KMEANS_A3_CTES + """
SELECT a.vec_id FROM a3 a
WHERE NOT EXISTS (
  SELECT 1 FROM a3 b
  WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id
    AND list_cosine_similarity(a.x, b.x) >= 0.4
)
ORDER BY vec_id
"""


def pca_power_iter_embeddings(sf_dir: str) -> pd.DataFrame:
    """Distributed top-PC fit (power iteration, 4 passes) over the full
    embedding corpus — covariance never materialized; each pass is two
    tall matmuls per cached block + an O(d) driver combine (see
    functions/ann.py for the scale analysis). Integer per-label stats
    of the final projection signs; the oracle unrolls the IDENTICAL
    iterations in SQL (same float64 widening, same seed = centered
    min-vec_id embedding, same L2 normalization per pass).

    Oracle scope (same hazard class as the k-means knife-edge note):
    two degenerate corpora are engine-only fallbacks the unrolled SQL
    does not mirror — a seed embedding exactly equal to the mean (the
    engine falls back to e_0; the SQL's v0 divides by sqrt(0) -> NULL)
    and a zero-variance corpus (the engine breaks early keeping v; the
    unrolled CTE chain cannot express 'stop here'). Both require every
    centered value involved to be exactly 0.0 in float64, which no
    generated fixture produces; if a future corpus hits one, the red
    row is this documented divergence, not an engine bug."""
    from ..functions.ann import pca_power_iter_embeddings as _pca

    return _pca(_t(sf_dir, "embeddings"), iters=4)


def _pca_sql(iters: int = 4) -> str:
    """Unrolled power-iteration oracle: one (t_k, w_k, v_k) CTE triple
    per pass — generated by a loop so the SQL can never drift from the
    engine's iteration count."""
    parts = [
        """
WITH e AS (SELECT vec_id, label, embedding::DOUBLE[] AS x FROM embeddings),
d AS (
  SELECT vec_id, label, unnest(x) AS v,
         unnest(range(1, len(x) + 1)) AS j
  FROM e
),
mu AS (SELECT j, avg(v) AS m FROM d GROUP BY j),
c AS (SELECT d.vec_id, d.label, d.j, d.v - mu.m AS v
      FROM d JOIN mu USING (j)),
s0 AS (SELECT j, v FROM c WHERE vec_id = (SELECT min(vec_id) FROM e)),
v0 AS (SELECT j, v / sqrt((SELECT sum(v * v) FROM s0)) AS v FROM s0)"""
    ]
    for k in range(1, iters + 1):
        parts.append(f""",
t{k} AS (SELECT c.vec_id, sum(c.v * v{k - 1}.v) AS t
       FROM c JOIN v{k - 1} USING (j) GROUP BY c.vec_id),
w{k} AS (SELECT c.j, sum(c.v * t{k}.t) AS w
       FROM c JOIN t{k} USING (vec_id) GROUP BY c.j),
v{k} AS (SELECT j, w / sqrt((SELECT sum(w * w) FROM w{k})) AS v FROM w{k})"""
        )
    parts.append(f""",
tf AS (SELECT c.vec_id, any_value(c.label) AS label,
              sum(c.v * v{iters}.v) AS t
       FROM c JOIN v{iters} USING (j) GROUP BY c.vec_id)
SELECT CAST(label AS BIGINT) AS label,
       CAST(count(*) FILTER (WHERE t > 0) AS BIGINT) AS n_pos,
       CAST(count(*) FILTER (WHERE t <= 0) AS BIGINT) AS n_nonpos,
       CAST(coalesce(sum(vec_id) FILTER (WHERE t > 0), 0) AS BIGINT)
         AS sum_vec_id_pos
FROM tf GROUP BY label ORDER BY label
""")
    return "".join(parts)


PCA_SQL = _pca_sql(4)


def lsh_ann_topk(sf_dir: str) -> pd.DataFrame:
    from ..functions.ann import lsh_topk

    q = _query_vec(sf_dir)[None, :]
    out = lsh_topk(_t(sf_dir, "embeddings"), q, k=10)
    out["query_id"] = out["query_id"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return _round(out, {"score": 4})


#: pinned-fixture oracle (per-scale, tag-gated like SIMHASH_SQL):
#: single-probe LSH top-k recomputed from first principles in
#: tools/gen_fixtures.py (plain numpy, no Ray)
LSH_TOPK_SQL = f"""
WITH t AS (
  SELECT md5(embedding::VARCHAR) AS tag FROM embeddings WHERE vec_id = 0
)
SELECT f.query_id, f.vec_id, f.score
FROM read_parquet('{_FIXTURE_DIR}/lsh_topk_*.parquet') f, t
WHERE f.tag = t.tag
"""


def _rank_orders(orders: pd.DataFrame) -> pd.DataFrame:
    """ONE stable sort by date serves both needs: per-key dates are then
    ascending (cumcount ranks correctly) and merge_asof's global on-key
    order holds."""
    od = orders.sort_values("o_orderdate", kind="stable").reset_index(
        drop=True
    )
    od["rank"] = od.groupby("o_custkey").cumcount() + 1
    return od


def _count30_kernel(batch: pd.DataFrame, od_: pd.DataFrame) -> pd.DataFrame:
    """count = rank_at(ts) - rank_at(ts - 30d - 1us): two vectorized
    as-of lookups against a ranked orders frame."""

    def rank_at(ts_col: pd.Series) -> pd.Series:
        probe = pd.DataFrame(
            {"event_id": batch["event_id"], "user_id": batch["user_id"],
             "_ts": ts_col.astype("datetime64[ns]")}
        ).sort_values("_ts", kind="stable")
        m = pd.merge_asof(
            probe, od_, left_on="_ts", right_on="o_orderdate",
            left_by="user_id", right_by="o_custkey",
            direction="backward",
        )
        return pd.Series(
            m["rank"].fillna(0).to_numpy(),
            index=m["event_id"].to_numpy(),
        )

    hi = rank_at(batch["ts"])
    lo = rank_at(
        batch["ts"] - pd.Timedelta(days=30) - pd.Timedelta(microseconds=1)
    )
    ids = batch["event_id"].to_numpy()
    n = (hi.loc[ids].to_numpy() - lo.loc[ids].to_numpy()).astype(np.int64)
    return pd.DataFrame({"event_id": ids, "n_orders_30d": n})


def range_join_orders(
    sf_dir: str, strategy: str = "auto", broadcast_limit: int = 2_000_000
) -> pd.DataFrame:
    """Range join: for each event, COUNT the user's orders in the
    trailing 30-day window [ts - 30d, ts].

    Expressed as TWO as-of joins over per-key cumulative order ranks:
    count = rank_at(ts) - rank_at(ts - 30d - 1us). Size-based strategy
    selection like asof_latest_order: a small orders side (by parquet
    metadata) is ranked once and broadcast; past broadcast_limit both
    sides co-partition on key % P and the identical two-as-of
    composition runs per partition (SURVEY §2 custom-operator rule a) —
    no broadcast, no driver materialization. Both paths pinned equal by
    pytest."""
    if strategy == "auto":
        meta_rows = pq.ParquetFile(
            os.path.join(sf_dir, "orders.parquet")
        ).metadata.num_rows
        strategy = (
            "broadcast" if meta_rows <= broadcast_limit else "copartition"
        )
    if strategy == "broadcast":
        orders = pq.read_table(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderdate"],
        ).to_pandas()
        # ns units on both sides: merge_asof requires identical datetime
        # dtypes (events' ts arrives as datetime64[us] from Arrow)
        orders["o_orderdate"] = pd.to_datetime(
            orders["o_orderdate"]
        ).astype("datetime64[ns]")
        o_ref = ray.put(_rank_orders(orders))

        def count30(batch: pd.DataFrame) -> pd.DataFrame:
            return _count30_kernel(batch, ray.get(o_ref))

        return (
            _t(sf_dir, "events", ["event_id", "user_id", "ts"])
            .map_batches(count30, batch_format="pandas")
            .to_pandas()
        )

    num_parts = _parts_for(sf_dir, "events")

    def route_events(batch: pd.DataFrame) -> pd.DataFrame:
        key = batch["user_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "_part": key % num_parts,
                "_tag": np.zeros(len(batch), dtype=np.int8),
                "key": key,
                "ts": batch["ts"].astype("datetime64[ns]"),
                "event_id": batch["event_id"].to_numpy(np.int64),
            }
        )

    def route_orders(batch: pd.DataFrame) -> pd.DataFrame:
        key = batch["o_custkey"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "_part": key % num_parts,
                "_tag": np.ones(len(batch), dtype=np.int8),
                "key": key,
                "ts": pd.to_datetime(
                    batch["o_orderdate"]
                ).astype("datetime64[ns]"),
                "event_id": np.full(len(batch), -1, dtype=np.int64),
            }
        )

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["_tag"] == 0]
        e = pd.DataFrame(
            {"event_id": e["event_id"].to_numpy(np.int64),
             "user_id": e["key"].to_numpy(np.int64),
             "ts": e["ts"]}
        )
        o = g[g["_tag"] == 1]
        od_ = _rank_orders(
            pd.DataFrame(
                {"o_custkey": o["key"].to_numpy(np.int64),
                 "o_orderdate": o["ts"]}
            )
        )
        return _count30_kernel(e, od_)

    ev = _t(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        route_events, batch_format="pandas"
    )
    od = _t(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        route_orders, batch_format="pandas"
    )
    return (
        ev.union(od)
        .sort("_part")
        .map_batches(per_group(count_part, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )


RANGE_JOIN_SQL = """
SELECT e.event_id, count(o.o_orderkey) AS n_orders_30d
FROM events e
LEFT JOIN orders o
  ON o.o_custkey = e.user_id
 AND o.o_orderdate::TIMESTAMP
     BETWEEN e.ts - INTERVAL 30 DAY AND e.ts
GROUP BY e.event_id
"""


# --- windowed aggregate -----------------------------------------------------


def user_hourly_activity(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1h window per user: per-batch partial aggregation (the
    combiner) then a grouped sum over the partials — a bare multi-key
    groupby.aggregate over the raw rows shuffles everything and measured
    ~20x slower on this shape."""

    num_parts = _parts_for(sf_dir, "events")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch["hour"] = batch["ts"].dt.strftime("%Y-%m-%d %H")
        # integer cents: the final sum is order-insensitive across engines
        # (same floor(x*100+0.5) on the SQL side)
        batch["value_c"] = np.floor(
            batch["value"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        agg = (
            batch.groupby(["user_id", "hour"])
            .agg(n=("value_c", "size"), s=("value_c", "sum"))
            .reset_index()
        )
        # partials shuffle on a fused int partition of (user, hour) and
        # combine in tasks — (user, hour) cardinality grows with data, so
        # a driver-side combine would eventually materialize a large frame
        h = pd.util.hash_pandas_object(
            agg[["user_id", "hour"]], index=False
        )
        agg["_part"] = (h.to_numpy() % num_parts).astype(np.int64)
        return agg

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["user_id", "hour"], as_index=False).agg(
            n_events=("n", "sum"), sum_value=("s", "sum")
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["sum_value"] = out["sum_value"] / 100.0
        return out

    return (
        _t(sf_dir, "events", ["user_id", "ts", "value"])
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(combine, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )


HOURLY_SQL = """
SELECT user_id, strftime(ts, '%Y-%m-%d %H') AS hour,
       count(*) AS n_events,
       sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_value
FROM events GROUP BY 1, 2
"""


def hourly_event_spikes(sf_dir: str, window: int = 24) -> pd.DataFrame:
    """Hourly traffic-spike detector: each hour's event count scored
    against the mean of the previous `window` OBSERVED hours, in exact
    basis points — the distributed analog of the reference's windowed
    rate gauges (src/service/sync_service.go metrics window; here the
    window is event-time, not wall-clock). excess_bp = 10000 means
    exactly the trailing average; 20000 = a 2x spike.

    Scale shape: the heavy part is ONE combiner pass (per-batch hour
    counts) + `tree_sum_by_key` — no all-to-all exchange, driver
    traffic O(hours x combine-fanin). The hour series itself grows with
    TIME RANGE only (~9k rows/year at any volume), so the trailing
    window runs driver-side on integers: excess_bp =
    cnt * window * 10000 // trail — floor division, hash-exact vs the
    SQL window frame. Hours with fewer than `window` preceding observed
    hours are excluded (stated identically via nprev = window in the
    oracle's ROWS frame)."""
    from ..functions.agg import tree_sum_by_key

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["ts"].dt.strftime("%Y-%m-%d %H").value_counts()
        return pd.DataFrame(
            {"hour": vc.index.to_numpy(dtype=object),
             "cnt": vc.to_numpy(dtype=np.int64)}
        )

    hours = tree_sum_by_key(
        _t(sf_dir, "events", ["ts"]).map_batches(
            partial, batch_format="pandas", batch_size=65536
        ),
        ["hour"],
    )
    _empty = pd.DataFrame(
        {"hour": pd.Series([], dtype="object"),
         "cnt": pd.Series([], dtype="int64"),
         "trail": pd.Series([], dtype="int64"),
         "excess_bp": pd.Series([], dtype="int64")}
    )
    if len(hours) <= window:
        return _empty
    hours = hours.sort_values("hour").reset_index(drop=True)
    c = hours["cnt"].to_numpy(np.int64)
    cs = np.concatenate([[0], np.cumsum(c)])
    idx = np.arange(window, c.size)
    trail = cs[idx] - cs[idx - window]  # previous `window` observed hours
    cnt = c[idx]
    return pd.DataFrame(
        {
            "hour": hours["hour"].to_numpy(dtype=object)[idx],
            "cnt": cnt,
            "trail": trail.astype(np.int64),
            "excess_bp": (cnt * window * 10000 // trail).astype(
                np.int64
            ),
        }
    )


HOURLY_SPIKES_SQL = """
WITH h AS (
  SELECT strftime(ts, '%Y-%m-%d %H') AS hour, count(*) AS cnt
  FROM events GROUP BY 1
),
w AS (
  SELECT hour, cnt,
         sum(cnt) OVER (ORDER BY hour
           ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING) AS trail,
         count(*) OVER (ORDER BY hour
           ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING) AS nprev
  FROM h
)
SELECT hour, cnt, CAST(trail AS BIGINT) AS trail,
       CAST(cnt * 24 * 10000 // CAST(trail AS BIGINT) AS BIGINT)
         AS excess_bp
FROM w WHERE nprev = 24 ORDER BY hour
"""


def sliding_window_stats(sf_dir: str) -> pd.DataFrame:
    """SLIDING (overlapping) event-time windows: 30-min windows sliding
    by 10 min, so every event lands in EXACTLY 3 windows — the streaming
    windowed-aggregate shape (tumbling is user_hourly_activity above).

    The fan-out is done by arithmetic, not a join: per batch, the
    slide-aligned base window floor(ts/slide)*slide is computed
    vectorized and the 3 member windows are base - {0,1,2}*slide (an
    event at t belongs to starts s with t-size < s <= t, slide-aligned —
    with size = 3*slide that is always exactly 3). Partials pre-aggregate
    per window inside the batch (integer-cents sums, order-insensitive),
    then one exchange on window-hash %% num_parts — never one Ray group
    per window, and the raw 3x row inflation exists only inside a task.
    Window count grows with TIME RANGE only, not event volume, so the
    final result is small at any scale."""

    slide_s, n_in = 600, 3  # 10-min slide, 30-min window = 3 slides
    num_parts = 16

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        secs = (
            batch["ts"].astype("datetime64[ns]").astype("int64")
            // 1_000_000_000
        )
        base = (secs // slide_s * slide_s).to_numpy(np.int64)
        value_c = np.floor(
            batch["value"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        ws = np.concatenate(
            [base - i * slide_s for i in range(n_in)]
        )
        agg = (
            pd.DataFrame({"ws": ws, "v": np.tile(value_c, n_in)})
            .groupby("ws")
            .agg(n=("v", "size"), s=("v", "sum"))
            .reset_index()
        )
        agg["_part"] = (agg["ws"] // slide_s % num_parts).astype(np.int64)
        return agg

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("ws", as_index=False).agg(
            n_events=("n", "sum"), sum_value=("s", "sum")
        )
        win = pd.to_datetime(out["ws"], unit="s")
        return pd.DataFrame(
            {
                "window_start": win.dt.strftime("%Y-%m-%d %H:%M"),
                "n_events": out["n_events"].astype("int64"),
                "sum_value": out["sum_value"] / 100.0,
            }
        )

    return (
        _t(sf_dir, "events", ["ts", "value"])
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(combine, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )


# the same exactly-3-windows fan-out stated relationally; epoch_us keeps
# the floor division exact-integer on both sides
SLIDING_SQL = """
WITH w AS (
  SELECT (epoch_us(ts) // 600000000) * 600 - i.i * 600 AS ws,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
  FROM events CROSS JOIN (VALUES (0), (1), (2)) i(i)
)
SELECT strftime(make_timestamp(ws * 1000000), '%Y-%m-%d %H:%M')
         AS window_start,
       count(*) AS n_events,
       sum(value_c) / 100.0 AS sum_value
FROM w GROUP BY 1
"""


#: pivot column set — pinned (a data-driven column set would make the
#: result schema depend on which types appear, breaking schema compare)
_PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def daily_type_pivot(sf_dir: str) -> pd.DataFrame:
    """Reshape: long event rows -> one row per day with per-type count
    columns (conditional aggregation). Per-batch (day, type) count
    combiners, one tiny exchange on day-hash, pivot inside the final
    group task — the wide result never exists as long rows again."""
    num_parts = 16

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = batch["ts"].dt.strftime("%Y-%m-%d")
        agg = (
            pd.DataFrame({"day": day, "event_type": batch["event_type"]})
            .groupby(["day", "event_type"], sort=False)
            .size().rename("cnt").reset_index()
        )
        agg["cnt"] = agg["cnt"].astype("int64")
        h = pd.util.hash_pandas_object(agg["day"], index=False)
        agg["_part"] = (h.to_numpy() % num_parts).astype(np.int64)
        return agg

    def pivot(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby(["day", "event_type"])["cnt"].sum().unstack(
                fill_value=0
            )
        )
        out = pd.DataFrame({"day": s.index})
        for t in _PIVOT_TYPES:
            out[f"n_{t}"] = (
                s[t].to_numpy() if t in s.columns
                else np.zeros(len(s), dtype=np.int64)
            ).astype(np.int64)
        return out

    return (
        _t(sf_dir, "events", ["ts", "event_type"])
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(pivot, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )


PIVOT_SQL = """
SELECT strftime(ts, '%Y-%m-%d') AS day,
       count(*) FILTER (WHERE event_type = 'click')    AS n_click,
       count(*) FILTER (WHERE event_type = 'error')    AS n_error,
       count(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
       count(*) FILTER (WHERE event_type = 'signup')   AS n_signup,
       count(*) FILTER (WHERE event_type = 'view')     AS n_view
FROM events GROUP BY 1
"""


def event_value_percentiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-type value percentiles via distributed histogram merge —
    never materializes a group's raw values in one task (see
    functions/agg.py for the scale argument)."""
    from ..functions.agg import grouped_exact_percentiles

    out = grouped_exact_percentiles(
        _t(sf_dir, "events", ["event_type", "value"]),
        key="event_type", value="value", percents=(50, 90, 99),
    ).to_pandas()
    for c in ("n", "p50_cents", "p90_cents", "p99_cents"):
        out[c] = out[c].astype("int64")
    return out


# rank semantics stated explicitly (1-indexed ceil(P*n/100) via integer
# arithmetic) instead of quantile_disc, whose edge conventions and
# decimal-vs-double ceil could silently differ from the engine's
PERCENTILES_SQL = """
WITH c AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
r AS (
  SELECT event_type, cents,
         row_number() OVER (PARTITION BY event_type ORDER BY cents) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM c
)
SELECT event_type, max(n) AS n,
  max(CASE WHEN rn = GREATEST(1, (50 * n + 99) // 100)
      THEN cents END) AS p50_cents,
  max(CASE WHEN rn = GREATEST(1, (90 * n + 99) // 100)
      THEN cents END) AS p90_cents,
  max(CASE WHEN rn = GREATEST(1, (99 * n + 99) // 100)
      THEN cents END) AS p99_cents
FROM r GROUP BY event_type
"""


def doc_length_percentiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-source document-length profile (p50/p90/p99 of
    n_chars) — the corpus-intake gauge run before admitting a new crawl
    source (a source whose p99 collapses usually changed its extractor).
    Same distributed histogram-merge as event_value_percentiles: counts
    per (source, length) are the combiner output, so no task ever holds
    a source's raw lengths; n_chars is already an integer, so the
    cents quantization (x100) is lossless and the rank walk is exact."""
    from ..functions.agg import grouped_exact_percentiles

    out = grouped_exact_percentiles(
        _t(sf_dir, "documents", ["source", "n_chars"], num_blocks=8),
        key="source", value="n_chars", percents=(50, 90, 99),
    ).to_pandas()
    for c in ("n", "p50_cents", "p90_cents", "p99_cents"):
        out[c] = out[c].astype("int64")
    return out


DOC_LENGTH_PCT_SQL = """
WITH c AS (
  SELECT source,
         CAST(floor(n_chars * 100 + 0.5) AS BIGINT) AS cents
  FROM documents
),
r AS (
  SELECT source, cents,
         row_number() OVER (PARTITION BY source ORDER BY cents) AS rn,
         count(*) OVER (PARTITION BY source) AS n
  FROM c
)
SELECT source, max(n) AS n,
  max(CASE WHEN rn = GREATEST(1, (50 * n + 99) // 100)
      THEN cents END) AS p50_cents,
  max(CASE WHEN rn = GREATEST(1, (90 * n + 99) // 100)
      THEN cents END) AS p90_cents,
  max(CASE WHEN rn = GREATEST(1, (99 * n + 99) // 100)
      THEN cents END) AS p99_cents
FROM r GROUP BY source
"""


# --- the engine itself as a query (rows-only check) -------------------------


#: process-lifetime cache for the ONE pinned CDC fixture lake. All five
#: cdc_* fixture queries replay the identical spec and only READ the
#: result (the two view queries write view-state sidecars under
#: <lake>/views, never deltas/checkpoints), so one build serves them
#: all — measured, the build was 96% of cdc_epoch_diff's warm cost.
_CDC_FIXTURE_LAKE: dict[str, object] = {}
_CDC_FIXTURE_LOCK = threading.Lock()


def _build_cdc_fixture_lake(prefix: str):
    """Replay the ONE pinned CDC fixture spec (the same constants
    _cdc_replay_tag hashes and tools/gen_fixtures.py folds sequentially)
    into a lake — the shared builder every cdc_* fixture query uses, so
    the lake builders can never diverge from each other or from the
    oracle spec. The lake is built ONCE per process and shared
    read-only; callers must NOT mutate or remove it (it is reclaimed at
    process exit)."""
    with _CDC_FIXTURE_LOCK:
        if "cfg" in _CDC_FIXTURE_LAKE:
            return _CDC_FIXTURE_LAKE["cfg"], _CDC_FIXTURE_LAKE["work"]

        from ..datamodel import (
            StreamSpec,
            gen_base_table,
            gen_change_stream,
            write_event_log,
        )
        from .replay import ReplayJob

        n_docs = 500
        spec = StreamSpec(n_events=5000, n_docs=n_docs, n_epochs=3, seed=42,
                          evolve_from_epoch=2)
        base = gen_base_table(n_docs, seed=42)
        work = tempfile.mkdtemp(prefix="cdc_fixture_")
        ev_root = os.path.join(work, "events")
        write_event_log(ev_root, gen_change_stream(spec))
        cfg = SyncConfig(
            lake_root=os.path.join(work, "lake"), num_partitions=16
        )
        job = ReplayJob(cfg)
        job.bootstrap(base)
        job.replay(ev_root)
        atexit.register(shutil.rmtree, work, ignore_errors=True)
        _CDC_FIXTURE_LAKE["cfg"], _CDC_FIXTURE_LAKE["work"] = cfg, work
        return cfg, work


def cdc_replay_lake(sf_dir: str) -> pa.Table:
    """Full CDC engine end-to-end on a seeded fixture sized from sf_dir:
    bootstrap + replay + merge-on-read fold. Deterministic; the pytest
    suite pins it against the sequential oracle."""
    from ..state.lake import Lake

    cfg, work = _build_cdc_fixture_lake("cdc_replay_")
    out = Lake(cfg.lake_root).read_all()
    # token arrays don't hash portably through every converter; project the
    # verifiable scalar shape (tokens equality is pinned by pytest) and
    # cast to the canonical fixture schema
    out = out.select(["doc_id", "n_tok", "source", "log_pos"]).cast(
        pa.schema(
            [("doc_id", pa.string()), ("n_tok", pa.int64()),
             ("source", pa.string()), ("log_pos", pa.int64())]
        )
    )
    return out


#: the fixture spec's hash — recomputed here from the SAME constants the
#: query uses, so editing the spec without rerunning gen_fixtures.py
#: turns this oracle red instead of silently passing a stale fixture
def _cdc_replay_tag() -> str:
    import hashlib as _hl

    from ..datamodel import StreamSpec as _SS

    spec = _SS(n_events=5000, n_docs=500, n_epochs=3, seed=42,
               evolve_from_epoch=2)
    return _hl.md5(repr(spec).encode()).hexdigest()


# pinned-fixture oracle: expected final lake state computed by the
# SEQUENTIAL replay_oracle reference (tools/gen_fixtures.py) — converts
# the engine's end-to-end query from rows-only to a full hash check
CDC_REPLAY_SQL = f"""
SELECT doc_id, n_tok, source, log_pos
FROM read_parquet('{_FIXTURE_DIR}/cdc_replay_*.parquet')
WHERE tag = '{_cdc_replay_tag()}'
"""


#: inclusive doc_id bounds for the range-read query — zero-padded ids
#: make lexicographic order numeric order, so Arrow and DuckDB string
#: comparisons agree byte for byte
_RANGE_LO, _RANGE_HI = "doc00000100", "doc00000299"


def cdc_lake_range_read(sf_dir: str) -> pa.Table:
    """Zone-map range read of the replayed lake: build the same pinned
    CDC fixture lake as cdc_replay_lake, then read ONLY the key band
    [_RANGE_LO, _RANGE_HI] via the distributed read_lake(key_range=...)
    path — per-partition fold tasks skip fragments whose per-file key
    min/max (recorded at commit) cannot intersect the band, and filter
    the folded rows to it. Hash-checked against the sequential-oracle
    fixture filtered by the same bounds."""
    from .replay import read_lake

    cfg, work = _build_cdc_fixture_lake("cdc_range_")
    out = (
        read_lake(cfg.lake_root, key_range=(_RANGE_LO, _RANGE_HI))
        .select_columns(["doc_id", "n_tok", "source", "log_pos"])
        .to_pandas()
    )
    return pa.Table.from_pandas(out, preserve_index=False).cast(
        pa.schema(
            [("doc_id", pa.string()), ("n_tok", pa.int64()),
             ("source", pa.string()), ("log_pos", pa.int64())]
        )
    )


CDC_RANGE_SQL = f"""
SELECT doc_id, n_tok, source, log_pos
FROM read_parquet('{_FIXTURE_DIR}/cdc_replay_*.parquet')
WHERE tag = '{_cdc_replay_tag()}'
  AND doc_id BETWEEN '{_RANGE_LO}' AND '{_RANGE_HI}'
"""


_ZORDER_LAKE: dict[str, str] = {}
_ZORDER_LOCK = threading.Lock()
_ZED_NTOK = (30, 60)
_ZED_LOGPOS_LO = 2500


def _build_zorder_fixture_lake() -> str:
    """A z-ordered COPY of the pinned CDC fixture lake (the shared one
    is read-only by contract): CONFIG gains stats_columns=(n_tok,
    log_pos), then every partition compacts with
    zorder_by=["n_tok", "log_pos"] into 8-row base chunks — the
    OPTIMIZE ZORDER BY flow, memoized once per process like the
    fixture itself."""
    with _ZORDER_LOCK:
        if "root" in _ZORDER_LAKE:
            return _ZORDER_LAKE["root"]
        from ..state.lake import Lake as _Lake

        cfg, _work = _build_cdc_fixture_lake("cdc_zorder_")
        dst = tempfile.mkdtemp(prefix="cdc_zorder_")
        root = os.path.join(dst, "lake")
        shutil.copytree(cfg.lake_root, root)
        zcfg = SyncConfig(
            lake_root=root, num_partitions=16,
            stats_columns=("n_tok", "log_pos"),
        )
        lake = _Lake.create(zcfg)  # stats_columns is hot-swappable
        for p in lake.partitions():
            lake.compact_partition(
                p, zorder_by=["n_tok", "log_pos"], max_rows_per_file=8
            )
        atexit.register(shutil.rmtree, dst, ignore_errors=True)
        _ZORDER_LAKE["root"] = root
        return root


def cdc_lake_zorder_read(sf_dir: str) -> pa.Table:
    """Secondary-zone-map read of the Z-ORDERED lake: compact the
    pinned CDC fixture lake with zorder_by=["n_tok", "log_pos"] (multi-
    file base chunks + per-chunk secondary min/max recorded in the same
    atomic checkpoint), then read only the 2-D box n_tok in [30, 60]
    AND log_pos >= 2500 via read_lake(where=...) — each fold task skips
    base chunks whose secondary zone maps cannot intersect
    (Lake.files_for_predicate; sound because the checkpoint is all-base
    after compaction) and row-filters the fold to the box. Pruning
    efficacy is pinned by tests/test_zorder.py; THIS query hash-checks
    that the pruned read equals the sequential-oracle fixture filtered
    by the same predicate."""
    from .replay import read_lake

    root = _build_zorder_fixture_lake()
    out = (
        read_lake(
            root,
            where={
                "n_tok": _ZED_NTOK,
                "log_pos": (_ZED_LOGPOS_LO, None),
            },
        )
        .select_columns(["doc_id", "n_tok", "source", "log_pos"])
        .to_pandas()
    )
    out = out.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False).cast(
        pa.schema(
            [("doc_id", pa.string()), ("n_tok", pa.int64()),
             ("source", pa.string()), ("log_pos", pa.int64())]
        )
    )


CDC_ZORDER_SQL = f"""
SELECT doc_id, n_tok, source, log_pos
FROM read_parquet('{_FIXTURE_DIR}/cdc_replay_*.parquet')
WHERE tag = '{_cdc_replay_tag()}'
  AND n_tok BETWEEN {_ZED_NTOK[0]} AND {_ZED_NTOK[1]}
  AND log_pos >= {_ZED_LOGPOS_LO}
ORDER BY doc_id
"""


_VACUUM_LAKE: dict[str, str] = {}
_VACUUM_LOCK = threading.Lock()


def _build_vacuum_fixture_lake() -> str:
    """The pinned CDC fixture spec replayed EPOCH BY EPOCH (tail mode:
    one delta per epoch per partition — the catch-up span commit the
    shared fixture lake uses would straddle any vacuum horizon and fold
    nothing, by design), then vacuum(retain_epochs=1): bootstrap +
    epochs 0..1 fold into per-partition bases, epoch 2's deltas stay
    live. Memoized once per process like the fixture itself."""
    with _VACUUM_LOCK:
        if "root" in _VACUUM_LAKE:
            return _VACUUM_LAKE["root"]
        from ..datamodel import (
            StreamSpec,
            gen_base_table,
            gen_change_stream,
            write_event_log,
        )
        from ..state.lake import Lake as _Lake
        from .replay import ReplayJob

        # IDENTICAL constants to _build_cdc_fixture_lake — the oracle
        # fixtures are tag-gated on this spec
        n_docs = 500
        spec = StreamSpec(n_events=5000, n_docs=n_docs, n_epochs=3,
                          seed=42, evolve_from_epoch=2)
        base = gen_base_table(n_docs, seed=42)
        work = tempfile.mkdtemp(prefix="cdc_vacuum_")
        staged = os.path.join(work, "staged")
        write_event_log(staged, gen_change_stream(spec))
        live = os.path.join(work, "events")
        os.makedirs(live, exist_ok=True)
        cfg = SyncConfig(
            lake_root=os.path.join(work, "lake"), num_partitions=16
        )
        job = ReplayJob(cfg)
        job.bootstrap(base)
        for e in range(spec.n_epochs):
            shutil.copytree(
                os.path.join(staged, f"epoch={e:05d}"),
                os.path.join(live, f"epoch={e:05d}"),
            )
            job.replay(live)  # one NEW epoch -> one delta per partition
        lake = _Lake(cfg.lake_root)
        r = lake.vacuum(retain_epochs=1)
        assert r["horizon"] == 1, r
        atexit.register(shutil.rmtree, work, ignore_errors=True)
        _VACUUM_LAKE["root"] = cfg.lake_root
        return cfg.lake_root


def cdc_lake_vacuum_read(sf_dir: str) -> pa.Table:
    """Retention-policy vacuum, hash-checked at its sharpest edge:
    vacuum(retain_epochs=1) on the pinned CDC fixture lake folds
    everything at/below epoch 1 into per-partition bases (epoch 2's
    deltas stay live), then the query time-travels to the HORIZON
    itself — as_of_epoch=1 is answered from the folded base ALONE, so
    the hash proves the partial fold reproduced the exact epoch-1 state
    the sequential oracle pinned (cdcasof_* fixture, epochs <= 1).
    Below-horizon raising and current-state equality are pinned by
    tests/test_zorder.py TestVacuum; the self-checks here guard the
    fixture's own shape."""
    from ..state.lake import Lake as _Lake

    from .replay import read_lake

    root = _build_vacuum_fixture_lake()
    lake = _Lake(root)
    for p in lake.partitions():
        ck = lake.read_checkpoint(p)
        assert ck.get("compacted_through_epoch") == 1, ck
    out = (
        read_lake(
            root,
            columns=["doc_id", "n_tok", "source", "log_pos"],
            as_of_epoch=1,
        )
        .select_columns(["doc_id", "n_tok", "source", "log_pos"])
        .to_pandas()
    )
    out = out.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False).cast(
        pa.schema(
            [("doc_id", pa.string()), ("n_tok", pa.int64()),
             ("source", pa.string()), ("log_pos", pa.int64())]
        )
    )


CDC_VACUUM_SQL = f"""
SELECT doc_id, n_tok, source, log_pos
FROM read_parquet('{_FIXTURE_DIR}/cdcasof_*.parquet')
WHERE tag = '{_cdc_replay_tag()}'
ORDER BY doc_id
"""


_DEDUP_IDX_LOCK = threading.Lock()
_DEDUP_IDX_MEMO: dict[str, pd.DataFrame] = {}

_INCR_DEDUP_EPOCHS = 4


def cdc_incremental_dedup(sf_dir: str) -> pd.DataFrame:
    """Cross-epoch incremental dedup: the documents table arrives as
    FOUR ingest epochs (sliced here by doc_id % 4 — a harness stand-in
    for crawl dumps; a real deployment feeds actual epoch batches), and
    each epoch is admitted through a persistent hash-partitioned
    content-hash index (`state/dedupindex.py`) that drops anything ANY
    earlier epoch admitted — first epoch wins, then min doc_id. The
    index is the point: epoch N costs O(epoch + 1/P of history per
    touched partition), never a re-dedup of the whole corpus, and the
    per-(partition, epoch) commits are exactly-once (crash-resume pinned
    in tests/test_dedupindex.py). Survivors ship as (doc_id, hash) —
    48 B/row, text never enters the exchange.

    Oracle: plain keep-first over (epoch, doc_id) per distinct text —
    the engine's md5 content identity diverges from SQL text equality
    only on an md5 collision (the dedup_exact_docs hazard class).
    Memoized per process: the index directory is stateful by design, so
    a second call within one process must not re-ingest."""
    with _DEDUP_IDX_LOCK:
        if sf_dir in _DEDUP_IDX_MEMO:
            return _DEDUP_IDX_MEMO[sf_dir].copy()
        from ..state.dedupindex import DedupIndex

        work = tempfile.mkdtemp(prefix="dedup_idx_")
        atexit.register(shutil.rmtree, work, ignore_errors=True)
        idx = DedupIndex.create(
            os.path.join(work, "idx"), num_partitions=8
        )
        outs = []
        for e in range(_INCR_DEDUP_EPOCHS):
            eds = _t(sf_dir, "documents", columns=["doc_id", "text"]) \
                .map_batches(
                    lambda b, _e=e: b[
                        b["doc_id"] % _INCR_DEDUP_EPOCHS == _e
                    ],
                    batch_format="pandas",
                )
            df = idx.ingest_epoch(eds, e).to_pandas()
            if len(df) == 0:  # zero-row to_pandas is column-less
                continue
            df = df[["doc_id"]].copy()
            df["epoch"] = np.int64(e)
            outs.append(df)
        out = (
            pd.concat(outs, ignore_index=True)
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        out["doc_id"] = out["doc_id"].astype(np.int64)
        out["epoch"] = out["epoch"].astype(np.int64)
        _DEDUP_IDX_MEMO[sf_dir] = out
        return out.copy()


INCR_DEDUP_SQL = f"""
SELECT doc_id, CAST(doc_id % {_INCR_DEDUP_EPOCHS} AS BIGINT) AS epoch
FROM (
  SELECT doc_id,
         ROW_NUMBER() OVER (
           PARTITION BY text
           ORDER BY doc_id % {_INCR_DEDUP_EPOCHS}, doc_id
         ) AS rn
  FROM documents
)
WHERE rn = 1
ORDER BY doc_id
"""


_NEARDUP_IDX_LOCK = threading.Lock()
_NEARDUP_IDX_MEMO: dict[str, pd.DataFrame] = {}


def cdc_incremental_neardup(sf_dir: str) -> pd.DataFrame:
    """Cross-epoch incremental NEAR-dup (SimHash @ Hamming<=3): the
    documents table arrives as four doc_id%4 epochs through a
    persistent NearDupIndex (state/neardupindex.py) that drops anything
    within Hamming 3 of ANY earlier-seen doc — earlier epoch first,
    then smaller doc_id within the epoch (the streaming "seen" rule;
    the module docstring states why the incremental semantics is
    seen-based, not component-closure). 4x16-bit banding keeps each
    commit's comparisons inside its own band bucket, complete at
    Hamming<=3 by pigeonhole.

    Oracle: NOT EXISTS over the pinned independent-reference signatures
    (the simhash fixture), with the same band-equality precondition the
    engine relies on — so the SQL checks banding completeness, the
    seen-ordering, and the Hamming rule, not just signatures. Memoized
    per process (the index directory is stateful)."""
    with _NEARDUP_IDX_LOCK:
        if sf_dir in _NEARDUP_IDX_MEMO:
            return _NEARDUP_IDX_MEMO[sf_dir].copy()
        from ..state.neardupindex import NearDupIndex

        work = tempfile.mkdtemp(prefix="neardup_idx_")
        atexit.register(shutil.rmtree, work, ignore_errors=True)
        idx = NearDupIndex.create(
            os.path.join(work, "idx"), num_partitions=8
        )
        outs = []
        for e in range(_INCR_DEDUP_EPOCHS):
            eds = _t(sf_dir, "documents", columns=["doc_id", "text"]) \
                .map_batches(
                    lambda b, _e=e: b[
                        b["doc_id"] % _INCR_DEDUP_EPOCHS == _e
                    ],
                    batch_format="pandas",
                )
            df = idx.ingest_epoch(eds, e).to_pandas()
            if len(df) == 0:  # zero-row to_pandas is column-less
                continue
            df = df[["doc_id"]].copy()
            df["epoch"] = np.int64(e)
            outs.append(df)
        out = (
            pd.concat(outs, ignore_index=True)
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        out["doc_id"] = out["doc_id"].astype(np.int64)
        out["epoch"] = out["epoch"].astype(np.int64)
        _NEARDUP_IDX_MEMO[sf_dir] = out
        return out.copy()


#: seen-rule restatement over the pinned signatures: drop a iff some
#: b earlier in (epoch, doc_id) order shares a 16-bit band AND is
#: within Hamming 3 (band equality is implied by hamming<=3 — kept in
#: the SQL so the oracle exercises the same candidate structure and
#: DuckDB gets an equi-join instead of an n^2 nested loop)
INCR_NEARDUP_SQL = f"""
WITH t AS (
  SELECT md5(text) AS tag FROM documents
  WHERE doc_id = (SELECT min(doc_id) FROM documents)
),
f AS (
  SELECT s.doc_id, s.simhash_int,
         CAST(s.doc_id % {_INCR_DEDUP_EPOCHS} AS BIGINT) AS epoch
  FROM read_parquet('{_FIXTURE_DIR}/simhash_*.parquet') s, t
  WHERE s.tag = t.tag
),
fb AS (
  SELECT doc_id, simhash_int, epoch, b.band,
         (simhash_int >> (16 * b.band)) & 65535 AS band_hash
  FROM f, (SELECT unnest(generate_series(0, 3)) AS band) b
),
dropped AS (
  SELECT DISTINCT a.doc_id
  FROM fb a JOIN fb b USING (band, band_hash)
  WHERE (b.epoch < a.epoch
         OR (b.epoch = a.epoch AND b.doc_id < a.doc_id))
    AND bit_count(xor(a.simhash_int, b.simhash_int)) <= 3
)
SELECT f.doc_id, f.epoch
FROM f LEFT JOIN dropped d ON f.doc_id = d.doc_id
WHERE d.doc_id IS NULL
ORDER BY f.doc_id
"""


def kcenter_select_embeddings(sf_dir: str) -> pd.DataFrame:
    """Greedy k-center (farthest-point) diverse-subset selection over
    the full embedding corpus — k=8 maximally-spread exemplars, integer
    fixed-point distances so the argmax chain is exact (see
    functions/ann.py for the scale shape: one materialization, k-1
    task waves over cached block refs, O(blocks x d) per wave). The
    oracle unrolls the IDENTICAL greedy iterations in SQL (same 2^20
    quantizer, same least()-chained min-dist, same max-dist /
    min-vec_id tie rule)."""
    from ..functions.ann import kcenter_select_embeddings as _kc

    return _kc(_t(sf_dir, "embeddings"), k=8)


def _kcenter_sql(k: int = 8) -> str:
    """Unrolled greedy-k-center oracle: one (c_i, dd_i, m_i, sel_i) CTE
    quad per selection — generated by a loop so the SQL can never drift
    from the engine's iteration count or tie rules. Every CTE is
    MATERIALIZED: sel_i references all earlier sel_j, so DuckDB's
    default CTE inlining re-expands the chain super-exponentially
    (measured: 8 levels unbounded at sf0.001). The center's d codes
    are materialized per iteration (c_i) BEFORE the distance join —
    joining q to q with a scalar-subquery filter on the b side defeats
    pushdown and explodes to |V|^2 rows per dim (measured 3.3x on one
    iteration at 500 vecs, quadratically worse beyond)."""
    parts = [
        """WITH q AS MATERIALIZED (
  SELECT vec_id,
         generate_subscripts(embedding, 1) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0 + 0.5)
              AS BIGINT) AS code
  FROM embeddings
),
sel0 AS MATERIALIZED (SELECT min(vec_id) AS vid FROM embeddings)"""
    ]
    for i in range(1, k):
        parts.append(f""",
c{i} AS MATERIALIZED (
  SELECT dim, code FROM q WHERE vec_id = (SELECT vid FROM sel{i - 1})
),
dd{i} AS MATERIALIZED (
  SELECT a.vec_id,
         CAST(sum((a.code - c{i}.code) * (a.code - c{i}.code))
              AS BIGINT) AS d
  FROM q a JOIN c{i} USING (dim)
  GROUP BY a.vec_id
)""")
        if i == 1:
            parts.append(""",
m1 AS MATERIALIZED (SELECT vec_id, d FROM dd1)""")
        else:
            parts.append(f""",
m{i} AS MATERIALIZED (
  SELECT m.vec_id, least(m.d, dd{i}.d) AS d
  FROM m{i - 1} m JOIN dd{i} USING (vec_id)
)""")
        excl = " UNION ALL ".join(
            f"SELECT vid FROM sel{j}" for j in range(i)
        )
        parts.append(f""",
sel{i} AS MATERIALIZED (
  SELECT vec_id AS vid, d
  FROM m{i}
  WHERE vec_id NOT IN ({excl})
  ORDER BY d DESC, vec_id ASC
  LIMIT 1
)""")
    sels = "\nUNION ALL\n".join(
        [
            "SELECT CAST(0 AS BIGINT) AS sel_rank, vid AS vec_id, "
            "CAST(0 AS BIGINT) AS min_dist FROM sel0"
        ]
        + [
            f"SELECT CAST({i} AS BIGINT), vid, d FROM sel{i}"
            for i in range(1, k)
        ]
    )
    parts.append(f"\n{sels}\nORDER BY sel_rank")
    return "".join(parts)


KCENTER_SQL = _kcenter_sql(8)


def export_shuffled_docs(sf_dir: str, shards: int = 8) -> pd.DataFrame:
    """Deterministic global shuffle + shard assignment for training
    export — the primitive every tokenize-and-shard export needs, as a
    pure function of the ids: order docs by the 48-bit integer prefix
    of md5('shuf:' || doc_id), shard = H % shards, position = rank
    within the shard. Re-runs, resumed shards and DIFFERENT ENGINES
    agree doc-by-doc (Ray's random_shuffle is none of those things),
    and a failed export resumes per shard. Scale shape: the hash map is
    embarrassingly parallel; ONE exchange on the shard key; the
    within-shard rank sort is per-shard local (production keeps shard
    SIZE fixed — e.g. 256 MB — so shard count scales with the corpus
    and each per_group sort stays task-sized). 48 bits keeps H exact in
    both engines' int64; H % shards is numpy int64 % python-int = int64
    (no uint64 promotion hazard)."""

    def hsh(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        hv = np.array(
            [
                int(hashlib.md5(f"shuf:{int(i)}".encode())
                    .hexdigest()[:12], 16)
                for i in ids
            ],
            dtype=np.int64,
        )
        return pd.DataFrame(
            {"doc_id": ids, "hv": hv, "shard": hv % shards}
        )

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hv", "doc_id"]).reset_index(drop=True)
        g["pos"] = np.arange(len(g), dtype=np.int64)
        return g[["doc_id", "shard", "pos"]]

    out = (
        _t(sf_dir, "documents", ["doc_id"])
        .map_batches(hsh, batch_format="pandas")
        .sort("shard")
        .map_batches(
            per_group(rank, "shard"), batch_size=None,
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    if out.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "shard": pd.Series([], dtype="int64"),
             "pos": pd.Series([], dtype="int64")}
        )
    return out.sort_values(["shard", "pos"]).reset_index(drop=True)


EXPORT_SHUFFLE_SQL = """
WITH h AS (
  SELECT doc_id,
         CAST(('0x' || substr(
             md5('shuf:' || CAST(doc_id AS VARCHAR)), 1, 12)) AS BIGINT)
           AS hv
  FROM documents
)
SELECT doc_id, hv % 8 AS shard,
       CAST(row_number() OVER (
           PARTITION BY hv % 8 ORDER BY hv, doc_id) - 1 AS BIGINT) AS pos
FROM h ORDER BY shard, pos
"""


def semantic_decontaminate_embeddings(sf_dir: str) -> pd.DataFrame:
    """Embedding-space decontamination against a deterministic
    benchmark subset (vec_id % 50 == 0 stands in for the eval-set
    embeddings a production run would broadcast): flag every corpus
    vector whose centered-8-bit-quantized cosine reaches tau = 0.35,
    entirely in integer arithmetic (dot > 0 AND dot^2 * 10000 >=
    1225 * |a|^2 * |b|^2) so both engines hash identically. The
    semantic sibling of the n-gram decontaminate_docs. One broadcast,
    one streamed matmul pass, bounded rows out (functions/ann.py
    semantic_decontaminate)."""
    from ..functions.ann import semantic_decontaminate

    return semantic_decontaminate(
        _t(sf_dir, "embeddings", ["vec_id", "embedding"]),
        bench_mod=50, tau_sq_bp=1225,
    )


SEMANTIC_DECON_SQL = """
WITH d AS (
  SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS x,
         generate_subscripts(embedding, 1) AS dim
  FROM embeddings
),
mm AS (SELECT dim, min(x) AS mn, max(x) AS mx FROM d GROUP BY 1),
q AS (
  SELECT d.vec_id, d.dim,
         CASE WHEN mx = mn THEN 0
              ELSE least(255, greatest(0, CAST(
                floor((x - mn) / (mx - mn) * 255.0 + 0.5) AS BIGINT)))
         END - 128 AS cc
  FROM d JOIN mm USING (dim)
),
n AS (SELECT vec_id, CAST(sum(cc * cc) AS BIGINT) AS n2 FROM q GROUP BY 1),
dots AS (
  SELECT a.vec_id AS cand, b.vec_id AS bench,
         CAST(sum(a.cc * b.cc) AS BIGINT) AS dot
  FROM q a JOIN q b USING (dim)
  WHERE b.vec_id % 50 = 0 AND a.vec_id % 50 <> 0
  GROUP BY 1, 2
),
hit AS (
  SELECT d.cand AS vec_id, d.dot
  FROM dots d
  JOIN n na ON na.vec_id = d.cand
  JOIN n nb ON nb.vec_id = d.bench
  WHERE d.dot > 0 AND d.dot * d.dot * 10000 >= 1225 * na.n2 * nb.n2
)
SELECT vec_id, CAST(count(*) AS BIGINT) AS hits,
       CAST(max(dot) AS BIGINT) AS best_dot
FROM hit GROUP BY 1 ORDER BY vec_id
"""


def cdc_epoch_diff(sf_dir: str, num_parts: int = 16) -> pd.DataFrame:
    """Time-travel DIFF of the replayed lake: what changed after epoch 1?
    Builds the same pinned CDC fixture lake as cdc_replay_lake, reads
    the state AS OF epoch 1 (read_lake(as_of_epoch=1) — served from the
    immutable epoch-named deltas) and the final state, and reports per
    doc_id: 'added' (absent → present), 'deleted' (present → absent,
    i.e. a tombstone landed), or 'changed' (log_pos moved — any LWW
    rewrite). The diff itself is DISTRIBUTED: both reads union with a
    side tag and exchange once on a doc_id hash bucket, each group
    diffing vectorized — at scale nothing driver-side holds the full
    state, only the (bounded-by-change-volume) diff rows. Oracle:
    full-outer-join of the two sequential-oracle fixtures
    (cdcasof_* = epochs ≤ 1, cdc_replay_* = final)."""
    from .replay import read_lake

    cfg, work = _build_cdc_fixture_lake("cdc_diff_")

    def side(tag: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            h = pd.util.hash_pandas_object(batch["doc_id"], index=False)
            return pd.DataFrame({
                "_part": (h.to_numpy() % num_parts).astype(np.int64),
                "doc_id": batch["doc_id"].to_numpy(dtype=object),
                "n_tok": batch["n_tok"].to_numpy(np.int64),
                "log_pos": batch["log_pos"].to_numpy(np.int64),
                "_side": np.full(len(batch), tag, dtype=np.int8)})
        return f

    cols = ["doc_id", "n_tok", "log_pos"]
    before = read_lake(cfg.lake_root, columns=cols, as_of_epoch=1
                       ).map_batches(side(0), batch_format="pandas")
    after = read_lake(cfg.lake_root, columns=cols
                      ).map_batches(side(1), batch_format="pandas")

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        is_b = g["_side"].to_numpy() == 0
        m = g.loc[is_b, ["doc_id", "n_tok", "log_pos"]].merge(
            g.loc[~is_b, ["doc_id", "n_tok", "log_pos"]],
            on="doc_id", how="outer", suffixes=("_b", "_a"),
            indicator=True)
        mer = m["_merge"].to_numpy()
        changed = ((mer == "both")
                   & (m["log_pos_b"].to_numpy() != m["log_pos_a"].to_numpy()))
        keep = (mer != "both") | changed
        m = m.loc[keep]
        mer = m["_merge"].to_numpy()
        status = np.where(mer == "left_only", "deleted",
                          np.where(mer == "right_only", "added", "changed"))
        return pd.DataFrame({
            "doc_id": m["doc_id"].to_numpy(dtype=object),
            "status": status.astype(object),
            "n_tok_before": m["n_tok_b"].fillna(-1).to_numpy(np.int64),
            "n_tok_after": m["n_tok_a"].fillna(-1).to_numpy(np.int64)})

    out = (
        before.union(after)
        .sort("_part")
        .map_batches(per_group(diff, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return pd.DataFrame({
            "doc_id": pd.Series([], dtype="object"),
            "status": pd.Series([], dtype="object"),
            "n_tok_before": pd.Series([], dtype="int64"),
            "n_tok_after": pd.Series([], dtype="int64")})
    return out.sort_values("doc_id").reset_index(drop=True)


CDC_DIFF_SQL = f"""
WITH before AS (
  SELECT doc_id, n_tok, log_pos
  FROM read_parquet('{_FIXTURE_DIR}/cdcasof_*.parquet')
  WHERE tag = '{_cdc_replay_tag()}'
),
after AS (
  SELECT doc_id, n_tok, log_pos
  FROM read_parquet('{_FIXTURE_DIR}/cdc_replay_*.parquet')
  WHERE tag = '{_cdc_replay_tag()}'
)
SELECT coalesce(b.doc_id, a.doc_id) AS doc_id,
       CASE WHEN b.doc_id IS NULL THEN 'added'
            WHEN a.doc_id IS NULL THEN 'deleted'
            ELSE 'changed' END AS status,
       CAST(coalesce(b.n_tok, -1) AS BIGINT) AS n_tok_before,
       CAST(coalesce(a.n_tok, -1) AS BIGINT) AS n_tok_after
FROM before b FULL OUTER JOIN after a ON b.doc_id = a.doc_id
WHERE b.doc_id IS NULL OR a.doc_id IS NULL OR b.log_pos <> a.log_pos
ORDER BY doc_id
"""


def cdc_lake_hll_view(sf_dir: str) -> pd.DataFrame:
    """The incremental HLL cardinality view, hash-checked end to end:
    replay the pinned CDC fixture into a lake, refresh the
    per-partition-cached register view TWICE (the second refresh must
    recompute zero partitions and return identical registers — the
    incremental contract is part of the checked answer), and emit the
    estimator row. The oracle rebuilds the identical 256-register HLL
    in SQL over the pinned fixture's live doc_ids."""
    from ..state.views import hll_distinct_view

    cfg, work = _build_cdc_fixture_lake("cdc_hll_")
    df1, _ = hll_distinct_view(cfg.lake_root)
    df2, n2 = hll_distinct_view(cfg.lake_root)
    assert n2 == 0 and df2["int_sum"].iloc[0] == df1["int_sum"].iloc[0]
    return df2


CDC_HLL_SQL = f"""
WITH h AS (
  SELECT DISTINCT
    ('0x' || substr(md5(doc_id), 1, 16))::UBIGINT AS H
  FROM read_parquet('{_FIXTURE_DIR}/cdc_replay_*.parquet')
  WHERE tag = '{_cdc_replay_tag()}'
),
r AS (
  SELECT CAST(H >> 56 AS BIGINT) AS bucket,
         CASE WHEN (H & ((1::UBIGINT << 48) - 1)) = 0 THEN 49
              ELSE 49 - length(bin((H & ((1::UBIGINT << 48) - 1))::BIGINT))
         END AS rho
  FROM h
),
regs AS (SELECT bucket, max(rho) AS m_j FROM r GROUP BY bucket),
s AS (
  SELECT count(*) AS nonzero,
         sum((1::UBIGINT << (49 - m_j))::BIGINT) AS int_sum_nz
  FROM regs
)
SELECT 256::BIGINT AS m,
       CAST(nonzero AS BIGINT) AS nonzero,
       CAST(int_sum_nz + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT
            AS BIGINT) AS int_sum,
       round(
         CASE WHEN (0.7213 / (1.0 + 1.079 / 256.0)) * 256.0 * 256.0
                   * (1::UBIGINT << 49)::DOUBLE
                   / (int_sum_nz
                      + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT)::DOUBLE
                   <= 2.5 * 256.0
               AND nonzero < 256
         THEN 256.0 * ln(256.0 / (256.0 - nonzero))
         ELSE (0.7213 / (1.0 + 1.079 / 256.0)) * 256.0 * 256.0
              * (1::UBIGINT << 49)::DOUBLE
              / (int_sum_nz
                 + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT)::DOUBLE
         END, 2) AS est_distinct
FROM s
"""


def cdc_lake_dup_gauge(sf_dir: str) -> pd.DataFrame:
    """The incremental duplicate-content gauge, hash-checked end to end:
    replay the pinned CDC fixture into a lake, refresh the
    per-partition content-HLL view TWICE (second refresh must recompute
    zero partitions), and emit (n_rows, nonzero, int_sum,
    est_distinct). The oracle rebuilds the identical registers from
    md5(content_key) over the pinned fixture — token-level content
    equality between the distributed lake and the sequential reference
    is part of the checked answer."""
    from ..state.views import MaterializedView, _content_dup_partial_text

    cfg, work = _build_cdc_fixture_lake("cdc_dupg_")

    from ..functions.sketch import _HLL_M, hll_estimate

    view = MaterializedView(
        cfg.lake_root, "content_dup_gauge_text",
        _content_dup_partial_text, columns=["tokens"],
    )
    partials, _ = view.refresh()
    partials2, n2 = view.refresh()
    assert n2 == 0 and partials2 == partials

    m_j = np.zeros(_HLL_M, dtype=np.int64)
    n_rows = 0
    for part in partials.values():
        for b, r in part.items():
            if b == "__rows":
                n_rows += int(r)
                continue
            b = int(b)
            if r > m_j[b]:
                m_j[b] = r
    est = hll_estimate(m_j)
    return pd.DataFrame(
        {
            "n_rows": np.array([n_rows], dtype="int64"),
            "nonzero": est["nonzero"].astype("int64"),
            "int_sum": est["int_sum"].astype("int64"),
            "est_distinct": est["est_distinct"].astype("float64"),
        }
    )


# identical register construction as CDC_HLL_SQL, but over the pinned
# fixture's content_key (the ','-joined token string) — distinct
# CONTENTS, counted next to the raw row count
CDC_DUP_GAUGE_SQL = f"""
WITH rows_all AS (
  SELECT content_key
  FROM read_parquet('{_FIXTURE_DIR}/cdc_replay_*.parquet')
  WHERE tag = '{_cdc_replay_tag()}'
),
h AS (
  SELECT DISTINCT
    ('0x' || substr(md5(content_key), 1, 16))::UBIGINT AS H
  FROM rows_all
),
r AS (
  SELECT CAST(H >> 56 AS BIGINT) AS bucket,
         CASE WHEN (H & ((1::UBIGINT << 48) - 1)) = 0 THEN 49
              ELSE 49 - length(bin((H & ((1::UBIGINT << 48) - 1))::BIGINT))
         END AS rho
  FROM h
),
regs AS (SELECT bucket, max(rho) AS m_j FROM r GROUP BY bucket),
s AS (
  SELECT count(*) AS nonzero,
         sum((1::UBIGINT << (49 - m_j))::BIGINT) AS int_sum_nz
  FROM regs
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM rows_all) AS n_rows,
       CAST(nonzero AS BIGINT) AS nonzero,
       CAST(int_sum_nz + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT
            AS BIGINT) AS int_sum,
       round(
         CASE WHEN (0.7213 / (1.0 + 1.079 / 256.0)) * 256.0 * 256.0
                   * (1::UBIGINT << 49)::DOUBLE
                   / (int_sum_nz
                      + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT)::DOUBLE
                   <= 2.5 * 256.0
               AND nonzero < 256
         THEN 256.0 * ln(256.0 / (256.0 - nonzero))
         ELSE (0.7213 / (1.0 + 1.079 / 256.0)) * 256.0 * 256.0
              * (1::UBIGINT << 49)::DOUBLE
              / (int_sum_nz
                 + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT)::DOUBLE
         END, 2) AS est_distinct
FROM s
"""


# --- sketches (functions/sketch.py) ------------------------------------------
# Deterministic mergeable sketches whose md5-derived hash functions the
# DuckDB oracle re-derives in SQL — the APPROXIMATE answers are
# hash-checked bit-for-bit, not "close enough".


def hll_distinct_users(sf_dir: str) -> pd.DataFrame:
    from ..functions.sketch import hll_distinct

    return hll_distinct(_t(sf_dir, "events", ["user_id"]), "user_id")


# The SQL rebuilds the identical 256-register HLL: bucket = top 8 bits
# of the md5-64, rho = leading zeros of the low 48 bits + 1 (computed
# via length(bin(w)) — exact string bit-length, no float log), estimate
# from the INTEGER register sum so no float accumulation order exists.
HLL_SQL = r"""
WITH h AS (
  SELECT DISTINCT
    ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS H
  FROM events WHERE user_id IS NOT NULL
),
r AS (
  SELECT CAST(H >> 56 AS BIGINT) AS bucket,
         CASE WHEN (H & ((1::UBIGINT << 48) - 1)) = 0 THEN 49
              ELSE 49 - length(bin((H & ((1::UBIGINT << 48) - 1))::BIGINT))
         END AS rho
  FROM h
),
regs AS (SELECT bucket, max(rho) AS m_j FROM r GROUP BY bucket),
s AS (
  SELECT count(*) AS nonzero,
         sum((1::UBIGINT << (49 - m_j))::BIGINT) AS int_sum_nz
  FROM regs
)
SELECT 256::BIGINT AS m,
       CAST(nonzero AS BIGINT) AS nonzero,
       CAST(int_sum_nz + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT
            AS BIGINT) AS int_sum,
       round(
         CASE WHEN (0.7213 / (1.0 + 1.079 / 256.0)) * 256.0 * 256.0
                   * (1::UBIGINT << 49)::DOUBLE
                   / (int_sum_nz
                      + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT)::DOUBLE
                   <= 2.5 * 256.0
               AND nonzero < 256
         THEN 256.0 * ln(256.0 / (256.0 - nonzero))
         ELSE (0.7213 / (1.0 + 1.079 / 256.0)) * 256.0 * 256.0
              * (1::UBIGINT << 49)::DOUBLE
              / (int_sum_nz
                 + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT)::DOUBLE
         END, 2) AS est_distinct
FROM s
"""


def cms_top_token_counts(sf_dir: str) -> pd.DataFrame:
    from ..functions.sketch import cms_token_counts
    from ..functions.text import top_tokens

    docs = _t(sf_dir, "documents", ["text"], num_blocks=16)
    top = top_tokens(docs, k=10)
    return cms_token_counts(docs, top)


# Rebuild the identical 4x1024 Count-Min table in SQL (salted md5-64
# buckets, counts over the full token stream), probe it for the exact
# top-10 tokens. est_cnt >= true_cnt always — the OVERCOUNT is part of
# the checked answer.
CMS_SQL = r"""
WITH toks AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
top10 AS (
  SELECT token, count(*) AS true_cnt FROM toks GROUP BY token
  ORDER BY true_cnt DESC, token ASC LIMIT 10
),
salts AS (SELECT i FROM (VALUES (0), (1), (2), (3)) s(i)),
cells AS (
  SELECT i AS row_i,
         CAST(('0x' || substr(md5('c' || i || ':' || token), 1, 16))::UBIGINT
              % 1024 AS BIGINT) AS bucket,
         count(*) AS cnt
  FROM toks CROSS JOIN salts
  GROUP BY 1, 2
)
SELECT tt.token, tt.true_cnt, CAST(min(c.cnt) AS BIGINT) AS est_cnt
FROM top10 tt CROSS JOIN salts r
JOIN cells c
  ON c.row_i = r.i
 AND c.bucket = CAST(('0x' || substr(md5('c' || r.i || ':' || tt.token),
                                     1, 16))::UBIGINT % 1024 AS BIGINT)
GROUP BY tt.token, tt.true_cnt
ORDER BY tt.true_cnt DESC, tt.token ASC
"""


def bloom_semijoin_orders(sf_dir: str) -> pd.DataFrame:
    from ..functions.sketch import bloom_semijoin_stats

    build = _t(
        sf_dir, "customer", ["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda b: b.loc[b["c_mktsegment"] == "BUILDING", ["c_custkey"]],
        batch_format="pandas",
    )
    return bloom_semijoin_stats(
        _t(sf_dir, "orders", ["o_custkey"]), "o_custkey",
        build, "c_custkey",
    )


# Rebuild the identical 2^16-bit bloom filter of BUILDING custkeys and
# probe every order — the filter's exact false-positive count is part of
# the hashed answer (a bloom pre-filter must never FALSE-NEGATIVE; the
# oracle proves n_true_match rows all pass).
BLOOM_SQL = r"""
WITH bkeys AS (
  SELECT DISTINCT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'
),
salts AS (SELECT i FROM (VALUES (0), (1), (2)) s(i)),
bits AS (
  SELECT DISTINCT
    CAST(('0x' || substr(md5('b' || i || ':' || CAST(c_custkey AS VARCHAR)),
                         1, 16))::UBIGINT % 65536 AS BIGINT) AS pos
  FROM bkeys CROSS JOIN salts
),
probe AS (
  SELECT o_orderkey, o_custkey,
         min(CASE WHEN CAST(('0x' || substr(md5('b' || i || ':'
                                            || CAST(o_custkey AS VARCHAR)),
                                            1, 16))::UBIGINT % 65536
                       AS BIGINT) IN (SELECT pos FROM bits)
                  THEN 1 ELSE 0 END) AS pass
  FROM orders CROSS JOIN salts
  GROUP BY o_orderkey, o_custkey
)
SELECT CAST(count(*) AS BIGINT) AS n_probe,
       CAST(sum(pass) AS BIGINT) AS n_pass_bloom,
       CAST(sum(CASE WHEN o_custkey IN (SELECT c_custkey FROM bkeys)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_true_match,
       CAST(sum(CASE WHEN pass = 1
                      AND o_custkey NOT IN (SELECT c_custkey FROM bkeys)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_false_pos
FROM probe
"""


def duplicated_spans_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.dedup import duplicated_ngram_spans

    return duplicated_ngram_spans(
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16),
        n=8, k=100,
    )


# exact duplicated 8-word spans (ExactSubstr-style at fixed window
# length); ties break (n_occurrences DESC, span ASC) on both sides
SPANS_SQL = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
pos AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 7)) AS i FROM w
),
spans AS (
  SELECT doc_id, array_to_string(ws[i:i + 7], ' ') AS span FROM pos
)
SELECT span,
       CAST(count(*) AS BIGINT) AS n_occurrences,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       CAST(min(doc_id) AS BIGINT) AS first_doc
FROM spans GROUP BY span HAVING count(*) > 1
ORDER BY n_occurrences DESC, span ASC LIMIT 100
"""


def line_dedup_rewrite_docs(sf_dir: str) -> pd.DataFrame:
    """C4-style duplicated-line removal with text rewrite: keep the
    globally first occurrence of every 8-word line, reassemble each doc
    from its kept lines (docs fully deduplicated away drop out). The
    whole rewritten text column is hash-checked against the oracle."""
    from ..functions.dedup import line_dedup_rewrite

    out = line_dedup_rewrite(
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16),
        chunk_words=8,
    ).to_pandas()
    if out.empty:  # zero-row to_pandas is COLUMN-LESS (CLAUDE.md)
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "text": pd.Series([], dtype="object"),
             "n_kept_lines": pd.Series([], dtype="int64")}
        )
    out = out.sort_values("doc_id").reset_index(drop=True)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_kept_lines"] = out["n_kept_lines"].astype("int64")
    return out


# keep-first is per md5(line) on BOTH sides (not per line string), so a
# collision could never diverge the check; single-space split matches
# the synthetic corpus (the spans oracle's \s+ filter is for ws only)
LINE_DEDUP_SQL = """
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
),
l AS (
  SELECT doc_id, CAST(i AS BIGINT) AS idx,
         md5(array_to_string(ws[i*8+1 : i*8+8], ' ')) AS h,
         array_to_string(ws[i*8+1 : i*8+8], ' ') AS line
  FROM w, UNNEST(range(CAST(ceil(len(ws)/8.0) AS BIGINT))) AS t(i)
),
k AS (
  SELECT doc_id, idx, line,
         row_number() OVER (PARTITION BY h ORDER BY doc_id, idx) AS rn
  FROM l
)
SELECT doc_id,
       string_agg(line, ' ' ORDER BY idx) AS text,
       count(*) AS n_kept_lines
FROM k WHERE rn = 1
GROUP BY doc_id ORDER BY doc_id
"""


def decontaminate_docs(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: drop every corpus doc sharing any
    8-word span with the 'benchmark' slice (doc_id % 97 == 0 — the same
    deterministic-split convention as systematic_sample). The benchmark
    shingle set broadcasts once; the corpus filters statelessly."""
    from ..functions.dedup import decontaminate

    docs = _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16)
    bench = docs.map_batches(
        lambda b: b[b["doc_id"] % 97 == 0], batch_format="pandas"
    )
    corpus = docs.map_batches(
        lambda b: b[b["doc_id"] % 97 != 0], batch_format="pandas"
    )
    out = (
        decontaminate(corpus, bench, k=8)
        .select_columns(["doc_id"])
        .to_pandas()
    )
    if out.empty or "doc_id" not in out.columns:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


DECONTAMINATE_SQL = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
pos AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 7)) AS i FROM w
),
spans AS (
  SELECT doc_id, array_to_string(ws[i:i + 7], ' ') AS span FROM pos
),
bspans AS (SELECT DISTINCT span FROM spans WHERE doc_id % 97 = 0),
contaminated AS (
  SELECT DISTINCT doc_id FROM spans
  WHERE doc_id % 97 <> 0 AND span IN (SELECT span FROM bspans)
)
SELECT doc_id FROM documents
WHERE doc_id % 97 <> 0
  AND doc_id NOT IN (SELECT doc_id FROM contaminated)
ORDER BY doc_id
"""


def repetition_filter_docs(sf_dir: str) -> pd.DataFrame:
    """Gopher/C4-style repetition rule: docs whose duplicate-2-gram
    fraction exceeds 5%, with the fraction compared in BIGINT arithmetic
    ((n - distinct) * 1000 > 50 * n) so no float ratio enters the
    hash."""
    from ..functions.dedup import repetition_stats

    out = repetition_stats(
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16), n=2
    ).to_pandas()
    rep = (out["n_ngrams"] - out["n_distinct"]) * 1000 > 50 * out["n_ngrams"]
    out = out[rep].sort_values("doc_id").reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


REPETITION_SQL = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
pos AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 1)) AS i FROM w
),
g2 AS (
  SELECT doc_id, array_to_string(ws[i:i + 1], ' ') AS g FROM pos
),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_ngrams,
         CAST(count(DISTINCT g) AS BIGINT) AS n_distinct
  FROM g2 GROUP BY doc_id
)
SELECT doc_id, n_ngrams, n_distinct FROM agg
WHERE (n_ngrams - n_distinct) * 1000 > 50 * n_ngrams
ORDER BY doc_id
"""


def redact_pii_docs(sf_dir: str) -> pd.DataFrame:
    """PII redaction machinery over a deterministic augmentation: the
    synthetic corpus carries no emails/phones, so each doc gets one of
    each appended (identical concat on the SQL side) and the full
    redacted text is hash-checked — proving the regex pipeline, not
    just counts."""
    from ..functions.text import redact_pii

    docs = _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16)

    def inject(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].astype("int64")
        b = b.copy()
        b["text"] = (
            b["text"] + " contact user" + ids.astype(str)
            + "@example.com or +1-555-"
            + (ids % 10000).astype(str).str.zfill(4)
        )
        return b

    out = (
        redact_pii(docs.map_batches(inject, batch_format="pandas"))
        .map_batches(
            lambda b: b[["doc_id", "n_emails", "n_phones", "redacted"]],
            batch_format="pandas",
        )
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


REDACT_SQL = r"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || CAST(doc_id AS VARCHAR)
              || '@example.com or +1-555-'
              || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') AS text
  FROM documents
)
SELECT doc_id,
  CAST(len(regexp_extract_all(text,
    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT)
    AS n_emails,
  CAST(len(regexp_extract_all(text, '\+1-[0-9]{3}-[0-9]{4}')) AS BIGINT)
    AS n_phones,
  regexp_replace(
    regexp_replace(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                   '[EMAIL]', 'g'),
    '\+1-[0-9]{3}-[0-9]{4}', '[PHONE]', 'g') AS redacted
FROM aug ORDER BY doc_id
"""


def tfidf_top_term_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.text import tfidf_top_term

    return tfidf_top_term(
        _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16)
    )


# integer-exact TF-IDF: score = tf * 1000000 // df (BIGINT floor
# division on both sides); top term per doc, ties (score DESC, term ASC)
TFIDF_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
tf AS (
  SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
  FROM toks GROUP BY 1, 2
),
df AS (
  SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM toks GROUP BY 1
)
SELECT tf.doc_id, tf.token AS term, tf.tf, df.df,
       tf.tf * 1000000 // df.df AS score
FROM tf JOIN df ON tf.token = df.token
QUALIFY row_number() OVER (
  PARTITION BY tf.doc_id
  ORDER BY tf.tf * 1000000 // df.df DESC, tf.token ASC
) = 1
ORDER BY tf.doc_id
"""


def consistent_sample_docs(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Consistent (hash-stable) corpus sample: the k docs with the
    smallest md5-64 of their id. Unlike offset/random sampling, the
    sample is a pure function of the ids — re-runs, resumed shards, and
    DIFFERENT ENGINES pick the same docs, and growing the corpus only
    swaps members in/out at the boundary (the property consistent
    hashing gives membership). Scale shape: each batch keeps its local
    k smallest (bounded rows out per block), the driver merges
    <= k*blocks tiny rows. The hash is carried as the 16-hex-char
    prefix string: fixed-width hex sorts lexicographically == numerically
    in both engines, so no uint64/BIGINT sign mismatch can flip order."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        h = [
            hashlib.md5(str(int(i)).encode()).hexdigest()[:16] for i in ids
        ]
        out = pd.DataFrame({"doc_id": ids, "h": pd.Series(h, dtype="object")})
        return out.sort_values(["h", "doc_id"]).head(k)

    cand = (
        _t(sf_dir, "documents", ["doc_id"], num_blocks=8)
        .map_batches(partial, batch_format="pandas")
        .to_pandas()  # <= k per block
    )
    return (
        cand.sort_values(["h", "doc_id"]).head(k).reset_index(drop=True)
    )


CONSISTENT_SAMPLE_SQL = """
SELECT doc_id, substr(md5(CAST(doc_id AS VARCHAR)), 1, 16) AS h
FROM documents
ORDER BY h, doc_id LIMIT 100
"""


def split_assign_docs(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split (90/5/5): each doc's split is a
    pure function of md5('split:' || doc_id), so re-runs, resumed shards,
    and different engines agree doc-by-doc, and adding corpus never moves
    an existing doc across splits (the leakage guarantee random splits
    lack). Thresholds compare the fixed-width 4-hex-char prefix as a
    STRING — hex sorts lexicographically == numerically, so no engine
    hex-to-int conversion is needed: train < 'e666' (0xe666/0x10000 =
    90.0006%), val < 'f333' (~95%), else test. Embarrassingly parallel
    map_batches; no shuffle, no driver state."""

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        h4 = np.array(
            [
                hashlib.md5(f"split:{int(i)}".encode()).hexdigest()[:4]
                for i in ids
            ]
        )
        split = np.where(
            h4 < "e666", "train", np.where(h4 < "f333", "val", "test")
        )
        return pd.DataFrame({"doc_id": ids, "split": split})

    return (
        _t(sf_dir, "documents", ["doc_id"])
        .map_batches(assign, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


SPLIT_ASSIGN_SQL = """
WITH h AS (
  SELECT doc_id,
         substr(md5('split:' || CAST(doc_id AS VARCHAR)), 1, 4) AS h4
  FROM documents
)
SELECT doc_id,
       CASE WHEN h4 < 'e666' THEN 'train'
            WHEN h4 < 'f333' THEN 'val'
            ELSE 'test' END AS split
FROM h ORDER BY doc_id
"""


def weighted_sample_docs(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Weighted (probability-proportional-to-size) corpus sample WITHOUT
    replacement, the Efraimidis-Spirakis priority scheme in pure integer
    arithmetic: each doc gets priority floor(H / w) where H is the
    48-bit integer prefix of md5('ws:' || doc_id) and w = max(n_chars,
    1); the k SMALLEST priorities win, so a doc's chance of selection
    scales with its length while the draw stays a pure function of the
    ids — re-runs, resumed shards, and different engines agree
    doc-by-doc (same property consistent_sample_docs gives the uniform
    case). 48 bits (12 hex chars) keeps H exact in both engines' int64;
    integer floor-division avoids the cross-libm u^(1/w) float hazard
    entirely. Scale shape: each batch keeps its local k smallest
    (bounded rows out per block); the driver merges <= k*blocks tiny
    rows — no shuffle, no full materialization."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        w = np.maximum(batch["n_chars"].to_numpy(np.int64), 1)
        h = np.array(
            [
                int(hashlib.md5(f"ws:{int(i)}".encode()).hexdigest()[:12],
                    16)
                for i in ids
            ],
            dtype=np.int64,
        )
        out = pd.DataFrame({"doc_id": ids, "prio": h // w})
        return out.sort_values(["prio", "doc_id"]).head(k)

    cand = (
        _t(sf_dir, "documents", ["doc_id", "n_chars"], num_blocks=8)
        .map_batches(partial, batch_format="pandas")
        .to_pandas()  # <= k per block
    )
    return (
        cand.sort_values(["prio", "doc_id"]).head(k).reset_index(drop=True)
    )


WEIGHTED_SAMPLE_SQL = """
WITH h AS (
  SELECT doc_id,
         CAST(('0x' || substr(
             md5('ws:' || CAST(doc_id AS VARCHAR)), 1, 12)) AS BIGINT)
           // GREATEST(n_chars, 1) AS prio
  FROM documents
)
SELECT doc_id, prio FROM h ORDER BY prio, doc_id LIMIT 100
"""


def stratified_sample_docs(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Stratified consistent sample: the k docs with the smallest
    md5-64 of their id WITHIN EACH LANGUAGE — equal representation per
    stratum regardless of corpus skew (the eval-set construction
    pattern; rebalance_sample is the stride-downsample analog for
    events). Hash-stable like consistent_sample_docs: membership is a
    pure function of the ids, so growing one language's corpus never
    perturbs another stratum's picks. Scale shape: each batch keeps its
    local k smallest PER STRATUM (bounded rows out: strata x k per
    block, independent of block size); the driver merges
    <= strata*k*blocks tiny rows. The hash is carried as the
    16-hex-char prefix (fixed-width hex sorts lexicographically ==
    numerically in both engines)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        h = [
            hashlib.md5(str(int(i)).encode()).hexdigest()[:16] for i in ids
        ]
        out = pd.DataFrame({
            "lang": batch["lang"].to_numpy(dtype=object),
            "doc_id": ids,
            "h": pd.Series(h, dtype="object"),
        })
        return (
            out.sort_values(["lang", "h", "doc_id"])
            .groupby("lang", as_index=False, sort=False)
            .head(k)
        )

    cand = (
        _t(sf_dir, "documents", ["doc_id", "lang"], num_blocks=8)
        .map_batches(partial, batch_format="pandas")
        .to_pandas()  # <= strata*k per block
    )
    return (
        cand.sort_values(["lang", "h", "doc_id"])
        .groupby("lang", as_index=False, sort=False)
        .head(k)
        .reset_index(drop=True)
    )


STRATIFIED_SAMPLE_SQL = """
WITH h AS (
  SELECT lang, doc_id,
         substr(md5(CAST(doc_id AS VARCHAR)), 1, 16) AS h,
         row_number() OVER (
           PARTITION BY lang ORDER BY substr(
             md5(CAST(doc_id AS VARCHAR)), 1, 16), doc_id) AS rn
  FROM documents
)
SELECT lang, doc_id, h FROM h WHERE rn <= 20 ORDER BY lang, h, doc_id
"""


def hourly_distinct_users_hll(sf_dir: str) -> pd.DataFrame:
    """Windowed sketch composition: APPROXIMATE distinct users per hour
    via one HLL per hour — the streaming-analytics gauge ("how many
    uniques this hour") that never shuffles raw events. Per batch:
    pre-maxed (hour, bucket, rho) rows (<= hours*256 however large the
    batch); ALL buckets of an hour co-locate by routing on
    hour %% num_parts, so each part emits finished per-hour estimator
    rows and the driver merges <= n_hours tiny rows. Registers and the
    integer register sum are bit-identical to the SQL rebuild."""
    from ..functions.sketch import _HLL_M, _HLL_W, _h64_many, hll_estimate

    num_parts = 16

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        secs = (
            batch["ts"].astype("datetime64[ns]").astype("int64")
            // 1_000_000_000
        )
        hidx = (secs // 3600).to_numpy(np.int64)
        uid = batch["user_id"].to_numpy(np.int64)
        df = pd.DataFrame({"hidx": hidx, "uid": uid}).drop_duplicates()
        H = _h64_many([str(int(u)) for u in df["uid"]])
        bucket = (H >> np.uint64(56)).astype(np.int64)
        w = H & np.uint64((1 << _HLL_W) - 1)
        _, exp = np.frexp(w.astype(np.float64))
        rho = np.int64(_HLL_W + 1) - exp.astype(np.int64)
        out = (
            pd.DataFrame(
                {"hidx": df["hidx"].to_numpy(), "bucket": bucket, "rho": rho}
            )
            .groupby(["hidx", "bucket"], as_index=False)["rho"].max()
        )
        out["_part"] = (out["hidx"] % num_parts).astype(np.int64)
        for c in ("hidx", "bucket", "rho"):
            out[c] = out[c].astype("int64")
        return out

    def estimate(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        merged = g.groupby(["hidx", "bucket"], as_index=False)["rho"].max()
        for hidx, sub in merged.groupby("hidx"):
            m_j = np.zeros(_HLL_M, dtype=np.int64)
            m_j[sub["bucket"].to_numpy()] = sub["rho"].to_numpy()
            est = hll_estimate(m_j)
            rows.append(
                {
                    "hour": pd.to_datetime(
                        int(hidx) * 3600, unit="s"
                    ).strftime("%Y-%m-%d %H"),
                    "nonzero": int(est["nonzero"].iloc[0]),
                    "int_sum": int(est["int_sum"].iloc[0]),
                    "est_distinct": float(est["est_distinct"].iloc[0]),
                }
            )
        out = pd.DataFrame(
            rows,
            columns=["hour", "nonzero", "int_sum", "est_distinct"],
        )
        out["nonzero"] = out["nonzero"].astype("int64")
        out["int_sum"] = out["int_sum"].astype("int64")
        return out

    return (
        _t(sf_dir, "events", ["ts", "user_id"])
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(estimate, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()  # <= n_hours rows
    )


HOURLY_HLL_SQL = r"""
WITH h AS (
  SELECT DISTINCT strftime(ts, '%Y-%m-%d %H') AS hour,
    ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS H
  FROM events
),
r AS (
  SELECT hour, CAST(H >> 56 AS BIGINT) AS bucket,
         CASE WHEN (H & ((1::UBIGINT << 48) - 1)) = 0 THEN 49
              ELSE 49 - length(bin((H & ((1::UBIGINT << 48) - 1))::BIGINT))
         END AS rho
  FROM h
),
regs AS (SELECT hour, bucket, max(rho) AS m_j FROM r GROUP BY 1, 2),
s AS (
  SELECT hour, count(*) AS nonzero,
         sum((1::UBIGINT << (49 - m_j))::BIGINT) AS int_sum_nz
  FROM regs GROUP BY hour
)
SELECT hour,
       CAST(nonzero AS BIGINT) AS nonzero,
       CAST(int_sum_nz + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT
            AS BIGINT) AS int_sum,
       round(
         CASE WHEN (0.7213 / (1.0 + 1.079 / 256.0)) * 256.0 * 256.0
                   * (1::UBIGINT << 49)::DOUBLE
                   / (int_sum_nz
                      + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT)::DOUBLE
                   <= 2.5 * 256.0
               AND nonzero < 256
         THEN 256.0 * ln(256.0 / (256.0 - nonzero))
         ELSE (0.7213 / (1.0 + 1.079 / 256.0)) * 256.0 * 256.0
              * (1::UBIGINT << 49)::DOUBLE
              / (int_sum_nz
                 + (256 - nonzero) * (1::UBIGINT << 49)::BIGINT)::DOUBLE
         END, 2) AS est_distinct
FROM s
"""


# --- round-5 continuation: CC profile, collocations, source formats --------


def dup_cluster_profile_docs(sf_dir: str) -> pd.DataFrame:
    """Near-dup CLUSTER PROFILE: distributed connected components over
    the SimHash Hamming<=3 pair graph (the same provably-complete
    4x16-band pairing `simhash_dedup_keep_first` verifies), reduced to
    the cluster-size histogram with a sum-of-roots column per size —
    so the oracle hash pins the component LABELING itself (every
    cluster's min-doc_id root), not just the derived drop set.
    Singletons (docs in no pair) are size-1 clusters rooted at
    themselves. Integer-only output.

    Scale shape: pairs come from the banding exchange; labeling is
    `connected_components_distributed` (the min-label-propagation path
    a 100-TB corpus auto-selects — per-round co-partition exchanges,
    state in the object store); per-root sizes take ONE fixed-int-bucket
    exchange on root % P; the histogram is a bounded-cardinality
    tree-sum, so the driver holds only (distinct sizes x parts) partial
    rows. Singleton stats are two O(1) dataset aggregates, never a
    node-set materialization."""
    from ..functions.dedup import (
        connected_components_distributed,
        simhash_dup_pairs,
    )

    ids = _t(sf_dir, "documents", ["doc_id"])
    n_total = ids.count()
    sum_total = int(ids.sum("doc_id") or 0)
    empty = pd.DataFrame(
        {
            "cluster_size": pd.Series([], dtype="int64"),
            "n_clusters": pd.Series([], dtype="int64"),
            "sum_root": pd.Series([], dtype="int64"),
        }
    )
    if n_total == 0:
        return empty
    docs = _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=8)
    pairs = simhash_dup_pairs(
        docs, max_hamming=3, max_bucket=None
    ).materialize()
    if pairs.count() == 0:
        return pd.DataFrame(
            {
                "cluster_size": np.array([1], dtype=np.int64),
                "n_clusters": np.array([n_total], dtype=np.int64),
                "sum_root": np.array([sum_total], dtype=np.int64),
            }
        )
    roots = connected_components_distributed(pairs).materialize()
    n_graph = roots.count()
    sum_graph = int(roots.sum("doc_id") or 0)
    P = 16

    def route(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["_part"] = (
            batch["root"].to_numpy(dtype=np.int64) % P
        ).astype(np.int64)
        return batch

    def prof(g: pd.DataFrame) -> pd.DataFrame:
        # a root's WHOLE cluster is co-located here (routed on root)
        sizes = g.groupby("root", sort=False).size().reset_index(name="sz")
        h = sizes.groupby("sz", sort=False)
        return pd.DataFrame(
            {
                "cluster_size": h.size().index.to_numpy(dtype=np.int64),
                "n_clusters": h.size().to_numpy(dtype=np.int64),
                "sum_root": h["root"].sum().to_numpy(dtype=np.int64),
            }
        )

    hist = tree_sum_by_key(
        roots.map_batches(route, batch_format="pandas", batch_size=65536)
        .sort("_part")
        .map_batches(per_group(prof, "_part"),
                     batch_size=None, batch_format="pyarrow"),
        ["cluster_size"],
    )
    n_single = n_total - n_graph
    if n_single > 0:
        hist = pd.concat(
            [
                hist,
                pd.DataFrame(
                    {
                        "cluster_size": np.array([1], dtype=np.int64),
                        "n_clusters": np.array([n_single], dtype=np.int64),
                        "sum_root": np.array(
                            [sum_total - sum_graph], dtype=np.int64
                        ),
                    }
                ),
            ],
            ignore_index=True,
        )
    hist = hist.sort_values("cluster_size").reset_index(drop=True)
    return hist.astype(
        {"cluster_size": np.int64, "n_clusters": np.int64,
         "sum_root": np.int64}
    )


#: exact Hamming-closure components over the pinned reference
#: signatures (same CTE chain as SIMHASH_KEEP_FIRST_SQL), profiled.
#: Graph clusters always have size >= 2, so the singleton UNION branch
#: can never collide with a histogram row.
DUP_CLUSTER_SQL = f"""
WITH RECURSIVE t AS (
  SELECT md5(text) AS tag FROM documents
  WHERE doc_id = (SELECT min(doc_id) FROM documents)
),
f AS (
  SELECT doc_id, simhash_int
  FROM read_parquet('{_FIXTURE_DIR}/simhash_*.parquet') s, t
  WHERE s.tag = t.tag
),
dup_pairs AS (
  SELECT a.doc_id AS u, b.doc_id AS v
  FROM f a JOIN f b ON a.doc_id < b.doc_id
  WHERE bit_count(xor(a.simhash_int, b.simhash_int)) <= 3
),
edges AS (
  SELECT u, v FROM dup_pairs UNION SELECT v, u FROM dup_pairs
),
reach(a, b) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, r.b FROM edges e JOIN reach r ON e.v = r.a
),
label AS (SELECT a AS doc_id, min(b) AS root FROM reach GROUP BY a),
sizes AS (SELECT root, count(*) AS sz FROM label GROUP BY root),
hist AS (
  SELECT sz AS cluster_size, count(*) AS n_clusters,
         sum(root) AS sum_root
  FROM sizes GROUP BY sz
),
singles AS (
  SELECT 1 AS cluster_size, count(*) AS n_clusters,
         sum(d.doc_id) AS sum_root
  FROM documents d LEFT JOIN label l ON d.doc_id = l.doc_id
  WHERE l.doc_id IS NULL
)
SELECT CAST(cluster_size AS BIGINT) AS cluster_size,
       CAST(n_clusters AS BIGINT) AS n_clusters,
       CAST(sum_root AS BIGINT) AS sum_root
FROM (SELECT * FROM hist UNION ALL
      SELECT * FROM singles WHERE n_clusters > 0)
ORDER BY cluster_size
"""


def collocation_topk_docs(
    sf_dir: str, min_count: int = 5, k: int = 30, delta: int = 1
) -> pd.DataFrame:
    """Collocation mining (word2phrase, Mikolov et al. 2013 §4): the
    top-k adjacent token bigrams by association score
    score = (count(ab) - delta) * N / (count(a) * count(b)), computed in
    EXACT fixed-point — score_fp = ((cnt-delta) * N * 10^6) //
    (cnt_a * cnt_b), every operand an integer, both engines floor
    identically, so the hash cannot hinge on float division. Ties break
    on (tok_a, tok_b). Python-int arithmetic on the bounded candidate
    frame keeps the product exact; at 10^10-token scale the 10^6
    fixed-point scale would be lowered (or kept in int128) — the
    counting path, which is the hot one, never forms the product.

    Scale shape: unigram counts are per-batch value_counts partials
    tree-summed (vocabulary-bounded — the token_commonness broadcast
    caveat applies; an open vocabulary would route candidates through
    two more hash(token) co-partition exchanges instead); bigram counts
    are per-batch combiners -> ONE hash(tok_a,tok_b) % P exchange ->
    per-part sum + min_count prune + score + local top-k; the driver
    merges P bounded top-k partials."""
    docs = _t(sf_dir, "documents", ["doc_id", "text"], num_blocks=16)
    P = 16
    uni_empty = pd.DataFrame(
        {"token": pd.Series([], dtype="object"),
         "c": pd.Series([], dtype="int64")}
    )

    def uni_partial(batch: pd.DataFrame) -> pd.DataFrame:
        ex = batch["text"].str.split().explode().dropna()
        if ex.empty:
            return uni_empty
        vc = ex.value_counts()
        return pd.DataFrame(
            {"token": vc.index.to_numpy(dtype=object),
             "c": vc.to_numpy(dtype=np.int64)}
        )

    uni = tree_sum_by_key(
        docs.map_batches(uni_partial, batch_format="pandas"), ["token"]
    )
    out_empty = pd.DataFrame(
        {
            "tok_a": pd.Series([], dtype="object"),
            "tok_b": pd.Series([], dtype="object"),
            "pair_cnt": pd.Series([], dtype="int64"),
            "cnt_a": pd.Series([], dtype="int64"),
            "cnt_b": pd.Series([], dtype="int64"),
            "score_fp": pd.Series([], dtype="int64"),
        }
    )
    if uni.empty:
        return out_empty
    nt = int(uni["c"].sum())
    v_ref = ray.put(dict(zip(uni["token"], uni["c"].astype(np.int64))))

    bi_empty = pd.DataFrame(
        {
            "tok_a": pd.Series([], dtype="object"),
            "tok_b": pd.Series([], dtype="object"),
            "pair_cnt": pd.Series([], dtype="int64"),
            "_part": pd.Series([], dtype="int64"),
        }
    )

    def bi_partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch.set_index("doc_id")["text"].str.split()
        ex = toks.explode().dropna()
        if len(ex) < 2:
            return bi_empty
        ids = ex.index.to_numpy()
        w = ex.to_numpy()
        m = ids[1:] == ids[:-1]  # adjacent within one doc only
        if not m.any():
            return bi_empty
        df = pd.DataFrame({"tok_a": w[:-1][m], "tok_b": w[1:][m]})
        out = (
            df.groupby(["tok_a", "tok_b"], sort=False)
            .size()
            .reset_index(name="pair_cnt")
        )
        out["pair_cnt"] = out["pair_cnt"].astype(np.int64)
        h = pd.util.hash_pandas_object(
            out[["tok_a", "tok_b"]], index=False
        )
        out["_part"] = (h.to_numpy() % P).astype(np.int64)
        return out

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby(["tok_a", "tok_b"], sort=False)["pair_cnt"]
            .sum()
            .reset_index()
        )
        s = s[s["pair_cnt"] >= min_count]
        if s.empty:
            return out_empty
        v = ray.get(v_ref)
        ca = s["tok_a"].map(v).to_numpy(dtype=np.int64)
        cb = s["tok_b"].map(v).to_numpy(dtype=np.int64)
        cnt = s["pair_cnt"].to_numpy(dtype=np.int64)
        # exact big-int fixed point on the BOUNDED candidate frame
        score = np.fromiter(
            (
                ((int(c) - delta) * nt * 1_000_000) // (int(a) * int(b))
                for c, a, b in zip(cnt, ca, cb)
            ),
            dtype=np.int64,
            count=len(cnt),
        )
        out = pd.DataFrame(
            {
                "tok_a": s["tok_a"].to_numpy(dtype=object),
                "tok_b": s["tok_b"].to_numpy(dtype=object),
                "pair_cnt": cnt,
                "cnt_a": ca,
                "cnt_b": cb,
                "score_fp": score,
            }
        )
        return out.sort_values(
            ["score_fp", "tok_a", "tok_b"], ascending=[False, True, True]
        ).head(k)

    parts = (
        docs.map_batches(bi_partial, batch_format="pandas")
        .sort("_part")
        .map_batches(per_group(score_part, "_part"),
                     batch_size=None, batch_format="pyarrow")
        .to_pandas()
    )
    if parts.empty:
        return out_empty
    return (
        parts.sort_values(
            ["score_fp", "tok_a", "tok_b"], ascending=[False, True, True]
        )
        .head(k)
        .reset_index(drop=True)
        .astype(
            {"pair_cnt": np.int64, "cnt_a": np.int64, "cnt_b": np.int64,
             "score_fp": np.int64}
        )
    )


COLLOCATION_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS w,
         generate_subscripts(list_filter(regexp_split_to_array(text, '\s+'),
                                         x -> x <> ''), 1) AS pos
  FROM documents
),
uni AS (SELECT w, count(*) AS c FROM tok GROUP BY w),
n AS (SELECT count(*) AS nt FROM tok),
bi AS (
  SELECT a.w AS tok_a, b.w AS tok_b, count(*) AS pair_cnt
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  GROUP BY 1, 2
)
SELECT tok_a, tok_b,
       CAST(pair_cnt AS BIGINT) AS pair_cnt,
       CAST(ua.c AS BIGINT) AS cnt_a,
       CAST(ub.c AS BIGINT) AS cnt_b,
       CAST((CAST(pair_cnt - 1 AS HUGEINT) * nt * 1000000)
            // (CAST(ua.c AS HUGEINT) * ub.c) AS BIGINT) AS score_fp
FROM bi JOIN uni ua ON bi.tok_a = ua.w JOIN uni ub ON bi.tok_b = ub.w, n
WHERE pair_cnt >= 5
ORDER BY score_fp DESC, tok_a, tok_b
LIMIT 30
"""


_ROUNDTRIP_LOCK = threading.Lock()
_ROUNDTRIP_DIRS: dict = {}


def _export_docs(sf_dir: str, fmt: str) -> str:
    """Export documents(doc_id, source, text) to JSONL or CSV shards
    under /tmp ONCE per (sf_dir, fmt) per process — the read-back half
    of the roundtrip is the operator under test. Sharded files (one per
    input block), never one giant file."""
    key = (os.path.abspath(sf_dir), fmt)
    with _ROUNDTRIP_LOCK:
        if key in _ROUNDTRIP_DIRS:
            return _ROUNDTRIP_DIRS[key]
        out = tempfile.mkdtemp(prefix=f"docs_{fmt}_")
        ds = _t(sf_dir, "documents", ["doc_id", "source", "text"])
        if fmt == "jsonl":
            ds.write_json(out)
        else:
            ds.write_csv(out)
        atexit.register(shutil.rmtree, out, ignore_errors=True)
        _ROUNDTRIP_DIRS[key] = out
        return out


def _roundtrip_stats(ds: rd.Dataset) -> pd.DataFrame:
    """Per-source integer stats over a read-back documents dataset —
    any mangling of ids or text bytes through the wire format flips
    sum_doc_id / sum_text_len and the oracle hash."""
    empty = pd.DataFrame(
        {
            "source": pd.Series([], dtype="object"),
            "n_docs": pd.Series([], dtype="int64"),
            "sum_doc_id": pd.Series([], dtype="int64"),
            "sum_text_len": pd.Series([], dtype="int64"),
        }
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return empty
        batch = batch.assign(
            _len=batch["text"].str.len().astype(np.int64)
        )
        g = batch.groupby("source", sort=False)
        return pd.DataFrame(
            {
                "source": g.size().index.to_numpy(dtype=object),
                "n_docs": g.size().to_numpy(dtype=np.int64),
                "sum_doc_id": g["doc_id"].sum().to_numpy(dtype=np.int64),
                "sum_text_len": g["_len"].sum().to_numpy(dtype=np.int64),
            }
        )

    out = tree_sum_by_key(
        ds.map_batches(partial, batch_format="pandas"), ["source"]
    )
    if out.empty:
        return empty
    return (
        out.sort_values("source")
        .reset_index(drop=True)
        .astype(
            {"n_docs": np.int64, "sum_doc_id": np.int64,
             "sum_text_len": np.int64}
        )
    )


def jsonl_roundtrip_docs(sf_dir: str) -> pd.DataFrame:
    """JSONL source format end-to-end: documents exported to line-JSON
    shards, read back with `ray.data.read_json`, then per-source
    integer stats checked against the parquet originals — the format
    adapter a web-crawl corpus (WARC-derived JSONL) lands in. Escaping,
    unicode, and numeric fidelity are all on the hook: one mangled
    byte flips sum_text_len."""
    path = _export_docs(sf_dir, "jsonl")
    return _roundtrip_stats(rd.read_json(path))


def csv_roundtrip_docs(sf_dir: str) -> pd.DataFrame:
    """CSV source format end-to-end (arrow CSV writer/parser: quoting,
    embedded-delimiter escaping), same per-source stats oracle as the
    JSONL roundtrip."""
    path = _export_docs(sf_dir, "csv")
    return _roundtrip_stats(rd.read_csv(path))


#: shared oracle for both roundtrips: the stats over the ORIGINAL
#: parquet view — a lossy wire format cannot reproduce them.
ROUNDTRIP_SQL = """
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(doc_id) AS BIGINT) AS sum_doc_id,
       CAST(sum(length(text)) AS BIGINT) AS sum_text_len
FROM documents GROUP BY source ORDER BY source
"""


# --- registry ---------------------------------------------------------------

QUERIES: dict[str, tuple] = {
    # name: (callable, oracle_sql | None)
    # Ordered: never-driver-signed queries first (round-5 directive #1 —
    # the driver samples the first 50 entries for CORRECTNESS), then the
    # previously-signed tail in original order.
    "semantic_dedup_embeddings": (semantic_dedup_embeddings, SEMDEDUP_SQL),
    "pca_power_iter_embeddings": (pca_power_iter_embeddings, PCA_SQL),
    "hourly_event_spikes": (hourly_event_spikes, HOURLY_SPIKES_SQL),
    "doc_length_percentiles": (doc_length_percentiles, DOC_LENGTH_PCT_SQL),
    "event_value_percentiles": (event_value_percentiles, PERCENTILES_SQL),
    "daily_type_pivot": (daily_type_pivot, PIVOT_SQL),
    "hll_distinct_users": (hll_distinct_users, HLL_SQL),
    "cms_top_token_counts": (cms_top_token_counts, CMS_SQL),
    "bloom_semijoin_orders": (bloom_semijoin_orders, BLOOM_SQL),
    "duplicated_spans_docs": (duplicated_spans_docs, SPANS_SQL),
    "line_dedup_rewrite_docs": (line_dedup_rewrite_docs, LINE_DEDUP_SQL),
    "sliding_window_stats": (sliding_window_stats, SLIDING_SQL),
    "tfidf_top_term_docs": (tfidf_top_term_docs, TFIDF_SQL),
    "cdc_lake_range_read": (cdc_lake_range_read, CDC_RANGE_SQL),
    "cdc_lake_zorder_read": (cdc_lake_zorder_read, CDC_ZORDER_SQL),
    "cdc_lake_vacuum_read": (cdc_lake_vacuum_read, CDC_VACUUM_SQL),
    "cdc_incremental_dedup": (cdc_incremental_dedup, INCR_DEDUP_SQL),
    "kcenter_select_embeddings": (kcenter_select_embeddings, KCENTER_SQL),
    "cdc_incremental_neardup": (cdc_incremental_neardup, INCR_NEARDUP_SQL),
    "export_shuffled_docs": (export_shuffled_docs, EXPORT_SHUFFLE_SQL),
    "semantic_decontaminate_embeddings": (
        semantic_decontaminate_embeddings, SEMANTIC_DECON_SQL),
    "cdc_lake_hll_view": (cdc_lake_hll_view, CDC_HLL_SQL),
    "consistent_sample_docs": (consistent_sample_docs, CONSISTENT_SAMPLE_SQL),
    "split_assign_docs": (split_assign_docs, SPLIT_ASSIGN_SQL),
    "weighted_sample_docs": (weighted_sample_docs, WEIGHTED_SAMPLE_SQL),
    "stratified_sample_docs": (stratified_sample_docs,
                               STRATIFIED_SAMPLE_SQL),
    "mixture_resample_docs": (mixture_resample_docs, MIXTURE_RESAMPLE_SQL),
    "dsir_resample_docs": (dsir_resample_docs, DSIR_SQL),
    "pagerank_trade_graph": (pagerank_trade_graph, PAGERANK_SQL),
    "hourly_distinct_users_hll": (hourly_distinct_users_hll, HOURLY_HLL_SQL),
    "cdc_lake_dup_gauge": (cdc_lake_dup_gauge, CDC_DUP_GAUGE_SQL),
    "decontaminate_docs": (decontaminate_docs, DECONTAMINATE_SQL),
    "repetition_filter_docs": (repetition_filter_docs, REPETITION_SQL),
    "redact_pii_docs": (redact_pii_docs, REDACT_SQL),
    "media_decode_stats": (media_decode_stats, MEDIA_DECODE_SQL),
    "media_resize_stats": (media_resize_stats, RESIZE_SQL),
    "video_frame_sample_stats": (
        video_frame_sample_stats, VIDEO_FRAMES_SQL,
    ),
    "quantized_ann_topk": (quantized_ann_topk, QUANTIZED_ANN_SQL),
    "bigram_lm_docs": (bigram_lm_docs, BIGRAM_LM_SQL),
    "bpe_encode_docs": (bpe_encode_docs, BPE_ENCODE_SQL),
    "dup_cluster_profile_docs": (dup_cluster_profile_docs, DUP_CLUSTER_SQL),
    "collocation_topk_docs": (collocation_topk_docs, COLLOCATION_SQL),
    "jsonl_roundtrip_docs": (jsonl_roundtrip_docs, ROUNDTRIP_SQL),
    "csv_roundtrip_docs": (csv_roundtrip_docs, ROUNDTRIP_SQL),
    "triangle_count_graph": (triangle_count_graph, TRIANGLE_SQL),
    "common_neighbors_topk": (common_neighbors_topk, COMMON_NEIGHBORS_SQL),
    "q1_pricing_summary": (q1_pricing_summary, Q1_SQL),
    "top10_orders": (top10_orders, TOP10_SQL),
    "distinct_sources": (distinct_sources, DISTINCT_SQL),
    "nation_region_join": (nation_region_join, NATION_REGION_SQL),
    "mktsegment_order_stats": (mktsegment_order_stats, MKTSEG_SQL),
    "revenue_by_month": (revenue_by_month, REVENUE_MONTH_SQL),
    "orderkeys_union": (orderkeys_union, UNION_SQL),
    "orders_customer_hash_join": (orders_customer_hash_join, HASH_JOIN_SQL),
    "semi_anti_join_orders": (semi_anti_join_orders, SEMI_ANTI_SQL),
    "top_customer_revenue": (top_customer_revenue, TOP_REVENUE_SQL),
    "local_supplier_volume": (local_supplier_volume, LOCAL_SUPPLIER_SQL),
    "promo_revenue_share": (promo_revenue_share, PROMO_SHARE_SQL),
    "corpus_pipeline_docs": (corpus_pipeline_docs, CORPUS_PIPELINE_SQL),
    "lm_coverage_prune_docs": (lm_coverage_prune_docs, LM_COVERAGE_SQL),
    "props_json_stats": (props_json_stats, PROPS_JSON_SQL),
    "late_shipment_priority_counts": (
        late_shipment_priority_counts, LATE_PRIORITY_SQL),
    "global_sales_opportunity": (
        global_sales_opportunity, SALES_OPPORTUNITY_SQL),
    "cdc_epoch_diff": (cdc_epoch_diff, CDC_DIFF_SQL),
    "orders_above_customer_avg": (
        orders_above_customer_avg, ABOVE_AVG_SQL),
    "cdc_wire_formats_lww": (cdc_wire_formats_lww, WIRE_FORMATS_SQL),
    "revenue_rollup_orders": (revenue_rollup_orders, REVENUE_ROLLUP_SQL),
    "sessionize_events": (sessionize_events, SESSIONIZE_SQL),
    "user_rolling_window": (user_rolling_window, ROLLING_SQL),
    "asof_latest_order": (asof_latest_order, ASOF_SQL),
    "range_join_orders": (range_join_orders, RANGE_JOIN_SQL),
    "top2_orders_per_customer": (top2_orders_per_customer, TOP2_SQL),
    "distinct_user_count": (distinct_user_count, DISTINCT_COUNT_SQL),
    "systematic_sample": (systematic_sample, SAMPLE_SQL),
    "rebalance_sample": (rebalance_sample, REBALANCE_SQL),
    "events_sorted_head": (events_sorted_head, SORT_HEAD_SQL),
    "cdc_lww_latest": (cdc_lww_latest, LWW_SQL),
    "cdc_apply_final": (cdc_apply_final, APPLY_SQL),
    "watermark_max": (watermark_max, WATERMARK_SQL),
    "event_type_counts": (event_type_counts, TYPE_COUNTS_SQL),
    "table_filter_include": (table_filter_include, FILTER_INCLUDE_SQL),
    "table_filter_exclude": (table_filter_exclude, FILTER_EXCLUDE_SQL),
    "column_projection": (column_projection, PROJECTION_SQL),
    "token_counts_docs": (token_counts_docs, TOKEN_COUNT_SQL),
    "pack_sequences_docs": (pack_sequences_docs, PACK_SQL),
    "top_tokens_docs": (top_tokens_docs, TOP_TOKENS_SQL),
    "token_commonness_docs": (token_commonness_docs, TOKEN_COMMONNESS_SQL),
    "source_drift_docs": (source_drift_docs, SOURCE_DRIFT_SQL),
    "bpe_merges_docs": (bpe_merges_docs, BPE_SQL),
    "doc_fingerprints": (doc_fingerprints, FINGERPRINT_SQL),
    "text_quality_docs": (text_quality_docs, QUALITY_SQL),
    "quality_prune_docs": (quality_prune_docs, QUALITY_PRUNE_SQL),
    "lang_id_docs": (lang_id_docs, LANG_ID_SQL),
    "corpus_prep_stats": (corpus_prep_stats, CORPUS_PREP_SQL),
    "chunk_documents": (chunk_documents, CHUNK_SQL),
    "dedup_exact_docs": (dedup_exact_docs, DEDUP_EXACT_SQL),
    "minhash_near_dup_docs": (minhash_near_dup_docs, MINHASH_SQL),
    "ngram_jaccard_pairs": (ngram_jaccard_docs, NGRAM_JACCARD_SQL),
    "ngram_dedup_keep_first": (ngram_dedup_keep_first_docs,
                               NGRAM_KEEP_FIRST_SQL),
    "minhash_dedup_keep_first": (minhash_dedup_keep_first_docs, KEEP_FIRST_SQL),
    "simhash_docs": (simhash_docs, SIMHASH_SQL),
    "simhash_dedup_keep_first": (simhash_dedup_keep_first,
                                 SIMHASH_KEEP_FIRST_SQL),
    "ann_topk_cosine": (ann_topk_cosine, ANN_SQL),
    "ivf_ann_topk": (ivf_ann_topk, ANN_SQL),
    "kmeans_embeddings": (kmeans_embeddings, KMEANS_SQL),
    "embedding_near_dup": (embedding_near_dup, EMB_NEAR_DUP_SQL),
    "embedding_near_dup_lsh": (embedding_near_dup_lsh, EMB_NEAR_DUP_SQL),
    "embedding_dedup_keep_first": (embedding_dedup_keep_first,
                                   EMB_KEEP_FIRST_SQL),
    "lsh_ann_topk": (lsh_ann_topk, LSH_TOPK_SQL),
    "user_hourly_activity": (user_hourly_activity, HOURLY_SQL),
    "cdc_replay_lake": (cdc_replay_lake, CDC_REPLAY_SQL),
}


def build_queries():
    return {name: fn for name, (fn, _) in QUERIES.items()}


def build_oracle_sql():
    return {name: sql for name, (_, sql) in QUERIES.items() if sql}
