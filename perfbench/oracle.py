"""Engine-independent output check for the lake benchmark.

The expected lake state is computed by DuckDB (one thread) straight from the
generated change log and bootstrap table, with no code from `data_sync_ray`:

    QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY log_pos DESC) = 1
            AND op <> 'delete'

Point lookups are checked against per-key histories pulled from the same log,
so a lookup issued after epoch E is compared with the winner among events of
epochs <= E.
"""

from __future__ import annotations

import duckdb
import pyarrow as pa

#: the compared columns, in canonical types; `quality` is the column the
#: schema-evolution epochs add (absent = all null)
CHECK_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
        ("log_pos", pa.int64()),
        ("quality", pa.float32()),
    ]
)

#: events of this table are applied; every other table is filtered out
INCLUDED_TABLE = "docs"


def canonical(t: pa.Table) -> pa.Table:
    """Project `t` onto CHECK_SCHEMA (missing columns become nulls), sorted
    by doc_id, one chunk per column."""
    cols = []
    for f in CHECK_SCHEMA:
        if f.name in t.column_names:
            cols.append(t.column(f.name).cast(f.type))
        else:
            cols.append(pa.nulls(t.num_rows, f.type))
    out = pa.Table.from_arrays(cols, schema=CHECK_SCHEMA)
    return out.sort_by("doc_id").combine_chunks()


def event_log(epochs: list[pa.Table]) -> pa.Table:
    """The generated per-epoch tables as one log with an int64 `epoch`."""
    tagged = [
        t.append_column("epoch", pa.array([e] * t.num_rows, pa.int64()))
        for e, t in enumerate(epochs)
    ]
    return pa.concat_tables(tagged, promote_options="default")


class Oracle:
    """DuckDB LWW reference over a bootstrap table and a change log."""

    def __init__(self, bootstrap: pa.Table | None, log: pa.Table):
        self._con = duckdb.connect(config={"threads": 1})
        if "quality" not in log.column_names:
            log = log.append_column("quality", pa.nulls(log.num_rows, pa.float32()))
        if bootstrap is None:
            bootstrap = CHECK_SCHEMA.empty_table()
        self._con.register("docs", log)
        self._con.register("boot", bootstrap.select(
            ["doc_id", "tokens", "n_tok", "source", "log_pos"]
        ))
        self._con.execute(
            f"""
            CREATE TEMP VIEW events AS
            SELECT doc_id, tokens, n_tok, source, log_pos,
                   CAST(quality AS FLOAT) AS quality, op, epoch
            FROM docs WHERE "table" = '{INCLUDED_TABLE}'
            UNION ALL
            SELECT doc_id, tokens, n_tok, source, log_pos,
                   CAST(NULL AS FLOAT), 'insert', CAST(-1 AS BIGINT)
            FROM boot
            """
        )

    def state(self, through_epoch: int | None = None) -> pa.Table:
        """Expected live rows after all epochs <= through_epoch (None: all)."""
        where = "" if through_epoch is None else f"WHERE epoch <= {int(through_epoch)}"
        q = f"""
            SELECT doc_id, tokens, n_tok, source, log_pos, quality
            FROM (SELECT * FROM events {where})
            QUALIFY row_number() OVER (
                PARTITION BY doc_id ORDER BY log_pos DESC) = 1
              AND op <> 'delete'
        """
        return canonical(self._con.execute(q).arrow())

    def histories(self, keys: list[str]) -> "KeyHistory":
        """Every event (and bootstrap row) of `keys`, for lookup checks."""
        self._con.register("probe_keys", pa.table({"k": pa.array(keys, pa.string())}))
        t = self._con.execute(
            "SELECT e.* FROM events e JOIN probe_keys p ON e.doc_id = p.k"
        ).arrow()
        self._con.unregister("probe_keys")
        return KeyHistory(t)


class KeyHistory:
    """Per-key event lists; `expected(key, E)` is the LWW winner among the
    key's events of epochs <= E, or None when the winner is a delete or the
    key has no such event."""

    def __init__(self, t: pa.Table):
        self._by_key: dict[str, list[dict]] = {}
        for r in t.to_pylist():
            self._by_key.setdefault(r["doc_id"], []).append(r)
        for rows in self._by_key.values():
            rows.sort(key=lambda r: r["log_pos"])

    def expected(self, key: str, through_epoch: int) -> dict | None:
        win = None
        for r in self._by_key.get(key, ()):
            if r["epoch"] <= through_epoch:
                win = r
        if win is None or win["op"] == "delete":
            return None
        return {f.name: win[f.name] for f in CHECK_SCHEMA}


def compare_state(got: pa.Table, want: pa.Table) -> str | None:
    """None when `got` equals `want` exactly on CHECK_SCHEMA (nulls equal),
    else a one-line description of the first difference."""
    a, b = canonical(got), canonical(want)
    if a.num_rows != b.num_rows:
        return f"row count {a.num_rows} != expected {b.num_rows}"
    for name in CHECK_SCHEMA.names:
        ca, cb = a.column(name), b.column(name)
        if ca.equals(cb):
            continue
        bad = next(i for i in range(a.num_rows) if ca[i].as_py() != cb[i].as_py())
        return (
            f"column {name} differs at doc_id={a.column('doc_id')[bad].as_py()}"
            f" ({ca[bad].as_py()!r} != {cb[bad].as_py()!r})"
        )
    return None


def compare_lookup(got: pa.Table, want: dict | None) -> str | None:
    """None when a Lake.lookup result matches the expected row (or absence)."""
    if want is None:
        return None if got.num_rows == 0 else f"expected absent, got {got.num_rows} row(s)"
    if got.num_rows != 1:
        return f"expected 1 row for {want['doc_id']}, got {got.num_rows}"
    row = canonical(got).to_pylist()[0]
    for name, v in want.items():
        if row[name] != v:
            return f"{want['doc_id']}.{name}: {row[name]!r} != {v!r}"
    return None

