"""Runtime control surface for tailing jobs — the file-based analog of the
reference's HTTP control plane (/root/reference/src/server/http/server.go:
59-158: /sync/getConfig, /sync/setStrategyMode -> application.Reload, and
the Prometheus scrape at /sync/monitor/metrics, src/infrastructure/monitor/
monitor.go:44-108).

No HTTP framework in this sandbox, so the surface is two JSON files under
<lake_root>/control/ with the same semantics:

  status.json   — written by the tail loop each round: config snapshot,
                  per-round counters, lag/watermarks, failure totals.
                  Reading it IS getConfig + the metrics scrape (any
                  sidecar can poll and re-export it).
  control.json  — written by an operator (or ControlPlane.set_strategy_mode):
                  {"strategy_mode": "run"|"pause"|"stop",
                   "config": {mutable overrides}}. The tail loop reads it
                  between rounds and hot-applies it — the Reload analog
                  (app.go:97-116), minus the goroutine teardown Ray does
                  not need (each round is its own Dataset execution).

Lake-identity fields (num_partitions, key/order columns, lake_root) are
NOT hot-reloadable — changing them re-routes keys (see Lake.IMMUTABLE_FIELDS);
overrides naming them are rejected and reported in status.json.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from .config import SyncConfig

#: config fields the Reload analog may change between rounds
MUTABLE_FIELDS = (
    "include_tables",
    "exclude_tables",
    "filter_cols",
    "spill_groups",
    "batch_size",
    "fold_chunk_rows",
    "span_commit_epochs",
    "hot_key_threshold",
    "inspect_alarm_count",
    "schema_policy",
)

STRATEGY_MODES = ("run", "pause", "stop")


class ControlPlane:
    def __init__(self, lake_root: str):
        self.dir = os.path.join(lake_root, "control")
        self.status_path = os.path.join(self.dir, "status.json")
        self.control_path = os.path.join(self.dir, "control.json")

    # --- operator side (the HTTP-client analog) -----------------------------

    def set_strategy_mode(
        self, mode: str, config: dict | None = None
    ) -> None:
        """The setStrategyMode analog (server.go:129-158): queue a mode
        change and optional mutable-config overrides for the tail loop's
        next round."""
        if mode not in STRATEGY_MODES:
            raise ValueError(f"strategy_mode must be one of {STRATEGY_MODES}")
        from .state.lake import atomic_write_json

        os.makedirs(self.dir, exist_ok=True)
        atomic_write_json(
            self.control_path,
            {"strategy_mode": mode, "config": config or {}},
        )

    def get_status(self) -> dict | None:
        """The getConfig + metrics-scrape analog (server.go:117-121)."""
        if not os.path.exists(self.status_path):
            return None
        with open(self.status_path) as f:
            return json.load(f)

    # --- tail-loop side ------------------------------------------------------

    def read_control(self) -> dict:
        """Malformed control input must never kill the tail daemon —
        anything that isn't a well-formed {strategy_mode, config: dict}
        degrades to run-with-no-overrides."""
        if not os.path.exists(self.control_path):
            return {"strategy_mode": "run", "config": {}}
        try:
            with open(self.control_path) as f:
                d = json.load(f)
        except (json.JSONDecodeError, OSError):
            return {"strategy_mode": "run", "config": {}}
        if not isinstance(d, dict):
            return {"strategy_mode": "run", "config": {}}
        if d.get("strategy_mode") not in STRATEGY_MODES:
            d["strategy_mode"] = "run"
        if not isinstance(d.get("config"), dict):
            d["config"] = {}
        return d

    @staticmethod
    def _valid_override(key: str, value) -> bool:
        """Type/value gate so a mistyped override is REJECTED here instead
        of crashing the next replay round deep inside map_batches."""
        checks = {
            "include_tables": lambda v: isinstance(v, (list, tuple))
            and all(isinstance(x, str) for x in v),
            "exclude_tables": lambda v: isinstance(v, (list, tuple))
            and all(isinstance(x, str) for x in v),
            "filter_cols": lambda v: isinstance(v, dict)
            and all(
                isinstance(k, str) and isinstance(c, (list, tuple))
                for k, c in v.items()
            ),
            "spill_groups": lambda v: isinstance(v, int)
            and not isinstance(v, bool) and v >= 1,
            "batch_size": lambda v: isinstance(v, int)
            and not isinstance(v, bool) and v >= 1,
            "fold_chunk_rows": lambda v: isinstance(v, int)
            and not isinstance(v, bool) and v >= 1,
            "span_commit_epochs": lambda v: isinstance(v, int)
            and not isinstance(v, bool) and v >= 1,
            "hot_key_threshold": lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and 0 <= v <= 1,
            "inspect_alarm_count": lambda v: isinstance(v, int)
            and not isinstance(v, bool) and v >= 1,
            "schema_policy": lambda v: v in ("unify", "conform"),
        }
        check = checks.get(key)
        return bool(check and check(value))

    @staticmethod
    def apply_overrides(
        cfg: SyncConfig, overrides: dict
    ) -> tuple[SyncConfig, list[str], list[str]]:
        """The Reload analog: return (new config, applied, rejected).
        Unknown, immutable, and ill-typed fields are rejected, never
        applied — validation happens before the config swap, like any
        reload path worth the name."""
        applied, rejected = [], []
        d = dataclasses.asdict(cfg)
        for k, v in overrides.items():
            if k in MUTABLE_FIELDS and ControlPlane._valid_override(k, v):
                d[k] = v
                applied.append(k)
            else:
                rejected.append(k)
        if not applied:
            return cfg, applied, rejected
        for k in ("include_tables", "exclude_tables"):
            d[k] = tuple(d[k])
        d["filter_cols"] = {k: tuple(v) for k, v in d["filter_cols"].items()}
        return SyncConfig(**d), applied, rejected

    def write_status(self, payload: dict) -> None:
        from .state.lake import atomic_write_json

        os.makedirs(self.dir, exist_ok=True)
        payload = dict(payload)
        payload["ts"] = time.time()
        atomic_write_json(self.status_path, payload)


class ControlServer:
    """Thin HTTP front over the file-based control plane — the reference
    serves these over HTTP (src/server/http/server.go:59-158), so a
    Prometheus/ops sidecar expects a port, not a file to tail:

      GET  /status                 full status.json (raw JSON)
      GET  /sync/getConfig         the config snapshot inside status.json
      GET  /sync/monitor/metrics   Prometheus text exposition
      POST /sync/setStrategyMode   {"strategy_mode": ..., "config": {...}}

    Stdlib ThreadingHTTPServer on a daemon thread; state stays in the
    control/status files underneath, so killing the server loses nothing
    and a tail loop without it behaves identically. POST validates the
    mode up front (400 on junk) and reports which overrides the next
    round will apply vs reject (same validator the reload path runs)."""

    def __init__(self, lake_root: str, host: str = "127.0.0.1",
                 port: int = 0, rw_timeout: float = 5.0):
        self.cp = ControlPlane(lake_root)
        self.host, self.port = host, port
        self.rw_timeout = rw_timeout
        self._httpd = None
        self._thread = None

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port
        (port=0 picks a free one — tests and multi-job hosts)."""
        import http.server
        import threading

        cp = self.cp
        rw_timeout = self.rw_timeout

        class Handler(http.server.BaseHTTPRequestHandler):
            # socket timeout: a client that over-reports Content-Length
            # would otherwise park rfile.read(n) forever and pin a
            # handler thread — a short body now times out into a 400
            timeout = rw_timeout

            def log_message(self, *a):  # quiet: status goes to files
                pass

            def _send(self, code: int, body: bytes, ctype: str):
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _json(self, code: int, obj) -> None:
                self._send(code, json.dumps(obj).encode(),
                           "application/json")

            def do_GET(self):
                status = cp.get_status() or {}
                if self.path == "/status":
                    self._json(200, status)
                elif self.path == "/sync/getConfig":
                    self._json(200, status.get("config", {}))
                elif self.path == "/sync/monitor/metrics":
                    self._send(200, status_to_prometheus(status).encode(),
                               "text/plain; version=0.0.4")
                else:
                    self._json(404, {"error": "not found"})

            def do_POST(self):
                if self.path != "/sync/setStrategyMode":
                    self._json(404, {"error": "not found"})
                    return
                try:
                    n = int(self.headers.get("Content-Length", 0))
                    if n > 1 << 20:  # a control payload is never 1 MB
                        self._json(400, {"error": "body too large"})
                        return
                    body = json.loads(self.rfile.read(n) or b"{}")
                    assert isinstance(body, dict)
                except Exception:
                    self._json(400, {"error": "malformed JSON body"})
                    return
                mode = body.get("strategy_mode")
                if mode not in STRATEGY_MODES:
                    self._json(400, {
                        "error": f"strategy_mode must be one of "
                                 f"{STRATEGY_MODES}"})
                    return
                config = body.get("config")
                if config is not None and not isinstance(config, dict):
                    self._json(400, {"error": "config must be an object"})
                    return
                config = config or {}
                cp.set_strategy_mode(mode, config)
                will = {
                    k: ControlPlane._valid_override(k, v)
                    and k in MUTABLE_FIELDS
                    for k, v in config.items()
                }
                self._json(200, {
                    "queued": True,
                    "strategy_mode": mode,
                    "will_apply": sorted(k for k, ok in will.items() if ok),
                    "will_reject": sorted(
                        k for k, ok in will.items() if not ok),
                })

        self._httpd = http.server.ThreadingHTTPServer(
            (self.host, self.port), Handler
        )
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None


def status_to_prometheus(status: dict) -> str:
    """Render a status snapshot as Prometheus text-exposition counters —
    the /sync/monitor/metrics analog (monitor.go:44-108: consume/handle/
    fail counters become events/epochs/failures). A node-exporter-style
    sidecar can serve this string; the engine itself stays HTTP-free."""
    gauges = {
        "data_sync_events_applied_total": status.get("events_applied", 0),
        "data_sync_epochs_run_total": status.get("epochs_run", 0),
        "data_sync_rounds_total": status.get("rounds", 0),
        "data_sync_failures_total": status.get("failures", 0),
        "data_sync_watermark_max": status.get("watermark_max", -1),
        "data_sync_watermark_min": status.get("watermark_min", -1),
        "data_sync_partitions": status.get("partitions", 0),
        "data_sync_paused": 1 if status.get("strategy_mode") == "pause" else 0,
        "data_sync_rate_window_events_per_sec": status.get(
            "rate_window_events_per_sec", 0.0
        ),
        "data_sync_rate_last_round_events_per_sec": status.get(
            "rate_last_round_events_per_sec", 0.0
        ),
    }
    lines = []
    for name, val in gauges.items():
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {val}")
    return "\n".join(lines) + "\n"
