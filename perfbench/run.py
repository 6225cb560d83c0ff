"""Lake benchmark: catch-up throughput, round freshness and merge-on-read cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {catchup,read} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

The last stdout line is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ledger with --trace 1. The line before it holds the detail
record: sample counts, failed operations and check errors. The exit code
is non-zero when an output check fails, an operation hangs, or the package
under test is missing. Every process the run starts, Ray's included, has
ended before the result is printed. `--workload all` runs each workload in its own
process and prints a table of every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("catchup", "read")
#: no single operation may run longer than this
OP_DEADLINE_S = 60.0
#: the whole run is killed (descendants included) past this point
HARD_DEADLINE_S = 170.0
#: wall time kept back after the last operation for checks and shutdown
SHUTDOWN_RESERVE_S = 25.0
#: how long processes left after ray.shutdown() may take to end on their own
STOP_GRACE_S = 5.0
SAMPLE_PERIOD_S = 1.0


def process_age_s() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    """Processing units as the `nproc` command reports them (it honours
    OMP_NUM_THREADS), the CPU count Ray is given."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def descendants(pid: int) -> list[int]:
    children = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children[ppid].append(int(name))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def become_subreaper() -> None:
    """Make this process the child subreaper of its tree: a descendant
    whose parent exits (a Ray worker outliving its raylet) is re-parented
    here rather than to init, so it can be waited for and reaped."""
    import ctypes

    pr_set_child_subreaper = 36
    if ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float) -> list[str]:
    """Wait up to grace_s for every descendant process to end, SIGKILL
    those still there, and reap them all until none is left. Returns the
    command lines of the ones that had to be killed."""
    killed: dict[int, str] = {}
    deadline = time.monotonic() + grace_s
    give_up = deadline + 5.0
    while True:
        reap()
        pids = descendants(os.getpid())
        if not pids or time.monotonic() > give_up:
            return sorted(killed.values())
        if time.monotonic() >= deadline:
            for p in pids:
                try:
                    with open(f"/proc/{p}/cmdline", "rb") as f:
                        cmd = f.read().replace(b"\0", b" ").decode(errors="replace").strip()
                    os.kill(p, signal.SIGKILL)
                    killed.setdefault(p, cmd[:120])
                except (ProcessLookupError, FileNotFoundError):
                    pass
        time.sleep(0.05)


class PssSampler(threading.Thread):
    """Peak of the summed PSS of this process and its descendants."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kb = 0
        self._stop_evt = threading.Event()

    @staticmethod
    def pss_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def sample(self) -> None:
        me = os.getpid()
        total = sum(self.pss_kb(p) for p in [me] + descendants(me))
        self.peak_kb = max(self.peak_kb, total)

    def run(self) -> None:
        while not self._stop_evt.wait(SAMPLE_PERIOD_S):
            self.sample()

    def stop(self) -> None:
        self._stop_evt.set()
        self.join(timeout=5)
        self.sample()


class Run:
    """Per-run state: operation accounting, samples and (traced) spans."""

    def __init__(self, seed: int, seconds: int, work: str, tracer):
        import numpy as np

        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tr = tracer
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_errors: list[str] = []
        self.aborted = False
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layer: dict[str, list[float]] = defaultdict(list)
        self.setup_s: float | None = None
        self._t0: float | None = None

    def start_timed(self) -> None:
        self.setup_s = process_age_s()
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return 0.0 if self._t0 is None else time.perf_counter() - self._t0

    def sample(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)

    def layer_sample(self, metric: str, value: float) -> None:
        self.layer[metric].append(value)

    def verify(self, what: str, err: str | None) -> None:
        """A wrong answer counts as a failed operation."""
        if err is not None:
            self.failed += 1
            self.check_errors.append(f"{what}: {err}")

    def op(self, name: str, fn):
        """Run one operation under a deadline; returns (ok, result, seconds).
        An exception is counted and named, and ok is False. A hang aborts
        the run: the operation's thread is abandoned and no further
        operations start."""
        if self.aborted:
            return False, None, 0.0
        budget = min(OP_DEADLINE_S, HARD_DEADLINE_S - SHUTDOWN_RESERVE_S - process_age_s())
        self.attempted += 1
        box: dict = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as e:  # reported below, never swallowed
                box["error"] = e
                box["tb"] = traceback.format_exc()

        th = threading.Thread(target=target, daemon=True, name=name)
        t0 = time.perf_counter()
        th.start()
        th.join(max(0.0, budget))
        dt = time.perf_counter() - t0
        if th.is_alive():
            self.failed += 1
            self.failures.append(f"{name}: no result after {dt:.1f} s")
            self.aborted = True
            return False, None, dt
        if "error" in box:
            self.failed += 1
            self.failures.append(f"{name}: {box['error']!r}")
            sys.stderr.write(box["tb"])
            return False, None, dt
        return True, box["value"], dt


def pct(values: list[float], q: float) -> float:
    """Percentile with linear interpolation between closest ranks."""
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end(run: Run, peak_rss_mb: float) -> dict[str, float]:
    s = run.samples
    return {
        "setup_s": run.setup_s or 0.0,
        "catchup_events_per_s": pct(s["catchup_events_per_s"], 50),
        "freshness_p50_s": pct(s["freshness_s"], 50),
        "freshness_p90_s": pct(s["freshness_s"], 90),
        "lookup_p50_ms": pct(s["lookup_ms"], 50),
        "lookup_p90_ms": pct(s["lookup_ms"], 90),
        "scan_rows_per_s": pct(s["scan_rows_per_s"], 50),
        "compact_s": pct(s["compact_s"], 50),
        "scan_rows_per_s_compacted": pct(s["scan_rows_per_s_compacted"], 50),
        "lookup_p50_ms_compacted": pct(s["lookup_ms_compacted"], 50),
        "lake_bytes_per_row": s["lake_bytes_per_row"][-1] if s["lake_bytes_per_row"] else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    tr, lay = run.tr, run.layer

    def busy(name):
        return tr.self_time_since(0, (name,))

    groups = tr.durations("stages.exchange.fold_commit")
    kept = tr.counts["state.lake.lookup.fragments_kept"]
    total = tr.counts["state.lake.lookup.fragments_total"]
    out = {
        "stages.transform.busy_s": busy("stages.transform"),
        "stages.transform.rows_in": tr.counts["stages.transform.rows_in"],
        "stages.transform.rows_out": tr.counts["stages.transform.rows_out"],
        "stages.exchange.spill.busy_s": busy("stages.exchange.spill"),
        "stages.exchange.spill.bytes": tr.counts["stages.exchange.spill.bytes"],
        "stages.exchange.spill.fragments": tr.counts["stages.exchange.spill.fragments"],
        "stages.exchange.fold_commit.busy_s": busy("stages.exchange.fold_commit"),
        "stages.exchange.fold_commit.rows_written": tr.counts["stages.exchange.fold_commit.rows_written"],
        "stages.exchange.fold_commit.group_s_max": max(groups, default=0.0),
        "stages.exchange.fold_commit.group_s_median": statistics.median(groups) if groups else 0.0,
        "state.lake.mark_done.busy_s": busy("state.lake.mark_done"),
        "state.lake.manifest.busy_s": busy("state.lake.manifest"),
        "state.lake.data_bytes_written": tr.counts["state.lake.data_bytes_written"],
        "state.lake.files_written": tr.counts["state.lake.files_written"],
        "pipelines.replay.orchestration_s": pct(lay["pipelines.replay.orchestration_s"], 50),
        "state.storage.obj_read.busy_s": busy("state.storage.obj_read"),
        "state.storage.obj_read.bytes": tr.counts["state.storage.obj_read.bytes"],
        "stages.merge.fold_state.busy_s": busy("stages.merge.fold_state"),
        "state.lake.read_partition.busy_s": busy("state.lake.read_partition"),
        "state.lake.lookup.busy_s": busy("state.lake.lookup"),
        "state.lake.lookup.fragments_kept_frac": kept / total if total else 0.0,
        "pipelines.replay.read_lake.orchestration_s": pct(lay["pipelines.replay.read_lake.orchestration_s"], 50),
        "state.lake.compact_partition.busy_s": busy("state.lake.compact_partition"),
        "state.lake.compact_partition.bytes_rewritten": tr.counts["state.lake.compact_partition.bytes_rewritten"],
        "state.lake.fragments_per_partition_max": max(lay["state.lake.fragments_per_partition_max"], default=0.0),
    }
    return out


def layer_bases(run: Run) -> dict[str, int]:
    """Sample base of each per-layer figure: spans, calls or lookups."""
    tr = run.tr
    names = {s[0] for s in tr.spans}
    bases = {f"{n}.spans": len(tr.durations(n)) for n in sorted(names)}
    for k, v in run.layer.items():
        bases[k + ".samples"] = len(v)
    bases["state.lake.lookup.fragments_total"] = int(tr.counts["state.lake.lookup.fragments_total"])
    return bases


def validate(result: dict, spec: dict, trace: int) -> None:
    """Check the result line against result_schema.json plus the metric
    names and units BENCHMARK.json declares for this mode."""
    import jsonschema

    with open(os.path.join(HERE, "result_schema.json")) as f:
        schema = json.load(f)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    schema["properties"]["metrics"]["required"] = [m["name"] for m in declared]
    schema["properties"]["metrics"]["properties"] = {
        m["name"]: {"properties": {"unit": {"const": m["unit"]}}} for m in declared
    }
    schema["properties"]["metrics"]["additionalProperties"] = False
    jsonschema.validate(result, schema)


def run_one(args) -> int:
    spec = load_spec()
    sys.path[:0] = [ROOT, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import data_sync_ray  # the checkout's package, never an installed copy

    if os.path.dirname(os.path.dirname(os.path.abspath(data_sync_ray.__file__))) != ROOT:
        sys.stderr.write(f"data_sync_ray imported from {data_sync_ray.__file__}, not {ROOT}\n")
        return 2
    become_subreaper()

    def watchdog():
        sys.stderr.write(f"hard deadline {HARD_DEADLINE_S:.0f} s passed; killing the run\n")
        sys.stderr.flush()
        stop_descendants(0.0)
        os._exit(4)

    timer = threading.Timer(max(1.0, HARD_DEADLINE_S - process_age_s()), watchdog)
    timer.daemon = True
    timer.start()

    import logging

    import pyarrow as pa
    import ray
    from ray.data import DataContext

    from tracer import Tracer
    from workloads import WORKLOADS

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.trace:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
    sampler = PssSampler()
    sampler.start()
    run = Run(args.seed, args.seconds, work, Tracer() if args.trace else None)
    # Ray keeps sockets under its temp dir; a unix socket path is capped at
    # 107 bytes, so a long checkout path falls back to Ray's default
    ray_tmp = os.path.join(ROOT, ".bench_work", "r")
    init_kw = {"_temp_dir": ray_tmp} if len(ray_tmp) <= 40 else {}
    try:
        ray.init(
            num_cpus=nproc(),
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=512 * 1024 * 1024,
            **init_kw,
        )
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        DataContext.get_current().enable_progress_bars = False
        try:
            WORKLOADS[args.workload](run)
        except Exception as e:  # a failed driver step: report, never hide
            traceback.print_exc()
            run.failed += 1
            run.attempted += 1
            run.failures.append(f"workload driver: {e!r}")
        sampler.stop()
        if not run.aborted:  # a hung call may never let shutdown finish
            ray.shutdown()
    finally:
        # Ray's workers can outlive ray.shutdown() (one still starting up
        # takes seconds to notice); the run ends only once every process
        # it started has ended
        killed = stop_descendants(0.0 if run.aborted else STOP_GRACE_S)
        timer.cancel()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    if run.setup_s is None:
        run.setup_s = process_age_s()
    metrics = per_layer(run) if args.trace else end_to_end(run, sampler.peak_kb / 1024)
    declared = {m["name"]: m["unit"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])}
    missing = [n for n in declared if not args.trace and metrics.get(n, 0.0) == 0.0]
    correct = not run.check_errors and not run.aborted and not missing
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in declared.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "num_cpus": nproc(),
        "samples": {k: len(v) for k, v in sorted(run.samples.items())},
        "scan_s": [round(x, 3) for x in run.samples["scan_s"]],
        "compact_s": [round(x, 3) for x in run.samples["compact_s"]],
        "warm_scan_s": [round(x, 3) for x in run.samples["warm_scan_s"]],
        "unmeasured": missing,
        "processes_killed": killed,
        "failures": run.failures,
        "check_errors": run.check_errors[:20],
    }
    if args.trace:
        detail["layer_bases"] = layer_bases(run)
    validate(result, spec, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of metric, unit, samples."""
    status = 0
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or len(lines) < 2:
            status = 1
            print(f"{w}: exit {p.returncode}")
            sys.stderr.write(p.stderr[-4000:])
        if len(lines) < 2:
            continue
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        counts = detail["samples"]
        print(f"== {w}  correct={result['correct']}  failed={result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            base = {
                "freshness_p50_s": "freshness_s", "freshness_p90_s": "freshness_s",
                "lookup_p50_ms": "lookup_ms", "lookup_p90_ms": "lookup_ms",
                "lookup_p50_ms_compacted": "lookup_ms_compacted",
            }.get(name, name)
            n = counts.get(base, 1)
            print(f"  {name:45s} {m['value']:>16.6g} {m['unit']:>10s}  n={n}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "data_sync_ray", "__init__.py")):
        sys.stderr.write(f"no data_sync_ray package under {ROOT}; run from a checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
