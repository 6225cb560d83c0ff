"""BENCHMARK.json, the result schema and spec.json agree with each other,
and the runner refuses to run without the package under test."""

import json
import os
import re
import shutil
import subprocess
import sys

import jsonschema
import pytest

from conftest import BENCH

ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(not p.startswith("/") and ".." not in p for p in SPEC["command"] + SPEC["paths"])


def test_spec_json_covers_every_name():
    spec = load(os.path.join(BENCH, "spec.json"))
    assert {w["name"] for w in spec["workloads"]} == {w["name"] for w in SPEC["workloads"]}
    assert {m["name"] for m in spec["end_to_end"]} == {m["name"] for m in SPEC["end_to_end"]}
    assert {m["name"] for m in spec["per_layer"]} == {m["name"] for m in SPEC["per_layer"]}


def result_for(trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in declared},
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema_accepts_complete_result(trace):
    import run

    run.validate(result_for(trace), SPEC, trace)


@pytest.mark.parametrize("mutate", [
    lambda r: r.pop("failed"),
    lambda r: r.update(extra=1),
    lambda r: r["metrics"].pop("setup_s"),
    lambda r: r["metrics"]["setup_s"].update(unit="ms"),
    lambda r: r["metrics"]["setup_s"].update(value=None),
    lambda r: r.update(attempted=0),
    lambda r: r["metrics"].update(unknown={"value": 1, "unit": "s"}),
])
def test_result_schema_rejects_malformed(mutate):
    import run

    r = result_for(0)
    mutate(r)
    with pytest.raises(jsonschema.ValidationError):
        run.validate(r, SPEC, 0)


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "catchup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
