"""The benchmark's own test: every workload at a tiny size, through the
timed and the traced path.

    python3 -m pytest bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run  # bench/ is on sys.path: pytest prepends the test file's directory
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bound_attributes():
    return [getattr(owner, attr) for owner, attr, _, _ in workloads.TRACE_TARGETS]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert len(workloads.PINNED[name]) == workloads.INPUTS_PER_RUN


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_metric(name, trace, tmp_path):
    before = _bound_attributes()
    out = run.run_workload(name, seed=7, seconds=0.01, trace=bool(trace), tiny=True, out_dir=tmp_path)
    result = out["result"]
    assert result["correct"], out["environment"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    # the traced run rebinds library attributes only while an op runs
    assert all(a is b for a, b in zip(_bound_attributes(), before))
    if trace:
        assert (tmp_path / f"{name}-t1.spans.tsv.gz").stat().st_size > 0


def test_raising_and_changed_ops_fail(monkeypatch, tmp_path):
    made = []

    def op(inp):
        time.sleep(0.002)
        made.append(inp)
        if len(made) == 2:
            raise ValueError("second op raises")
        return len(made)

    def check(inp, out):
        return [], "first" if out == 1 else "changed"

    fake = workloads.Workload(lambda seed, size: ["input"], op, check, None, None)
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake)
    monkeypatch.setattr(run, "calibrate", lambda: run.CAL_S)  # leave the 0.2 s to ops
    out = run.run_workload("fake", seed=7, seconds=0.2, trace=False, tiny=True, out_dir=tmp_path)
    result = out["result"]
    assert result["attempted"] >= 3
    assert result["failed"] == result["attempted"] - 1
    assert not result["correct"]
    assert result["metrics"]["success_ratio"]["value"] == 1 / result["attempted"]


def test_fails_without_the_package_sources(tmp_path):
    """Run where only BENCHMARK.json and the benchmark's own files exist."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crossed_torus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
