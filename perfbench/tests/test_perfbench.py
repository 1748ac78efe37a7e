"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from cell import build_trace  # noqa: E402
import run  # noqa: E402
from spec import SUBSEEDS_PER_RUN, TRIM_SHARE, WORKLOADS, subseeds  # noqa: E402

from repro.harness.experiments import build_workload  # noqa: E402

TINY = 0.05
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    "workload,trace",
    [("chash-ro", 0)] + [(name, 1) for name in WORKLOADS],
)
def test_every_metric_printed_with_unit(workload, trace):
    proc = invoke(workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(
            ln.startswith(f"metric {m['name']} ") and ln.endswith(f" {m['unit']}")
            for ln in lines
        ), m["name"]
    if trace:
        engaged = result["metrics"]["fs.fastpath_engaged"]["value"]
        assert engaged == int(WORKLOADS[workload].expect_fastpath)


@pytest.fixture(scope="module")
def crash_cells(tmp_path_factory):
    """Cells of a traced tiny crash run: every counter the checks read is live."""
    out = tmp_path_factory.mktemp("cells")
    return run.run_cells("lunule-rw-crash", 5, 0.0, True, out, TINY)


def test_checks_pass_on_a_clean_run(crash_cells):
    assert checks.run_all(crash_cells, expected_fastpath=False) == []


def test_lost_ops_trips(crash_cells):
    cells = copy.deepcopy(crash_cells)
    cells[0]["ops_completed"] -= 1
    assert checks.lost_ops(cells)
    assert checks.run_all(cells, False)


def test_same_outputs_trips_on_traced_mismatch(crash_cells):
    cells = copy.deepcopy(crash_cells)
    traced = next(c for c in cells if c["traced"])
    traced["digest"] = "0" * 64
    assert checks.same_outputs(cells)


def test_same_loop_trips(crash_cells):
    cells = copy.deepcopy(crash_cells)
    cells[-1]["fastpath_engaged"] = True
    assert checks.same_loop(cells, expected=False)
    assert checks.same_loop(crash_cells, expected=True)


def test_steady_state_guard_refuses_throughput(crash_cells):
    cells = copy.deepcopy(crash_cells)
    for c in cells:
        c["full_epochs"] = 2
        c["steady_state_ok"] = False
        c["modelled"]["sim_throughput_ops_s"] = math.nan
    assert checks.steady_state(cells)
    assert math.isnan(run.end_to_end(cells)["sim_throughput_ops_s"])


def test_same_seed_gives_identical_modelled_metrics(tmp_path):
    a, b = (run.run_cells("origami-wi", 9, 0.0, False, tmp_path, TINY) for _ in range(2))
    assert [c["digest"] for c in a] == [c["digest"] for c in b]
    ea, eb = run.end_to_end(a), run.end_to_end(b)
    for name in a[0]["modelled"]:
        assert ea[name] == eb[name], name


def test_subseed_trims_a_short_tail_of_the_pinned_trace():
    w = WORKLOADS["lunule-rw-crash"].scaled(TINY)
    _, full = build_workload(w.kind, w.n_ops, w.workload_seed)
    lengths = set()
    for s in subseeds(4):
        _, trace = build_trace(w, s)
        n = len(trace)
        assert len(full) - w.n_ops * TRIM_SHARE < n <= len(full)
        assert (trace.op == full.op[:n]).all() and (trace.dir_ino == full.dir_ino[:n]).all()
        assert len(build_trace(w, s)[1]) == n
        lengths.add(n)
    assert len(lengths) > 1


def test_subseeds_per_run():
    assert len(set(subseeds(1))) == SUBSEEDS_PER_RUN
    assert subseeds(1) == subseeds(1) != subseeds(2)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("chash-ro", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
