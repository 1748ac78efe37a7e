"""The repo benchmark: run one named workload, print every metric, check outputs.

    python3 perfbench/run.py --workload origami-wi --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition ("cell") is a fresh
interpreter running ``cell.py``, one at a time, with no pool; the simulated
clients are coroutines inside it.  Repetitions cycle through the run's
sub-seeds (``spec.subseeds``) until ``--seconds`` is spent, with at least one
per sub-seed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: host
times are medians over the cells, modelled metrics the median over the
sub-seeds.  ``--trace 1`` alternates an untraced and a traced cell on each
sub-seed and reports the per-layer metrics (medians over the traced cells)
plus the tracing overhead.  Either way the run fails (exit 1, ``correct``
false) when a check in ``checks.py`` trips.  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spec import WORKLOADS, subseeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: hard stop for a whole run; a cell still running then is killed and the
#: run fails without a result
RUN_DEADLINE_S = 170.0
#: env vars that would switch the program off its default configuration
_SCRUBBED_ENV = ("REPRO_FASTPATH", "REPRO_SCALE")


def run_cell(workload: str, subseed: int, traced: bool, out_dir: Path, size: float,
             timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "cell.py"),
        "--workload", workload, "--subseed", str(subseed),
        "--traced", str(int(traced)), "--out-dir", str(out_dir), "--size", str(size),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"cell failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cells(workload: str, seed: int, seconds: float, trace: bool,
              out_dir: Path, size: float) -> list:
    """Cycle through the sub-seeds until the time budget is spent."""
    seeds = subseeds(seed)
    per_round = (False, True) if trace else (False,)
    min_rounds = 1 if trace else len(seeds)
    cells = []
    t0 = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - t0
        if i >= min_rounds and elapsed + elapsed / i > seconds:
            break
        for traced in per_round:
            left = RUN_DEADLINE_S - (time.monotonic() - t0)
            cells.append(run_cell(workload, seeds[i % len(seeds)], traced, out_dir, size, left))
        i += 1
    return cells


def median_of(cells: list, section: str, name: str) -> float:
    return statistics.median(c[section][name] for c in cells)


def end_to_end(cells: list) -> dict:
    """Host metrics: median over cells.  Modelled: median over sub-seeds."""
    out = {name: median_of(cells, "host", name) for name in cells[0]["host"]}
    by_seed = {c["subseed"]: c for c in cells}
    for name in cells[0]["modelled"]:
        values = [c["modelled"][name] for c in by_seed.values()]
        out[name] = math.nan if any(math.isnan(v) for v in values) else statistics.median(values)
    return out


def per_layer(cells: list) -> dict:
    untraced = {c["subseed"]: c for c in cells if not c["traced"]}
    traced = [c for c in cells if c["traced"]]
    out = {name: median_of(traced, "layers", name) for name in traced[0]["layers"]}
    out["perfbench.trace_overhead_share"] = statistics.median(
        c["host"]["run_s"] / untraced[c["subseed"]]["host"]["run_s"] - 1.0 for c in traced
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=float, default=1.0,
                    help="shrink every workload size by this factor (tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    out_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        cells = run_cells(args.workload, args.seed, args.seconds, bool(args.trace),
                          out_dir, args.size)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for stores in out_dir.glob("stores-*"):
            shutil.rmtree(stores, ignore_errors=True)

    failures = checks.run_all(cells, workload.expect_fastpath)
    values = per_layer(cells) if args.trace else end_to_end(cells)
    metrics = {}
    for m in table:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": None if math.isnan(v) else v, "unit": m["unit"]}
        print(f"metric {m['name']} {v} {m['unit']}")

    first = cells[0]
    print(f"info workload={args.workload} seed={args.seed} cells={len(cells)}"
          f" subseeds={sorted({c['subseed'] for c in cells})}")
    for c in cells:
        print(f"info cell subseed={c['subseed']} traced={int(c['traced'])} "
              + " ".join(f"{k}={v:.6g}" for k, v in c["host"].items()))
    print(f"info sim_p99_ms from a 20000-slot reservoir over"
          f" {first['layers']['fs.latency.samples']} latency samples per cell")
    if first["store_dir"] is not None:
        print(f"info durable stores in per-cell temp dirs under {out_dir} (deleted)")
    if args.trace:
        print(f"info spans written to {out_dir}/spans-*.jsonl")
    for f in failures:
        print(f"check FAILED {f}")
    print(f"check {'ok' if not failures else 'FAILED'}: lost_ops same_outputs same_loop steady_state")

    attempted = sum(c["issued"] for c in cells)
    # not SimResult.failed_ops: it leaves out fault-failed ops and counts
    # best-effort mutation races whose ops did complete (see NOTES.md)
    failed = sum(c["issued"] - c["ops_completed"] for c in cells)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
