"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/cell.py --workload NAME --subseed N --traced 0|1 \
        --out-dir DIR [--size F]

Builds the workload, trains the model (Origami only), constructs
``OrigamiFS`` and runs it, all through the program's public calls, then
prints one JSON record as its last line of output.  ``run.py`` starts one of
these per repetition and aggregates them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.balancers import CoarseHashPolicy, LunulePolicy, OrigamiPolicy  # noqa: E402
from repro.fs import OrigamiFS, SimConfig  # noqa: E402
from repro.fs.faults.schedule import Crash, FaultSchedule, RetryPolicy, Slowdown  # noqa: E402
from repro.harness.config import default_params  # noqa: E402
from repro.harness.experiments import build_workload  # noqa: E402
from repro.training import collect_training_data, train_origami_model  # noqa: E402

import layers  # noqa: E402
from spec import MIN_FULL_EPOCHS, TRIM_SHARE, WORKLOADS, Workload  # noqa: E402


def build_trace(w: Workload, subseed: int):
    """The pinned workload with its last ``trim`` ops cut, ``trim`` drawn
    from the sub-seed below ``w.n_ops * TRIM_SHARE``."""
    built, trace = build_workload(w.kind, w.n_ops, w.workload_seed, tree_scale=w.tree_scale)
    trim = int(np.random.default_rng(subseed).integers(0, max(1, int(w.n_ops * TRIM_SHARE))))
    return built.tree, trace[: len(trace) - trim]


def train(w: Workload, rec: layers.SpanRecorder):
    with rec.span("training.collect"):
        built, trace = build_workload(w.kind, w.train_ops, w.train_seed)
        dataset, _ = collect_training_data(
            built.tree, trace, n_mds=w.n_mds, params=default_params(),
            delta=50.0, ops_per_epoch=w.train_epoch_ops,
        )
    with rec.span("training.fit"):
        return train_origami_model(dataset, n_estimators=w.gbdt_rounds)


def make_policy(w: Workload, model):
    if w.strategy == "Origami":
        return OrigamiPolicy(model, max_moves_per_epoch=8, cooldown_epochs=2)
    if w.strategy == "C-Hash":
        return CoarseHashPolicy()
    if w.strategy == "Lunule":
        return LunulePolicy()
    raise ValueError(f"unknown strategy {w.strategy!r}")


def fault_schedule(w: Workload):
    events = []
    if w.crash is not None:
        mds, start, end, warmup_ms, warmup_factor = w.crash
        events.append(Crash(mds=mds, start_ms=start, end_ms=end,
                            warmup_ms=warmup_ms, warmup_factor=warmup_factor))
    if w.slowdown is not None:
        mds, start, end, factor = w.slowdown
        events.append(Slowdown(mds=mds, start_ms=start, end_ms=end, factor=factor))
    if not events:
        return None
    return FaultSchedule(events, retry=RetryPolicy(max_attempts=w.retry_attempts))


def digest(res) -> str:
    """Fingerprint of every simulated output (wall time is not in to_dict)."""
    blob = json.dumps(res.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_cell(w: Workload, subseed: int, traced: bool, out_dir: str) -> dict:
    rec = layers.SpanRecorder()
    store_dir = tempfile.mkdtemp(prefix="stores-", dir=out_dir) if w.durable else None
    try:
        t0 = time.perf_counter()
        with rec.span("workloads.build"):
            tree, trace = build_trace(w, subseed)
        model = train(w, rec) if w.strategy == "Origami" else None
        config = SimConfig(
            n_mds=w.n_mds, n_clients=w.n_clients, epoch_ms=w.epoch_ms,
            params=default_params(), seed=subseed, oracle_window_ops=9000,
            faults=fault_schedule(w), data_dir=store_dir,
        )
        with rec.span("fs.init"):
            fs = OrigamiFS(tree, trace, make_policy(w, model), config)
        setup_s = time.perf_counter() - t0
        if traced:
            layers.install(rec, fs, model)
        with rec.span("fs.run"):
            res = fs.run()
        run_s = time.perf_counter() - t0
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)

    issued = len(trace)
    full_epochs = len(res.per_epoch) - 1
    steady_ok = full_epochs >= MIN_FULL_EPOCHS
    replay_s = rec.seconds("fs.run")
    record = {
        "subseed": subseed,
        "traced": traced,
        "fastpath_engaged": bool(fs.fastpath_engaged),
        "issued": issued,
        "ops_completed": res.ops_completed,
        "vanished_ops": res.vanished_ops,
        "fault_failed_ops": res.fault_failed_ops,
        "full_epochs": full_epochs,
        "steady_state_ok": steady_ok,
        "digest": digest(res),
        "store_dir": store_dir,
        "host": {
            "setup_s": setup_s,
            "replay_ops_per_s": issued / replay_s,
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "modelled": {
            "sim_throughput_ops_s": res.steady_state_throughput() if steady_ok else math.nan,
            "sim_p50_ms": res.p50_latency_ms,
            "sim_p99_ms": res.p99_latency_ms,
            "sim_jct_ms": res.duration_ms,
            "rpcs_per_op": res.rpcs_per_request,
            "completed_op_share": res.ops_completed / issued,
        },
        "layers": {
            **layers.phase_metrics(rec),
            **layers.result_metrics(fs, res, issued),
            **(layers.span_metrics(rec) if traced else {}),
        },
    }
    if traced:
        rec.write(os.path.join(out_dir, f"spans-{subseed}-{os.getpid()}.jsonl"))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--subseed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--size", type=float, default=1.0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload].scaled(args.size)
    record = run_cell(w, args.subseed, bool(args.traced), args.out_dir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
