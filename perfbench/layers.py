"""Per-layer measurement from outside the program.

:class:`SpanRecorder` keeps spans (name, start, end, parent, count) in
memory.  The set-up phases are always timed as spans; a traced cell also
wraps the instances the benchmark itself builds or holds — the policy's
``rebalance``, the model's ``predict``, ``fs.stats.snapshot_and_reset`` and
the run tree's ``dfs_index`` — by shadowing the bound method on that one
instance.  The program's own span tracer stays off: ``Observability(tracer=...)``
disengages the fast path, so a traced run would measure a different loop.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

#: span fields, in the order they are stored and written out
SPAN_FIELDS = ("name", "start", "end", "parent", "count")
#: leading share of full epochs left out of "steady" epochs, as
#: SimResult.steady_state_throughput does by default
STEADY_SKIP = 0.3


class SpanRecorder:
    """In-memory span list; nested spans record the enclosing one as parent."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj, method: str, name: str,
             count: Optional[Callable] = None) -> None:
        """Time every call of ``obj.method``; ``count(args, result)`` sizes it."""
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = inner(*args, **kwargs)
            if count is not None:
                rec[4] = count(args, out)
            return out

        setattr(obj, method, traced)

    def seconds(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_seconds(self, name: str) -> float:
        """Total duration of ``name`` spans minus what their children cover."""
        total = 0.0
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        for i in ids:
            total += self.spans[i][2] - self.spans[i][1]
        for s in self.spans:
            if s[3] in ids:
                total -= s[2] - s[1]
        return total

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def counts(self, name: str) -> int:
        return sum(s[4] for s in self.spans if s[0] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")


def install(rec: SpanRecorder, fs, model) -> None:
    """Wrap the run's policy, model, stats collector and tree."""
    rec.wrap(fs.policy, "rebalance", "balancers.rebalance",
             count=lambda args, out: len(out) if out else 0)
    if model is not None:
        rec.wrap(model, "predict", "ml.predict",
                 count=lambda args, out: int(np.shape(args[0])[0]))
    rec.wrap(fs.stats, "snapshot_and_reset", "namespace.snapshot")
    rec.wrap(fs.tree, "dfs_index", "namespace.dfs_index")


def span_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Per-layer timings of one traced cell."""
    rebalance_ms = [d * 1000.0 for d in rec.durations("balancers.rebalance")]
    predict_s = rec.seconds("ml.predict")
    predict_rows = rec.counts("ml.predict")
    return {
        "fs.replay_self_s": rec.self_seconds("fs.run"),
        "balancers.rebalance_calls": len(rebalance_ms),
        "balancers.rebalance_s": sum(rebalance_ms) / 1000.0,
        "balancers.rebalance_ms_p50": float(np.median(rebalance_ms)) if rebalance_ms else 0.0,
        "balancers.decisions": rec.counts("balancers.rebalance"),
        "ml.predict_calls": len(rec.durations("ml.predict")),
        "ml.predict_rows": predict_rows,
        "ml.predict_s": predict_s,
        "ml.predict_rows_per_s": predict_rows / predict_s if predict_s > 0 else 0.0,
        "namespace.snapshot_calls": len(rec.durations("namespace.snapshot")),
        "namespace.snapshot_s": rec.seconds("namespace.snapshot"),
        "namespace.dfs_index_calls": len(rec.durations("namespace.dfs_index")),
        "namespace.dfs_index_s": rec.seconds("namespace.dfs_index"),
    }


def phase_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Set-up phase timings (recorded in every cell, traced or not)."""
    return {
        "workloads.build_s": rec.seconds("workloads.build"),
        "training.collect_s": rec.seconds("training.collect"),
        "training.fit_s": rec.seconds("training.fit"),
        "fs.init_s": rec.seconds("fs.init"),
    }


def result_metrics(fs, res, issued: int) -> Dict[str, float]:
    """Per-layer counts read off the finished run (deterministic per seed)."""
    full = res.per_epoch[:-1]
    lags = [e.duration_ms - res.epoch_ms for e in full]
    steady = full[min(int(len(full) * STEADY_SKIP), max(len(full) - 1, 0)):]
    busy = np.sum([e.busy_ms for e in steady], axis=0) if steady else np.zeros(1)
    mean_busy = float(np.mean(busy))
    applied = res.migrations
    stale = fs.stale_decisions
    faults = res.faults or {}
    kv = res.kvstore or {}
    return {
        "fs.fastpath_engaged": int(fs.fastpath_engaged),
        "sim.events": res.engine_events,
        "sim.events_per_op": res.engine_events / issued,
        "sim.peak_queue_len": fs.env.peak_queue_len,
        "fs.driver.epochs": len(full),
        "fs.driver.epoch_lag_ms_mean": float(np.mean(lags)) if lags else 0.0,
        "fs.driver.epoch_lag_ms_max": float(np.max(lags)) if lags else 0.0,
        "fs.migrator.applied": applied,
        "fs.migrator.stale": stale,
        "fs.migrator.applied_ratio": applied / (applied + stale) if applied + stale else 0.0,
        "fs.migrator.inodes_moved": res.inodes_migrated,
        "fs.server.busy_imbalance": float(np.max(busy)) / mean_busy if mean_busy > 0 else 0.0,
        "fs.cache.hit_rate": res.cache_hit_rate,
        "fs.latency.samples": fs.latency.count,
        "fs.faults.retries": faults.get("retries", 0.0),
        "fs.faults.failovers": faults.get("failovers", 0.0),
        "fs.faults.ops_failed": faults.get("ops_failed", 0.0),
        "fs.faults.backoff_wait_ms": faults.get("backoff_wait_ms", 0.0),
        "kvstore.wal_appends": kv.get("wal_appends", 0.0),
        "kvstore.fsyncs": kv.get("fsyncs", 0.0),
        "kvstore.recovery_ms": kv.get("recovery_ms", 0.0),
    }
