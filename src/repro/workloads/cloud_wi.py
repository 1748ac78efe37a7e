"""Trace-WI: a write-intensive cloud file-system trace.

Reproduced from the characteristics in the CFS paper [40] the way the
authors did ("we reproduced based on the characteristics described in the
paper"): namespace mutations dominate (>70% of metadata ops), writes arrive
in per-tenant bursts into date-sharded directories, and the hot tenant set
churns quickly — the "highly dynamic and skewed load" the paper says makes
Trace-WI the hardest case for every balancer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.namespace.builder import BuiltNamespace, build_cloud_tree
from repro.sim.rng import RngStream
from repro.workloads.trace import Trace, TraceBuilder
from repro.workloads.zipfian import DriftingZipf

__all__ = ["generate_trace_wi"]


def generate_trace_wi(
    rng: RngStream,
    n_ops: int = 100_000,
    n_tenants: int = 50,
    alpha: float = 1.3,
    segments: int = 10,
    drift: float = 0.35,
    write_fraction: float = 0.75,
    burst_mean: float = 24.0,
) -> Tuple[BuiltNamespace, Trace]:
    """Build the multi-tenant namespace and a create-heavy trace."""
    built = build_cloud_tree(rng, n_tenants=n_tenants)
    tree = built.tree
    tenant_shards: List[List[int]] = built.info["tenant_shards"]
    shared_root = built.read_dirs[0]
    shared_files = [n for n, i in tree.children(shared_root).items() if not tree.is_dir(i)]

    tenants = DriftingZipf(rng, list(range(n_tenants)), alpha=alpha, drift=drift)
    tb = TraceBuilder(label="Trace-WI")
    created: Dict[int, List[str]] = {}
    uid = 0

    # shards are date-partitioned: writes land in the *current* day's shards
    # (cloud ingest always appends to today's partition), so at any moment
    # each tenant has a handful of hot shard directories — the fine-grained,
    # moving write hotspot that static partitioning cannot follow
    days = max(1, len(tenant_shards[0]) // 4)  # builder: 4 shards per day
    per_seg = max(1, n_ops // segments)
    for seg in range(segments):
        day = seg % days
        left = n_ops - len(tb)
        budget = min(per_seg, left) if seg < segments - 1 else left
        while budget > 0:
            t = int(tenants.sample(1)[0])
            todays = tenant_shards[t][day * 4 : day * 4 + 4]
            shard = int(todays[int(rng.integers(0, len(todays)))])
            burst = min(budget, max(1, int(rng.exponential(burst_mean))))
            for _ in range(burst):
                roll = rng.random()
                if roll < write_fraction:
                    sub = rng.random()
                    names = created.get(shard)
                    if sub < 0.85 or not names:
                        name = f"obj_{uid:08d}"
                        uid += 1
                        tb.create(shard, name)
                        created.setdefault(shard, []).append(name)
                    else:
                        # churn: delete a recently written object
                        tb.unlink(shard, names.pop())
                else:
                    sub = rng.random()
                    if sub < 0.25:
                        tb.readdir(shard)
                    elif sub < 0.75 and created.get(shard):
                        names = created[shard]
                        tb.stat(shard, names[int(rng.integers(0, len(names)))])
                    else:
                        name = shared_files[int(rng.integers(0, len(shared_files)))]
                        tb.open(shared_root, name)
            budget -= burst
        tenants.advance()

    trace = tb.build()
    return built, trace
