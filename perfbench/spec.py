"""Pinned workloads of the repo benchmark and the per-run seed rules.

Every size is written out here; none comes from a ``SCALES`` tier name, so
resizing a tier cannot move the benchmark.

Seeds.  Each workload replays one pinned namespace and op stream
(``workload_seed``).  The ``--seed`` of a run is expanded into
``SUBSEEDS_PER_RUN`` sub-seeds; each sub-seed drives

* the cluster's random streams (``SimConfig.seed``: fault-retry jitter,
  latency reservoir, policy stream), and
* how many ops, below ``TRIM_SHARE`` of the trace, are cut from its end
  (``cell.build_trace``).  The kept prefix is identical, so a policy
  without look-ahead makes the same decisions until the cut.

Drawing a fresh namespace per seed would make the modelled metrics depend
more on which directories happen to be hot (C-Hash on Trace-RO is bimodal
across namespace seeds: ~62k or ~124k ops/s) than on the program.  Reordering
ops is no better: Origami on Trace-WI takes another migration path on about
a third of reorderings (steady throughput 43k-48k instead of 53.5k ops/s).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

#: distinct sub-seeds per run; the modelled metrics are their median
SUBSEEDS_PER_RUN = 3
#: largest share of a trace a sub-seed may cut from its end
TRIM_SHARE = 0.03
#: steady-state guard: fewer full epochs than this and the run refuses to
#: report ``sim_throughput_ops_s`` (``SimResult.steady_state_throughput``
#: silently falls back to whole-run throughput at <= 2 epochs)
MIN_FULL_EPOCHS = 8


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: trace, policy, cluster and faults."""

    name: str
    #: build_workload family ("wi", "ro", "rw")
    kind: str
    #: "Origami", "C-Hash" or "Lunule"
    strategy: str
    n_ops: int
    n_mds: int
    #: closed-loop client coroutines pulling from the one shared trace
    n_clients: int
    #: which op loop the program must choose (fs.fastpath_engaged)
    expect_fastpath: bool
    tree_scale: float = 1.0
    epoch_ms: float = 100.0
    workload_seed: int = 1
    #: Origami only: GBDT training trace and boosting rounds
    train_ops: int = 0
    train_seed: int = 7
    train_epoch_ops: int = 4000
    gbdt_rounds: int = 0
    #: (mds, start_ms, end_ms, warmup_ms, warmup_factor)
    crash: Optional[Tuple[int, float, float, float, float]] = None
    #: (mds, start_ms, end_ms, factor)
    slowdown: Optional[Tuple[int, float, float, float]] = None
    #: retry budget per op; sized so that no op outlives it on the crash run
    retry_attempts: int = 8
    #: durable per-MDS stores (WAL + SSTables + MANIFEST) in a temp dir
    durable: bool = False

    def scaled(self, factor: float) -> "Workload":
        """A proportionally smaller copy (the benchmark's own tests use one).

        Virtual times shrink with the op count so the run keeps about as
        many epochs and its fault windows land in the same places.
        """
        if factor == 1.0:
            return self

        def t(x: float) -> float:
            return x * factor

        return replace(
            self,
            n_ops=max(2000, int(self.n_ops * factor)),
            n_clients=max(8, int(self.n_clients * factor)),
            tree_scale=max(1.0, self.tree_scale * factor),
            epoch_ms=t(self.epoch_ms),
            train_ops=int(self.train_ops * factor),
            train_epoch_ops=max(500, int(self.train_epoch_ops * factor)),
            gbdt_rounds=max(5, int(self.gbdt_rounds * factor)) if self.gbdt_rounds else 0,
            crash=(
                None if self.crash is None
                else (self.crash[0], t(self.crash[1]), t(self.crash[2]), t(self.crash[3]), self.crash[4])
            ),
            slowdown=(
                None if self.slowdown is None
                else (self.slowdown[0], t(self.slowdown[1]), t(self.slowdown[2]), self.slowdown[3])
            ),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="origami-wi",
            kind="wi",
            strategy="Origami",
            n_ops=150_000,
            n_mds=5,
            n_clients=300,
            expect_fastpath=True,
            train_ops=40_000,
            gbdt_rounds=80,
        ),
        Workload(
            name="chash-ro",
            kind="ro",
            strategy="C-Hash",
            n_ops=200_000,
            n_mds=16,
            n_clients=2000,
            expect_fastpath=True,
            tree_scale=4.0,
        ),
        Workload(
            name="lunule-rw-crash",
            kind="rw",
            strategy="Lunule",
            n_ops=120_000,
            n_mds=5,
            n_clients=400,
            expect_fastpath=False,
            crash=(0, 200.0, 500.0, 50.0, 2.0),
            slowdown=(1, 800.0, 1100.0, 3.0),
            retry_attempts=200,
            durable=True,
        ),
    )
}


def subseeds(seed: int) -> list:
    """The run's sub-seeds: a pure function of ``--seed``."""
    return [
        int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        for k in range(SUBSEEDS_PER_RUN)
    ]
