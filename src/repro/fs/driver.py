"""Epoch driver: Data Collector + Metadata Balancer loop (§4.2/§4.3).

Every ``epoch_ms`` of virtual time the driver snapshots the per-directory
access statistics, drains the per-MDS counters, hands everything to the
plugged-in policy, and pipes the returned decisions through the Migrator.
This is the pipeline that makes OrigamiFS "ML-native": the policy is an
arbitrary external algorithm consuming collector dumps and emitting
decisions.

The driver is also where the balancer audit closes its loop: each epoch's
load observation resolves the *realized* benefit of the previous epoch's
migrations, and each applied decision batch is logged with the candidate
set the policy scored (posted via ``EpochContext.obs``).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.balancers.base import BalancePolicy, EpochContext
from repro.fs.metrics import EpochMetrics

__all__ = ["EpochDriver"]


class EpochDriver:
    """Periodic collector/balancer process."""

    def __init__(self, fs, policy: BalancePolicy, oracle_window_ops: int = 5000):
        self.fs = fs
        self.policy = policy
        self.oracle_window_ops = oracle_window_ops
        # resume-aware starting points: a warm-restarted run carries prior
        # epochs, a warped clock, and an advanced cursor (all zero on a
        # fresh run, so this is the classic initialisation then)
        self.epoch = len(fs.epochs)
        self._last_flush_ms = fs.env.now
        self._last_cursor = fs.cursor
        #: epoch boundaries this run's loop crossed (published at end of run
        #: as ``epochs_total``; the end-of-run partial flush is not one)
        self.boundaries = 0
        #: server RPC and request totals at the last flush (every server's
        #: totals start at zero with the cluster)
        n = len(fs.servers)
        self._prev_rpcs = np.zeros(n, dtype=np.int64)
        self._prev_qps = np.zeros(n, dtype=np.int64)

    def epoch_pending(self) -> bool:
        """True when the open epoch saw busy time or a request."""
        return any(
            s.epoch_busy_ms > 0 or s.total_requests > prev
            for s, prev in zip(self.fs.servers, self._prev_qps.tolist())
        )

    def flush_epoch(self) -> EpochMetrics:
        """Drain counters into an EpochMetrics record (no balancing)."""
        fs = self.fs
        servers = fs.servers
        # busy time is drained, not differenced: its per-epoch sum from zero
        # rounds differently from a difference of running float totals, and
        # per_epoch.busy_ms is pinned bit for bit.  The integer counts are
        # exact as differences of the servers' run totals.
        busy = np.array([s.epoch_busy_ms for s in servers])
        for s in servers:
            s.epoch_busy_ms = 0.0
        rpcs_total = np.array([s.total_rpcs for s in servers], dtype=np.int64)
        qps_total = np.array([s.total_requests for s in servers], dtype=np.int64)
        rpcs = (rpcs_total - self._prev_rpcs).astype(np.float64)
        qps = (qps_total - self._prev_qps).astype(np.float64)
        self._prev_rpcs = rpcs_total
        self._prev_qps = qps_total
        now = fs.env.now
        em = EpochMetrics(
            epoch=self.epoch,
            duration_ms=max(now - self._last_flush_ms, 1e-9),
            busy_ms=busy,
            qps=qps,
            rpcs=rpcs,
            inodes=fs.pmap.inodes_per_mds().astype(np.float64),
        )
        audit = fs.obs.audit
        if audit is not None:
            # this epoch's observed load resolves earlier epochs' migrations
            audit.observe_epoch(em.epoch, em.busy_ms, em.duration_ms)
        self._last_flush_ms = now
        fs.epochs.append(em)
        self.epoch += 1
        return em

    def run(self) -> Generator:
        fs = self.fs
        env = fs.env
        audit = fs.obs.audit
        elastic = fs.elastic
        liveness = fs.liveness if elastic is not None else None
        # balancers get a degraded-mode liveness mask only when membership
        # can change: crashes (faults) or voluntary joins/drains (elastic)
        degraded = elastic is not None or fs.faults is not None
        while True:
            yield env.timeout(fs.config.epoch_ms)
            snapshot = fs.stats.snapshot_and_reset()
            em = self.flush_epoch()
            self.boundaries += 1
            completed = fs.trace[self._last_cursor : fs.cursor]
            self._last_cursor = fs.cursor
            ctx = EpochContext(
                tree=fs.tree,
                pmap=fs.pmap,
                epoch=em.epoch,
                snapshot=snapshot,
                mds_load=em.busy_ms,
                params=fs.params,
                rng=fs.rng,
                oracle_window=fs.upcoming(self.oracle_window_ops),
                completed_window=completed,
                obs=fs.obs,
                mds_up=fs.liveness.serving_mask() if degraded else None,
                liveness=liveness,
            )
            decisions = self.policy.rebalance(ctx)
            if decisions:
                before = fs.migrator.log.total_migrations
                yield from fs.migrator.apply(decisions, epoch=em.epoch)
                em.migrations = fs.migrator.log.total_migrations - before
                if audit is not None and em.migrations:
                    audit.record_decisions(
                        em.epoch,
                        em.busy_ms,
                        em.duration_ms,
                        fs.migrator.log.applied[before:],
                        tree=fs.tree,
                    )
            if elastic is not None:
                # autoscaling runs after the balancer so scale decisions see
                # this epoch's load and drains reuse its evacuation machinery
                yield from elastic.step(ctx, em)
            if fs.replay_done:
                return
