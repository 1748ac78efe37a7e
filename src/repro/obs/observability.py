"""The observability bundle a simulation run carries.

``SimConfig.obs`` takes one of these; :data:`NULL_OBS` (all components
disabled) is what every existing call site gets implicitly, keeping the
disabled path free and all prior behaviour unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.audit import BalancerAudit
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.timeseries import NULL_TIMELINE, TimelineCollector
from repro.obs.tracing import NULL_TRACER, Tracer

__all__ = ["Observability", "NULL_OBS"]


class Observability:
    """Bundle of registry + tracer + audit handed to an :class:`OrigamiFS`.

    Any subset may be enabled::

        obs = Observability(metrics=True, trace_path="t.jsonl", audit=True)
        cfg = SimConfig(obs=obs)
        result = run_simulation(tree, trace, policy, cfg)
        obs.close()                      # flush the trace file
        obs.registry.write("m.json")     # metrics snapshot
        obs.audit.write("audit.jsonl")   # balancer decision log
    """

    def __init__(
        self,
        metrics: bool = False,
        trace_path: Optional[str] = None,
        trace: bool = False,
        trace_sample: int = 1,
        audit: bool = False,
        timeline: bool = False,
        timeline_window_ms: float = 50.0,
    ):
        self.registry = MetricsRegistry(enabled=True) if metrics else NULL_REGISTRY
        if trace or trace_path is not None:
            self.tracer = Tracer(trace_path, sample=trace_sample)
        else:
            self.tracer = NULL_TRACER
        self.audit: Optional[BalancerAudit] = BalancerAudit() if audit else None
        if timeline:
            self.timeline = TimelineCollector(window_ms=timeline_window_ms)
        else:
            self.timeline = NULL_TIMELINE

    @property
    def enabled(self) -> bool:
        return (
            self.registry.enabled
            or self.tracer.enabled
            or self.audit is not None
            or self.timeline.enabled
        )

    def close(self) -> None:
        self.tracer.close()

    # ------------------------------------------------------------- finalize
    def finalize(self, fs: Any) -> None:
        """Publish end-of-run state of every component into the registry.

        Called once by :meth:`OrigamiFS.run`; zero cost when metrics are off.
        Each value is read once from the total its component already keeps
        (server busy/RPC/request totals, the latency log, fault and pool
        counters, engine calendar, cache hits, LSM amplification), so the
        hot paths pay nothing for an observed run.  The client families
        cover this run segment's slice of the latency log.
        """
        # close the trailing timeline window before anything reads it
        self.timeline.finalize(fs.env.now)

        reg = self.registry
        if not reg.enabled:
            return
        env = fs.env
        reg.gauge("engine_events_total", "events processed by the DES kernel").set(
            env.events_processed
        )
        reg.gauge("engine_peak_calendar_len", "peak event-calendar length").set(
            env.peak_queue_len
        )
        reg.gauge("engine_virtual_time_ms", "final virtual clock").set(env.now)
        reg.counter("epochs_total", "epoch boundaries crossed").inc(fs.driver.boundaries)

        latency = fs.latency.values(fs.latency_base)
        reg.counter("client_ops_total", "metadata ops completed").inc(latency.size)
        reg.histogram(
            "client_latency_ms", "client-observed metadata latency (ms)"
        ).labels().observe_many(latency)

        busy = reg.gauge("mds_busy_ms_total", "virtual ms each MDS spent servicing")
        rpcs = reg.gauge("mds_rpcs_total", "RPC messages handled per MDS")
        wait = reg.gauge("mds_queue_wait_ms_total", "total queue wait at each MDS")
        grants = reg.gauge("mds_queue_grants_total", "service slots granted per MDS")
        peakq = reg.gauge("mds_queue_peak_len", "peak service-queue length per MDS")
        requests = reg.counter("mds_requests_total", "requests with this MDS as primary")
        for s in fs.servers:
            label = str(s.mds_id)
            requests.labels(mds=label).inc(s.total_requests)
            busy.labels(mds=label).set(s.total_busy_ms)
            rpcs.labels(mds=label).set(s.total_rpcs)
            wait.labels(mds=label).set(s.resource.total_wait_time)
            grants.labels(mds=label).set(s.resource.total_grants)
            peakq.labels(mds=label).set(s.resource.peak_queue_len)

        for name, value in fs.cache.stats_dict().items():
            reg.gauge(f"cache_{name}", f"client cache {name}").set(value)

        mig = fs.migrator.log
        reg.gauge("migrations_total", "applied migrations").set(mig.total_migrations)
        reg.gauge("migration_inodes_total", "inodes moved by migrations").set(
            mig.total_inodes_moved
        )
        reg.gauge("migration_stale_decisions_total", "decisions dropped as stale").set(
            fs.stale_decisions
        )

        if fs.use_kvstore:
            for s in fs.servers:
                if s.store is None:
                    continue
                label = str(s.mds_id)
                for name, value in s.store.stats.as_dict().items():
                    reg.gauge(f"kvstore_{name}", f"LSM store {name}").labels(
                        mds=label
                    ).set(value)
                if getattr(s, "recovery_ms_total", 0.0) > 0.0:
                    reg.gauge(
                        "mds_recovery_ms_total", "modeled recovery warm-up (ms)"
                    ).labels(mds=label).set(s.recovery_ms_total)

        if getattr(fs, "faults", None) is not None:
            for name, value in fs.faults.summary().items():
                reg.gauge(f"faults_{name}", f"fault injection {name}").set(value)
            reg.gauge(
                "faults_ops_vanished_total", "ops whose target dir vanished"
            ).set(fs.vanished_ops)

        if getattr(fs, "elastic", None) is not None:
            for name, value in fs.elastic.summary().items():
                reg.gauge(f"elastic_{name}", f"elastic pool {name}").set(value)

        if self.audit is not None:
            for name, value in self.audit.summary().items():
                reg.gauge(f"balancer_{name}", f"audit {name}").set(value)

    def metrics_snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {"metrics": self.registry.snapshot()}
        if self.audit is not None:
            snap["balancer_audit"] = {
                "summary": self.audit.summary(),
                "entries": self.audit.to_dicts(),
            }
        if self.tracer.enabled:
            snap["trace"] = {
                "spans_dropped": self.tracer.dropped,
                "path": self.tracer.path,
            }
        if self.timeline.enabled:
            snap["timeline"] = self.timeline.summary()
        return snap


#: everything disabled — the implicit default for every simulation
NULL_OBS = Observability()
