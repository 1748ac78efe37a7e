"""Observability: metrics registry, request-span tracing, balancer audit.

The DES reproduces the paper's *aggregate* results, but the paper's central
claim is about *where* latency goes — RPC multiplicity, queueing delay,
locality shredding.  This package makes those components observable without
perturbing the simulation:

* :mod:`repro.obs.registry` — a label-aware :class:`MetricsRegistry`
  (``Counter`` / ``Gauge`` / ``Histogram``) into which every simulated
  component's totals are published once, at end of run; a shared null
  implementation makes the disabled path free.
* :mod:`repro.obs.tracing` — per-request :class:`Span` records decomposing
  client latency into queue wait, service time, network RTTs, and cache /
  kvstore activity, exported as JSONL.
* :mod:`repro.obs.audit` — the :class:`BalancerAudit` decision log:
  candidate set, predicted benefit, and the *realized* next-epoch benefit of
  every migration, so prediction quality is a per-run observable.
* :mod:`repro.obs.profiling` — wall-clock phase profiling for the harness.
* :mod:`repro.obs.report` — latency-decomposition analysis of a trace file
  (the ``repro report`` command).
* :mod:`repro.obs.timeseries` — the windowed :class:`TimelineCollector`:
  per-MDS and cluster series on fixed virtual-time windows (``simulate
  --timeline``), exact by construction (window deltas telescope to the
  end-of-run counters).
* :mod:`repro.obs.slo` — declarative SLO specs evaluated over timeline
  windows into compliance verdicts, error-budget burn rates, and
  fault-schedule annotations.
* :mod:`repro.obs.export` — timeline JSONL, Prometheus text exposition,
  and the ASCII table/heatmap renders behind ``repro obs``.

Everything here is passive: no RNG draws, no event scheduling.  A run with
observability enabled is bit-identical (headline metrics) to one without —
asserted by ``tests/test_obs_parity.py``.
"""

from repro.obs.audit import AuditEntry, BalancerAudit
from repro.obs.observability import NULL_OBS, Observability
from repro.obs.profiling import PhaseProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.slo import SloError, SloObjective, SloReport, SloSpec, evaluate_slo
from repro.obs.timeseries import NULL_TIMELINE, TimelineCollector
from repro.obs.tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "AuditEntry",
    "BalancerAudit",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TIMELINE",
    "NULL_TRACER",
    "Observability",
    "PhaseProfiler",
    "SloError",
    "SloObjective",
    "SloReport",
    "SloSpec",
    "Span",
    "TimelineCollector",
    "Tracer",
    "evaluate_slo",
]
