"""Property-based invariants for the elastic pool: arbitrary join/drain
schedules, interleaved with fault schedules, never lose an op and never
leak time out of a span."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fs.elastic import AutoscaleSpec, ScaleEvent

SIM_SET = settings(
    max_examples=12,  # each example is a full (small) DES run
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_N_MDS = 2  # initial pool; schedules may grow it to 5
_MAX_MDS = 5


@st.composite
def scale_schedules(draw):
    """Arbitrary scripted join/drain sequences over the first few epochs.

    The controller enforces the [min_mds, max_mds] bounds and never drains
    MDS 0, so any generated schedule is servable by construction.
    """
    events = []
    for epoch in range(draw(st.integers(1, 6))):
        action = draw(st.sampled_from(["join", "drain", "none"]))
        if action == "none":
            continue
        events.append(ScaleEvent(epoch, action, count=draw(st.integers(1, 2))))
    if not events:
        events.append(ScaleEvent(0, "join"))
    return AutoscaleSpec(
        policy="schedule",
        min_mds=1,
        max_mds=_MAX_MDS,
        warmup_ms=draw(st.floats(0.0, 10.0)),
        warmup_factor=draw(st.floats(1.0, 4.0)),
        events=tuple(events),
    )


@st.composite
def fault_schedules(draw):
    """Fault schedules that stay servable alongside any drain schedule:
    crashes hit only MDS 1 (MDS 0 anchors the pool and never drains)."""
    from repro.fs.faults import Crash, FaultSchedule, RpcDelay, Slowdown

    events = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["slowdown", "crash", "delay"]))
        start = draw(st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False))
        end = start + draw(st.floats(0.5, 40.0, allow_nan=False, allow_infinity=False))
        if kind == "crash":
            events.append(
                Crash(mds=1, start_ms=start, end_ms=end,
                      warmup_ms=draw(st.floats(0.0, 10.0)),
                      warmup_factor=draw(st.floats(1.0, 4.0)))
            )
        elif kind == "slowdown":
            mds = draw(st.integers(0, _MAX_MDS - 1))
            events.append(Slowdown(mds=mds, start_ms=start, end_ms=end,
                                   factor=draw(st.floats(1.0, 6.0))))
        else:
            mds = draw(st.integers(0, _MAX_MDS - 1))
            events.append(RpcDelay(mds=mds, start_ms=start, end_ms=end,
                                   extra_ms=draw(st.floats(0.01, 0.5))))
    return FaultSchedule(events)


def _run_elastic(autoscale, faults, seed):
    from repro.balancers import LunulePolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.obs import Observability
    from repro.sim import SeedSequenceFactory
    from repro.workloads import generate_trace_rw

    built, trace = generate_trace_rw(SeedSequenceFactory(seed).stream("w"), n_ops=500)
    obs = Observability(trace=True)
    cfg = SimConfig(
        n_mds=_N_MDS,
        n_clients=6,
        epoch_ms=15.0,
        params=CostParams(cache_depth=2),
        seed=seed,
        faults=faults,
        autoscale=autoscale,
        obs=obs,
    )
    result = run_simulation(built.tree, trace, LunulePolicy(), cfg)
    return result, len(trace), obs.tracer.spans


@given(scale_schedules(), fault_schedules(), st.integers(0, 3))
@SIM_SET
def test_no_op_lost_under_joins_drains_and_faults(autoscale, faults, seed):
    """Zero-lost-ops survives any interleaving of voluntary membership
    changes with involuntary faults."""
    result, n_ops, spans = _run_elastic(autoscale, faults, seed)
    d = result.to_dict()
    assert d["ops_completed"] + d["fault_failed_ops"] + d["vanished_ops"] == n_ops
    assert len(spans) == n_ops
    # drain accounting is consistent: completions never exceed starts, and
    # the pool stayed within the spec's bounds
    e = d["elastic"]
    assert e["drains_completed"] <= e["drains_started"]
    assert 1.0 <= e["pool_min"] <= e["pool_peak"] <= float(_MAX_MDS)


@given(scale_schedules(), fault_schedules(), st.integers(0, 3))
@SIM_SET
def test_span_identity_holds_under_joins_and_drains(autoscale, faults, seed):
    """queue + service + net + fault_wait == latency, exactly, per span —
    warm-up slowdowns and drain evacuations never leak unaccounted time."""
    result, n_ops, spans = _run_elastic(autoscale, faults, seed)
    for s in spans:
        d = s.to_dict()
        components = d["queue_ms"] + d["service_ms"] + d["net_ms"] + d["fault_wait_ms"]
        assert components == pytest.approx(d["latency_ms"], rel=1e-9, abs=1e-12)
    assert result.duration_ms == pytest.approx(max(s.end_ms for s in spans))
