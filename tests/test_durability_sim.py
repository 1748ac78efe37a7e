"""DES integration of the durability layer: modeled WAL/fsync latency,
derived crash recovery, and golden parity when durability is off."""

import pytest

from repro.balancers import LunulePolicy
from repro.fs.faults import Crash, FaultSchedule
from repro.fs.filesystem import OrigamiFS, SimConfig
from repro.harness.config import get_scale
from repro.harness.experiments import build_workload, run_strategy


def _run(tmp_path, *, data_dir_name=None, faults=None, seed=9, n_ops=1500):
    built, trace = build_workload("rw", n_ops, seed=seed)
    cfg = SimConfig(
        n_mds=3,
        seed=4,
        use_kvstore=True,
        data_dir=str(tmp_path / data_dir_name) if data_dir_name else None,
        faults=faults,
    )
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), cfg)
    return fs.run(), trace


def test_durable_run_surfaces_wal_counters(tmp_path):
    r, trace = _run(tmp_path, data_dir_name="stores")
    kv = r.kvstore
    assert kv["wal_appends"] > 0
    assert kv["wal_bytes"] > 0
    assert kv["fsyncs"] > 0
    assert kv["recoveries"] == 0.0  # healthy run never reopens
    assert kv["recovery_ms"] == 0.0
    assert r.ops_completed == len(trace)


def test_durable_run_is_deterministic(tmp_path):
    r1, _ = _run(tmp_path, data_dir_name="a")
    r2, _ = _run(tmp_path, data_dir_name="b")
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert d1 == d2


def test_durability_latency_is_modeled_not_free(tmp_path):
    r_mem, _ = _run(tmp_path)  # kvstore on, no data_dir
    r_dur, _ = _run(tmp_path, data_dir_name="stores")
    # WAL appends + group-commit fsyncs are priced as service time, so the
    # durable run must be strictly slower in virtual time
    assert r_dur.duration_ms > r_mem.duration_ms
    assert r_dur.mean_latency_ms > r_mem.mean_latency_ms
    # but never loses an op to the accounting
    assert r_dur.ops_completed == r_mem.ops_completed


def test_memory_only_kvstore_unaffected_by_durability_code(tmp_path):
    # golden-parity guard at the unit level: data_dir=None leaves the
    # stores free of any backend and the result carries no durability cost
    built, trace = build_workload("rw", 800, seed=1)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(),
                   SimConfig(n_mds=2, seed=0, use_kvstore=True))
    r = fs.run()
    assert all(s.store.backend is None for s in fs.servers)
    assert r.kvstore["wal_appends"] == 0.0
    assert r.kvstore["fsyncs"] == 0.0
    assert "recovery_ms" not in r.kvstore


def test_crash_derives_recovery_from_actual_state(tmp_path):
    faults = FaultSchedule(
        [Crash(mds=0, start_ms=30.0, end_ms=80.0, warmup_factor=2.0)]
    )
    r, trace = _run(tmp_path, data_dir_name="stores", faults=faults, n_ops=2500)
    d = r.to_dict()
    # conservation holds through the crash
    assert d["ops_completed"] + d["vanished_ops"] + d["fault_failed_ops"] == len(trace)
    assert d["faults"]["crashes"] == 1
    assert d["faults"]["restarts"] == 1
    # the restarted MDS reopened its store: a real recovery was performed
    # and its modeled cost is what sized the warm-up
    assert r.kvstore["recoveries"] >= 1.0
    assert r.kvstore["recovery_ms"] > 0.0
    assert d["faults"]["recovery_ms"] > 0.0


def test_span_identity_holds_with_durability(tmp_path):
    from repro.obs import Observability

    built, trace = build_workload("rw", 1000, seed=2)
    obs = Observability(trace=True)
    cfg = SimConfig(n_mds=3, seed=1, use_kvstore=True,
                    data_dir=str(tmp_path / "stores"), obs=obs)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), cfg)
    fs.run()
    spans = obs.tracer.spans
    assert len(spans) == len(trace)
    saw_wal = False
    for s in spans:
        d = s.to_dict()
        components = d["queue_ms"] + d["service_ms"] + d["net_ms"] + d["fault_wait_ms"]
        assert components == pytest.approx(d["latency_ms"], rel=1e-9, abs=1e-12)
        saw_wal = saw_wal or d.get("wal_ms", 0.0) > 0.0
    # the informational wal_ms attribution actually fired somewhere
    assert saw_wal


def test_trace_report_surfaces_durability_rows(tmp_path):
    from repro.obs import Observability
    from repro.obs.report import decompose, render_trace_report

    built, trace = build_workload("rw", 800, seed=6)
    obs = Observability(trace=True)
    cfg = SimConfig(n_mds=2, seed=0, use_kvstore=True,
                    data_dir=str(tmp_path / "stores"), obs=obs)
    OrigamiFS(built.tree, trace, LunulePolicy(), cfg).run()
    spans = [s.to_dict() for s in obs.tracer.spans]
    d = decompose(spans)
    assert d.wal_appends > 0 and d.wal_bytes > 0 and d.wal_ms > 0
    report = render_trace_report(spans, source="test")
    assert "of which WAL/fsync" in report
    assert "WAL appends" in report


def test_run_strategy_accepts_data_dir(tmp_path):
    scale = get_scale("smoke")
    r = run_strategy(
        "Lunule",
        "rw",
        scale,
        seed=0,
        n_mds=3,
        n_ops=600,
        data_dir=str(tmp_path / "stores"),
    )
    assert r.kvstore is not None
    assert r.kvstore["wal_appends"] > 0
    assert r.kvstore["recovery_ms"] == 0.0
