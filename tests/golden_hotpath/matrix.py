"""The differential-equivalence cell matrix for the hot-path golden suite.

Shared by ``capture.py`` (regenerates the fixtures) and
``tests/test_hotpath_equivalence.py`` (asserts fresh runs match them), so
both sides execute the *same* code path — the only difference is whether
the captured dict is written to disk or compared against it.

Each cell runs one small simulation with full observability (in-memory
span tracer + windowed timeline) and reduces every deterministic output to
a JSON-stable form:

* the full ``SimResult.to_dict()`` minus the volatile wall-clock keys;
* a SHA-256 over the canonical JSON of every finished span;
* the timeline meta plus a SHA-256 over the canonical JSON of its windows;
* (one dedicated cell) a benchmark artifact with its volatile sections and
  machine fingerprint stripped, reduced to a SHA-256.

Cells were captured in two groups, each from the build just before the
change it guards, so a pass proves the current simulator is bit-identical
to those builds in every deterministic output:

* the traced ``healthy``/``faults``/``durability`` cells and
  ``bench_artifact`` — with the build that preceded the hot-path
  optimization of commit b9b3551 (which added them);
* the ``untraced``, ``lease``, ``datapath``, ``kvstore``, ``elastic``
  and ``netfaults`` cells — at commit 1ac5a47, before the
  general client loop was folded into the compiled-plan loop.  The
  untraced cells replay with the tracer off, so they pin the loop a
  healthy unobserved run takes;
* the ``origami`` and ``fhash`` cells — at commit 7a97d81, before the
  lsdir fan-out cache was re-keyed and GBDT predict learned to skip
  repeated rows.  Every other cell runs Lunule; these two pin the trained
  Origami policy (model predict every epoch) and F-Hash (file inodes
  sharded apart from their directory, the other branch of the lsdir
  cache).  Both replay untraced, the route the benchmark takes.

Fixtures are never re-captured to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from typing import Any, Dict

#: run shape — small enough for CI, large enough to cross several epochs,
#: exercise migrations, and (fault cells) straddle a crash + restart
N_OPS = 2500
N_MDS = 3
N_CLIENTS = 12
EPOCH_MS = 60.0
CACHE_DEPTH = 2

#: SimResult keys that are wall-clock (machine-speed) measurements
VOLATILE_RESULT_KEYS = ("wall_s", "engine_events_per_wall_sec")

#: cell name -> (workload kind, seed, config flavor)
CELLS = {
    "healthy_rw_seed0": ("rw", 0, "healthy"),
    "healthy_rw_seed1": ("rw", 1, "healthy"),
    "healthy_ro_seed0": ("ro", 0, "healthy"),
    "healthy_ro_seed1": ("ro", 1, "healthy"),
    "healthy_wi_seed0": ("wi", 0, "healthy"),
    "healthy_wi_seed1": ("wi", 1, "healthy"),
    "faults_rw_seed0": ("rw", 0, "faults"),
    "faults_rw_seed1": ("rw", 1, "faults"),
    "faults_wi_seed0": ("wi", 0, "faults"),
    "durability_wi_seed0": ("wi", 0, "durability"),
    "durability_rw_seed1": ("rw", 1, "durability"),
    "untraced_ro_seed0": ("ro", 0, "untraced"),
    "lease_rw_seed0": ("rw", 0, "lease"),
    "datapath_wi_seed0": ("wi", 0, "datapath"),
    "kvstore_rw_seed0": ("rw", 0, "kvstore"),
    "elastic_rw_seed0": ("rw", 0, "elastic"),
    "netfaults_rw_seed0": ("rw", 0, "netfaults"),
    "origami_wi_seed0": ("wi", 0, "origami"),
    "fhash_wi_seed0": ("wi", 0, "fhash"),
}

#: flavors replayed with the span tracer off (their spans hash is empty)
UNTRACED_FLAVORS = ("untraced", "lease", "datapath", "kvstore", "origami", "fhash")

#: Origami cell's model: trained on its own small Trace-WI (a different seed
#: from the replayed one), small enough to fit in about a second
ORIGAMI_TRAIN_OPS = 6000
ORIGAMI_TRAIN_SEED = 7
ORIGAMI_TRAIN_EPOCH_OPS = 600
ORIGAMI_GBDT_ROUNDS = 20

#: the dedicated bench-artifact cell (runs through repro.bench end to end)
BENCH_CELL = "bench_artifact"
BENCH_SCENARIO_NAME = "hotpath_equiv_micro"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fault_schedule():
    """A deterministic schedule landing inside a ~100-virtual-ms run."""
    from repro.fs.faults import Crash, FaultSchedule, RpcDelay, Slowdown

    return FaultSchedule(
        events=[
            Crash(mds=0, start_ms=30.0, end_ms=60.0, warmup_ms=10.0, warmup_factor=2.0),
            Slowdown(mds=1, start_ms=20.0, end_ms=50.0, factor=3.0),
            RpcDelay(mds=2, start_ms=25.0, end_ms=45.0, extra_ms=0.02),
        ]
    )


def network_fault_schedule():
    """Partition, drops and a crash; drops draw the ``fault-drop`` stream,
    so this cell is sensitive to the order in which RPCs are issued."""
    from repro.fs.faults import Crash, FaultSchedule, Partition, RpcDrop

    return FaultSchedule(
        events=[
            Partition(mds=0, start_ms=15.0, end_ms=25.0),
            RpcDrop(mds=0, start_ms=10.0, end_ms=90.0, probability=0.05),
            Crash(mds=1, start_ms=62.0, end_ms=85.0, warmup_ms=10.0, warmup_factor=2.0),
        ]
    )


def elastic_spec():
    """A threshold pool that starts small and grows under the cell's load."""
    from repro.fs.elastic import AutoscaleSpec

    return AutoscaleSpec(
        policy="threshold",
        min_mds=1,
        max_mds=N_MDS + 1,
        warmup_ms=8.0,
        warmup_factor=2.0,
        cooldown_epochs=0,
        scale_out_util=0.6,
        scale_in_util=0.2,
    )


def _flavor_config(flavor: str, scratch: str) -> Dict[str, Any]:
    """SimConfig overrides for one flavor (on top of the shared run shape)."""
    if flavor == "faults":
        return {"faults": fault_schedule()}
    if flavor == "netfaults":
        return {"faults": network_fault_schedule()}
    if flavor == "durability":
        return {"data_dir": f"{scratch}/stores"}
    if flavor == "lease":
        return {"cache_mode": "lease"}
    if flavor == "datapath":
        return {"datapath": {"n_servers": 2}}
    if flavor == "kvstore":
        return {"use_kvstore": True}
    if flavor == "elastic":
        # short epochs so the pool has several decision points to scale at
        return {"n_mds": N_MDS - 1, "epoch_ms": EPOCH_MS / 4.0, "autoscale": elastic_spec()}
    if flavor == "origami":
        # short epochs: the model predicts once per epoch, and repeat calls
        # are what its memo serves
        return {"epoch_ms": EPOCH_MS / 6.0}
    return {}


def _policy(flavor: str):
    """The balancer a flavor runs (Lunule unless the flavor names one)."""
    from repro.balancers import FineHashPolicy, LunulePolicy, OrigamiPolicy
    from repro.costmodel import CostParams
    from repro.harness.experiments import build_workload
    from repro.training import collect_training_data, train_origami_model

    if flavor == "fhash":
        return FineHashPolicy()
    if flavor != "origami":
        return LunulePolicy()
    built, trace = build_workload("wi", ORIGAMI_TRAIN_OPS, ORIGAMI_TRAIN_SEED)
    dataset, _ = collect_training_data(
        built.tree, trace, n_mds=N_MDS, params=CostParams(cache_depth=CACHE_DEPTH),
        delta=50.0, ops_per_epoch=ORIGAMI_TRAIN_EPOCH_OPS,
    )
    model = train_origami_model(dataset, n_estimators=ORIGAMI_GBDT_ROUNDS)
    return OrigamiPolicy(model, max_moves_per_epoch=8, cooldown_epochs=2)


def run_cell(name: str) -> Dict[str, Any]:
    """Execute one matrix cell and reduce it to its comparable form."""
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.harness.experiments import build_workload
    from repro.obs import Observability

    kind, seed, flavor = CELLS[name]
    built, trace = build_workload(kind, N_OPS, seed)
    obs = Observability(
        # in-memory tracer: spans retained, no file
        trace=flavor not in UNTRACED_FLAVORS,
        timeline=True,
        timeline_window_ms=EPOCH_MS / 5.0,
    )
    with tempfile.TemporaryDirectory(prefix="repro-hotpath-golden-") as scratch:
        shape = {
            "n_mds": N_MDS,
            "n_clients": N_CLIENTS,
            "epoch_ms": EPOCH_MS,
            "params": CostParams(cache_depth=CACHE_DEPTH),
            "seed": seed,
            "obs": obs,
        }
        shape.update(_flavor_config(flavor, scratch))
        config = SimConfig(**shape)
        result = run_simulation(built.tree, trace, _policy(flavor), config)

    result_dict = result.to_dict()
    for key in VOLATILE_RESULT_KEYS:
        result_dict.pop(key, None)

    span_lines = [_canonical(s.to_dict()) for s in obs.tracer.spans]
    timeline_rows = obs.timeline.to_rows()
    return {
        "cell": name,
        "result": result_dict,
        "n_spans": len(span_lines),
        "spans_sha256": _sha256("\n".join(span_lines)),
        "timeline_meta": obs.timeline.meta(),
        "n_windows": len(timeline_rows),
        "timeline_sha256": _sha256("\n".join(_canonical(r) for r in timeline_rows)),
    }


def _ensure_bench_scenario():
    """Register (idempotently) the tiny scenario the bench cell runs."""
    from repro.bench.scenario import (
        BenchScenario,
        BenchVariant,
        get_scenario,
        register_scenario,
    )

    try:
        return get_scenario(BENCH_SCENARIO_NAME)
    except KeyError:
        pass
    scn = BenchScenario(
        name=BENCH_SCENARIO_NAME,
        description="micro scenario backing the hot-path equivalence fixture",
        kind="rw",
        variants=(
            BenchVariant(
                name="lunule", strategy="Lunule", n_mds=3, n_clients=12,
                ops_factor=0.2,
            ),
            BenchVariant(
                name="chash", strategy="C-Hash", n_mds=3, n_clients=12,
                ops_factor=0.2,
            ),
        ),
        seeds=(0,),
        scale="smoke",
        tags=("equivalence",),
    )
    register_scenario(scn)
    return scn


def run_bench_cell() -> Dict[str, Any]:
    """Run the micro bench scenario and reduce its deterministic core."""
    from repro.bench.runner import run_scenario
    from repro.bench.store import strip_volatile

    scn = _ensure_bench_scenario()
    artifact = strip_volatile(run_scenario(scn, workers=1))
    canon = _canonical(artifact)
    return {
        "cell": BENCH_CELL,
        "n_runs": len(artifact["runs"]),
        "artifact_sha256": _sha256(canon),
        # the headline rates are kept in the clear so a digest mismatch
        # still shows *what* moved without rerunning by hand
        "engine_events": {
            r["variant"]: r["metrics"]["engine_events"] for r in artifact["runs"]
        },
    }
