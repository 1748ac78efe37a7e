"""Simulation checkpoint capture/restore tests (repro.durability.checkpoint)."""

import json
import os

import numpy as np
import pytest

from repro.balancers import LunulePolicy
from repro.durability import CHECKPOINT_SCHEMA_VERSION, Checkpointer, SimCheckpoint
from repro.durability.errors import CheckpointError
from repro.fs.filesystem import OrigamiFS, SimConfig
from repro.harness.experiments import build_workload


def _segmented_run(tmp_path, *, use_kvstore=False, data_dir=None, n_ops=1200, split=600,
                   seed=7):
    """Run the first `split` ops, checkpoint, save+load, restore, finish."""
    built, trace = build_workload("rw", n_ops, seed=seed)
    cfg = dict(n_mds=3, seed=5, use_kvstore=use_kvstore, data_dir=data_dir)
    fs1 = OrigamiFS(built.tree, trace[:split], LunulePolicy(), SimConfig(**cfg))
    r1 = fs1.run()
    ck = Checkpointer().capture(fs1)
    path = str(tmp_path / "run.ckpt")
    ck.save(path)
    ck2 = SimCheckpoint.load(path)
    fs2 = Checkpointer().restore(ck2, trace, LunulePolicy(), SimConfig(**cfg))
    r2 = fs2.run()
    # the latency log crosses the seam whole: one sample per issued op, and
    # the resumed percentiles are exact over both segments
    seg1 = fs1.latency.values()
    assert fs2.latency.count == len(trace)
    assert fs2.latency.values(0, seg1.size).tolist() == seg1.tolist()
    both = np.concatenate([seg1, fs2.latency.values(seg1.size)])
    assert r2.p50_latency_ms == np.percentile(both, 50)
    assert r2.p99_latency_ms == np.percentile(both, 99)
    return r1, r2, ck2, trace


def test_inmemory_resume_conserves_ops(tmp_path):
    r1, r2, ck, trace = _segmented_run(tmp_path)
    assert ck.cursor == 600
    assert r2.ops_completed + r2.failed_ops == len(trace)
    assert r2.ops_completed > r1.ops_completed
    assert r2.duration_ms > r1.duration_ms
    # epoch ids continue monotonically across the seam
    ids = [e.epoch for e in r2.per_epoch]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_resume_equals_with_kvstore(tmp_path):
    r1, r2, ck, trace = _segmented_run(tmp_path, use_kvstore=True)
    assert r2.ops_completed + r2.failed_ops == len(trace)
    assert r2.kvstore is not None


def test_durable_resume_reopens_stores(tmp_path):
    data_dir = str(tmp_path / "stores")
    r1, r2, ck, trace = _segmented_run(tmp_path, use_kvstore=True, data_dir=data_dir)
    assert r2.ops_completed + r2.failed_ops == len(trace)
    # each of the 3 MDS stores went through one recovery on restore
    assert r2.kvstore["recoveries"] == 3.0
    assert ck.durable and ck.data_dir == data_dir


def test_capture_restore_capture_is_exact(tmp_path):
    built, trace = build_workload("rw", 800, seed=11)
    cfg = dict(n_mds=3, seed=2, use_kvstore=False)
    fs1 = OrigamiFS(built.tree, trace[:400], LunulePolicy(), SimConfig(**cfg))
    fs1.run()
    ck1 = Checkpointer().capture(fs1)
    fs2 = Checkpointer().restore(ck1, trace, LunulePolicy(), SimConfig(**cfg))
    ck2 = Checkpointer().capture(fs2)
    assert ck1.to_dict() == ck2.to_dict()


def test_checkpoint_file_is_crc_framed(tmp_path):
    built, trace = build_workload("rw", 300, seed=1)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), SimConfig(n_mds=2, seed=0))
    fs.run()
    path = str(tmp_path / "x.ckpt")
    Checkpointer().capture(fs).save(path)
    doc = json.load(open(path))
    assert doc["v"] == CHECKPOINT_SCHEMA_VERSION
    assert isinstance(doc["crc"], int)
    # no stray temp file left behind by the atomic write
    assert os.listdir(tmp_path) == ["x.ckpt"]


def _saved_checkpoint(tmp_path, **cfg_kw):
    built, trace = build_workload("rw", 300, seed=1)
    cfg = dict(n_mds=2, seed=0)
    cfg.update(cfg_kw)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), SimConfig(**cfg))
    fs.run()
    path = str(tmp_path / "x.ckpt")
    Checkpointer().capture(fs).save(path)
    return path, trace


def test_load_rejects_tampered_payload(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    doc = json.load(open(path))
    doc["checkpoint"]["counters"]["ops_completed"] += 1
    json.dump(doc, open(path, "w"))
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(path)


def test_load_rejects_wrong_version(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    doc = json.load(open(path))
    # v1 carried a latency reservoir + its RNG state, not the latency log;
    # v2 also carried the list of created files
    for version in (1, 2, CHECKPOINT_SCHEMA_VERSION + 1):
        doc["v"] = version
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError):
            SimCheckpoint.load(path)


def test_load_rejects_garbage_and_missing(tmp_path):
    p = str(tmp_path / "junk.ckpt")
    open(p, "w").write("not json{")
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(p)
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(str(tmp_path / "missing.ckpt"))


def test_restore_validates_strategy_and_seed(tmp_path):
    path, trace = _saved_checkpoint(tmp_path)
    ck = SimCheckpoint.load(path)
    from repro.balancers import CoarseHashPolicy

    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace, CoarseHashPolicy(), SimConfig(n_mds=2, seed=0))
    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace, LunulePolicy(), SimConfig(n_mds=2, seed=99))
    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace, LunulePolicy(), SimConfig(n_mds=4, seed=0))


def test_restore_validates_trace_length(tmp_path):
    path, trace = _saved_checkpoint(tmp_path)
    ck = SimCheckpoint.load(path)
    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace[: ck.cursor - 1], LunulePolicy(),
                               SimConfig(n_mds=2, seed=0))


def test_restore_builds_default_config(tmp_path):
    # config=None: the restore derives a SimConfig from the checkpoint itself
    path, trace = _saved_checkpoint(tmp_path)
    ck = SimCheckpoint.load(path)
    fs = Checkpointer().restore(ck, trace, LunulePolicy())
    assert fs.config.n_mds == ck.n_mds
    assert fs.env.now == ck.now_ms


def test_restored_tree_preserves_ino_numbering(tmp_path):
    built, trace = build_workload("rw", 500, seed=3)
    fs1 = OrigamiFS(built.tree, trace[:250], LunulePolicy(), SimConfig(n_mds=3, seed=5))
    fs1.run()
    ck = Checkpointer().capture(fs1)
    fs2 = Checkpointer().restore(ck, trace, LunulePolicy(), SimConfig(n_mds=3, seed=5))
    t1, t2 = fs1.tree, fs2.tree
    assert t1.capacity == t2.capacity
    assert t1.num_dirs == t2.num_dirs and t1.num_files == t2.num_files
    for ino in range(t1.capacity):
        assert t1.is_alive(ino) == t2.is_alive(ino)
        if t1.is_alive(ino):
            assert t1.path_of(ino) == t2.path_of(ino)
    # ownership came back ino-for-ino as well
    import numpy as np

    assert np.array_equal(fs1.pmap.owner_array(), fs2.pmap.owner_array())
