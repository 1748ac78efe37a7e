"""Simulation checkpointing: snapshot a quiescent run, warm-restart it later.

A :class:`SimCheckpoint` captures everything needed to continue replaying a
trace from where a previous segment stopped:

* the **namespace tree** (exact internal arrays, so restored ino numbering
  is identical to the captured run — replay-order reconstruction would not
  guarantee that);
* the **partition map** (dense owner array, restored via ``assign_bulk``);
* every **RNG stream** the run has touched (``bit_generator.state`` of each
  stream in the run's :class:`~repro.sim.rng.SeedSequenceFactory` cache,
  plus the fault injector's drop/backoff streams), so a resumed run draws
  the same random sequence an uninterrupted run would;
* the **virtual clock** (restored with :meth:`Environment.warp` onto the
  empty calendar of a freshly built cluster) and the run counters
  (cursor, completed/failed ops, RPCs, per-epoch metrics, the latency log,
  cache counters).  The latency log is carried whole, so the resumed run's
  percentiles are exact over both segments.

Per-MDS store contents come back one of two ways:

* **durable runs** (``SimConfig.data_dir``): the stores' own WAL + MANIFEST
  + SSTables on disk are the authoritative copy; restore simply reopens
  them through the normal crash-recovery path and skips the in-memory
  population pass entirely;
* **in-memory runs**: store contents are regenerated from the restored
  tree under the restored owner array — semantically identical to the
  captured stores (the live key set is exactly the tree's entries).

What a checkpoint deliberately does **not** carry (documented per-segment
state): balancer access statistics (the Data Collector re-learns within an
epoch), MDS busy/queue counters, fault injector totals, and migration log
entries.  Those are observability aggregates, not simulation state — a
resumed run remains a valid continuation, it just reports them per segment.

Capture requires a *quiescent point*: the DES calendar must be empty, which
is exactly the state :meth:`OrigamiFS.run` leaves behind.  Capturing a live
cluster mid-event raises :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.durability.errors import CheckpointError

__all__ = ["SimCheckpoint", "Checkpointer", "CHECKPOINT_SCHEMA_VERSION"]

#: bump when the checkpoint payload changes incompatibly
CHECKPOINT_SCHEMA_VERSION = 3

#: OrigamiFS counters snapshotted/restored verbatim
_COUNTER_FIELDS = (
    "ops_completed",
    "failed_ops",
    "vanished_ops",
    "fault_failed_ops",
    "total_rpcs",
    "stale_decisions",
    "data_ops_completed",
    "last_completion_ms",
)


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# --------------------------------------------------------------------- tree
def _tree_state(tree) -> Dict[str, Any]:
    """Exact snapshot of a NamespaceTree's internal arrays.

    The numpy columns are sliced to the logical extent and converted to
    plain Python scalars so the JSON payload is portable.
    """
    n = tree.capacity
    return {
        "parent": tree._parent[:n].tolist(),
        "name": list(tree._name),
        "ftype": tree._ftype[:n].tolist(),
        "depth": tree._depth[:n].tolist(),
        "alive": tree._alive[:n].tolist(),
        "size": tree._size[:n].tolist(),
        "children": [
            None if kids is None else dict(kids) for kids in tree._children
        ],
        "n_child_files": tree._n_child_files[:n].tolist(),
        "n_child_dirs": tree._n_child_dirs[:n].tolist(),
        "num_dirs": tree._num_dirs,
        "num_files": tree._num_files,
        "version": tree.version,
    }


def _rebuild_tree(state: Dict[str, Any]):
    """Reconstruct a NamespaceTree with identical ino numbering."""
    import numpy as np

    from repro.namespace.tree import NamespaceTree

    tree = NamespaceTree()
    try:
        n = len(state["parent"])
        tree._parent = np.asarray([int(p) for p in state["parent"]], dtype=np.int64)
        tree._name = [str(x) for x in state["name"]]
        tree._ftype = np.asarray([int(t) for t in state["ftype"]], dtype=np.int8)
        tree._depth = np.asarray([int(d) for d in state["depth"]], dtype=np.int64)
        tree._alive = np.asarray([bool(a) for a in state["alive"]], dtype=bool)
        tree._size = np.asarray([int(s) for s in state["size"]], dtype=np.int64)
        tree._children = [
            None if kids is None else {str(k): int(v) for k, v in kids.items()}
            for kids in state["children"]
        ]
        tree._n_child_files = np.asarray(
            [int(c) for c in state["n_child_files"]], dtype=np.int64
        )
        tree._n_child_dirs = np.asarray(
            [int(c) for c in state["n_child_dirs"]], dtype=np.int64
        )
        tree._n = n
        tree._cap = n
        tree._num_dirs = int(state["num_dirs"])
        tree._num_files = int(state["num_files"])
        tree.version = int(state["version"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"malformed tree state: {exc}") from None
    tree._dfs_cache = None
    try:
        tree.validate()
    except AssertionError as exc:
        raise CheckpointError(f"restored tree failed validation: {exc}") from None
    return tree


# --------------------------------------------------------------- checkpoint
@dataclass
class SimCheckpoint:
    """A quiescent-point snapshot of an :class:`OrigamiFS` run."""

    strategy: str
    seed: int
    n_mds: int
    use_kvstore: bool
    durable: bool
    data_dir: Optional[str]
    now_ms: float
    cursor: int
    counters: Dict[str, Any]
    owners: List[int]
    tree: Dict[str, Any]
    rng_streams: Dict[str, Any]
    fault_rng: Dict[str, Any]
    latency: Dict[str, Any]
    cache: Dict[str, Any]
    epochs: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "n_mds": self.n_mds,
            "use_kvstore": self.use_kvstore,
            "durable": self.durable,
            "data_dir": self.data_dir,
            "now_ms": self.now_ms,
            "cursor": self.cursor,
            "counters": self.counters,
            "owners": self.owners,
            "tree": self.tree,
            "rng_streams": self.rng_streams,
            "fault_rng": self.fault_rng,
            "latency": self.latency,
            "cache": self.cache,
            "epochs": self.epochs,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimCheckpoint":
        try:
            return cls(
                strategy=str(payload["strategy"]),
                seed=int(payload["seed"]),
                n_mds=int(payload["n_mds"]),
                use_kvstore=bool(payload["use_kvstore"]),
                durable=bool(payload["durable"]),
                data_dir=payload["data_dir"],
                now_ms=float(payload["now_ms"]),
                cursor=int(payload["cursor"]),
                counters=dict(payload["counters"]),
                owners=[int(o) for o in payload["owners"]],
                tree=payload["tree"],
                rng_streams=dict(payload["rng_streams"]),
                fault_rng=dict(payload["fault_rng"]),
                latency=dict(payload["latency"]),
                cache=dict(payload["cache"]),
                epochs=list(payload["epochs"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint payload: {exc}") from None

    def save(self, path: str) -> None:
        """Atomically write the checkpoint as CRC-framed JSON."""
        payload = self.to_dict()
        frame = {
            "v": CHECKPOINT_SCHEMA_VERSION,
            "crc": zlib.crc32(_canonical(payload)),
            "checkpoint": payload,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(frame, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "SimCheckpoint":
        try:
            with open(path) as f:
                frame = json.load(f)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from None
        if not isinstance(frame, dict) or "checkpoint" not in frame:
            raise CheckpointError(f"checkpoint {path} has no payload")
        version = frame.get("v")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has schema v{version}, "
                f"expected v{CHECKPOINT_SCHEMA_VERSION}"
            )
        payload = frame["checkpoint"]
        if zlib.crc32(_canonical(payload)) != frame.get("crc"):
            raise CheckpointError(f"checkpoint {path} failed its CRC check")
        return cls.from_dict(payload)

    # ---------------------------------------------- hooks used by OrigamiFS
    # These run inside OrigamiFS.__init__ via the ``restore_from`` kwarg so
    # ordering constraints (owners before store population, clock warp
    # before the fault injector schedules its timeline) hold by construction.
    def apply_partition(self, fs) -> None:
        """Overwrite the freshly built partition map with the captured one."""
        owners = np.asarray(self.owners, dtype=np.int64)
        if owners.shape[0] != fs.tree.capacity:
            raise CheckpointError(
                "owner array does not match the restored tree capacity"
            )
        fs.pmap.assign_bulk(owners)

    def apply_runtime(self, fs) -> None:
        """Restore counters, RNG streams, latency/cache state, and the clock."""
        from repro.fs.metrics import EpochMetrics

        fs.cursor = self.cursor
        fs.replay_done = fs.cursor >= len(fs.trace)
        for name in _COUNTER_FIELDS:
            if name in self.counters:
                setattr(fs, name, self.counters[name])
        fs.epochs = [
            EpochMetrics(
                epoch=int(e["epoch"]),
                duration_ms=float(e["duration_ms"]),
                busy_ms=np.asarray(e["busy_ms"], dtype=np.float64),
                qps=np.asarray(e["qps"], dtype=np.float64),
                rpcs=np.asarray(e["rpcs"], dtype=np.float64),
                inodes=np.asarray(e["inodes"], dtype=np.float64),
                migrations=int(e.get("migrations", 0)),
            )
            for e in self.epochs
        ]

        for name, state in self.rng_streams.items():
            try:
                fs._ssf.stream(name).generator.bit_generator.state = state
            except (TypeError, ValueError, KeyError) as exc:
                raise CheckpointError(
                    f"cannot restore RNG stream {name!r}: {exc}"
                ) from None

        try:
            fs.latency.samples.extend(float(x) for x in self.latency["samples"])
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointError(f"cannot restore latency log: {exc}") from None

        cache = fs.cache
        cache.hits = int(self.cache.get("hits", 0))
        cache.misses = int(self.cache.get("misses", 0))
        if hasattr(cache, "invalid_until"):
            cache.invalid_until = float(self.cache.get("invalid_until", 0.0))
        if hasattr(cache, "_expiry"):
            cache._expiry = {
                int(k): float(v) for k, v in self.cache.get("expiry", {}).items()
            }
            cache.grants = int(self.cache.get("grants", 0))
            cache.recalls = int(self.cache.get("recalls", 0))

        fs.env.warp(self.now_ms)

    def apply_fault_rng(self, fs) -> None:
        """Restore the injector's private streams (runs after it is built)."""
        if fs.faults is None or not self.fault_rng:
            return
        try:
            if "drop" in self.fault_rng:
                fs.faults._drop_rng.generator.bit_generator.state = self.fault_rng["drop"]
            if "retry" in self.fault_rng:
                fs.faults._retry_rng.generator.bit_generator.state = self.fault_rng["retry"]
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointError(f"cannot restore fault RNG streams: {exc}") from None


# -------------------------------------------------------------- checkpointer
class Checkpointer:
    """Capture a quiescent :class:`OrigamiFS` and warm-restart it later.

    The segmented-run protocol::

        fs1 = OrigamiFS(tree, trace[:n], policy, config)
        fs1.run()                                   # calendar drains
        ckpt = Checkpointer().capture(fs1)
        ckpt.save("run.ckpt")

        ckpt = SimCheckpoint.load("run.ckpt")
        fs2 = Checkpointer().restore(ckpt, trace, policy, config)
        result = fs2.run()                          # replays trace[n:]

    ``restore`` rebuilds the namespace tree from the checkpoint (callers do
    not pass one), so the trace argument must be the *full* trace the
    captured run was a prefix of.
    """

    def capture(self, fs) -> SimCheckpoint:
        env = fs.env
        if env.queue_len != 0:
            raise CheckpointError(
                f"checkpoint requires a quiescent simulation "
                f"({env.queue_len} events still on the calendar)"
            )
        if fs.config.data_dir is not None:
            # make the on-disk copy current: a mid-life capture may hold
            # unsynced WAL appends (run() already closed the stores, in
            # which case there is nothing to do)
            for s in fs.servers:
                backend = s.store.backend if s.store is not None else None
                if backend is not None and not backend.closed:
                    s.store.sync()

        cache_state: Dict[str, Any] = {
            "hits": fs.cache.hits,
            "misses": fs.cache.misses,
        }
        if hasattr(fs.cache, "invalid_until"):
            cache_state["invalid_until"] = fs.cache.invalid_until
        if hasattr(fs.cache, "_expiry"):
            cache_state["expiry"] = {str(k): v for k, v in fs.cache._expiry.items()}
            cache_state["grants"] = fs.cache.grants
            cache_state["recalls"] = fs.cache.recalls
        fault_rng: Dict[str, Any] = {}
        if fs.faults is not None:
            fault_rng = {
                "drop": fs.faults._drop_rng.generator.bit_generator.state,
                "retry": fs.faults._retry_rng.generator.bit_generator.state,
            }

        return SimCheckpoint(
            strategy=fs.policy.name,
            seed=fs.config.seed,
            n_mds=fs.config.n_mds,
            use_kvstore=fs.use_kvstore,
            durable=fs.config.data_dir is not None,
            data_dir=fs.config.data_dir,
            now_ms=env.now,
            cursor=fs.cursor,
            counters={name: getattr(fs, name) for name in _COUNTER_FIELDS},
            owners=[int(o) for o in fs.pmap.owner_array()],
            tree=_tree_state(fs.tree),
            rng_streams={
                name: stream.generator.bit_generator.state
                for name, stream in fs._ssf._cache.items()
            },
            fault_rng=fault_rng,
            latency={"samples": fs.latency.samples.tolist()},
            cache=cache_state,
            epochs=[e.to_dict() for e in fs.epochs],
        )

    def restore(self, checkpoint: SimCheckpoint, trace, policy, config=None):
        """Build a warm OrigamiFS continuing the captured run over ``trace``."""
        from repro.fs.filesystem import OrigamiFS, SimConfig

        if config is None:
            config = SimConfig(
                n_mds=checkpoint.n_mds,
                seed=checkpoint.seed,
                use_kvstore=checkpoint.use_kvstore,
                data_dir=checkpoint.data_dir,
            )
        if policy.name != checkpoint.strategy:
            raise CheckpointError(
                f"checkpoint was captured under strategy {checkpoint.strategy!r}, "
                f"cannot resume under {policy.name!r}"
            )
        if config.seed != checkpoint.seed:
            raise CheckpointError(
                f"checkpoint seed {checkpoint.seed} != config seed {config.seed}: "
                f"restored RNG streams would not mean what they meant"
            )
        if config.n_mds != checkpoint.n_mds:
            raise CheckpointError(
                f"checkpoint has {checkpoint.n_mds} MDSs, config has {config.n_mds}"
            )
        if checkpoint.durable and config.data_dir is None:
            raise CheckpointError(
                "checkpoint references durable stores; set SimConfig.data_dir "
                "to the captured data directory"
            )
        if not checkpoint.durable and config.data_dir is not None:
            raise CheckpointError(
                "checkpoint captured in-memory stores; unset SimConfig.data_dir"
            )
        if len(trace) < checkpoint.cursor:
            raise CheckpointError(
                f"trace has {len(trace)} ops but the checkpoint already "
                f"replayed {checkpoint.cursor}: pass the full original trace"
            )
        tree = _rebuild_tree(checkpoint.tree)
        return OrigamiFS(tree, trace, policy, config, restore_from=checkpoint)
