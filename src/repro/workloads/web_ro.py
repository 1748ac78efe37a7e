"""Trace-RO: a read-only web access trace (skewed, deep, drifting).

Models the Apache-access-log replay of [4, 39]: only read-type metadata
operations (stat/open/readdir), a pronounced Zipf skew over directories,
paths extending "to a considerable depth", and hotspot drift across time
segments (Lunule's motivation: temporal locality shifts).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.costmodel.optypes import OpType
from repro.namespace.builder import BuiltNamespace, build_web_tree
from repro.sim.rng import RngStream
from repro.workloads.trace import Trace
from repro.workloads.zipfian import DriftingZipf

__all__ = ["generate_trace_ro"]


def generate_trace_ro(
    rng: RngStream,
    n_ops: int = 100_000,
    n_dirs: int = 3000,
    alpha: float = 1.15,
    segments: int = 8,
    drift: float = 0.15,
    readdir_fraction: float = 0.08,
) -> Tuple[BuiltNamespace, Trace]:
    """Build the web namespace and a read-only access trace."""
    built = build_web_tree(rng, n_dirs=n_dirs)
    tree = built.tree
    # only directories that contain files can serve page requests
    page_dirs = [d for d in built.read_dirs if tree.n_child_files(d) > 0]
    sampler = DriftingZipf(rng, page_dirs, alpha=alpha, drift=drift)
    # The tree is static during generation, so the per-directory file-name
    # lists are precomputed once instead of being rebuilt per sampled op.
    files_of = {
        d: [n for n, i in tree.children(d).items() if not tree.is_dir(i)]
        for d in page_dirs
    }
    nfiles = tree.child_file_counts()
    stat_below = readdir_fraction + (1 - readdir_fraction) * 0.6

    # Each segment is drawn in bulk in the order a per-op loop would draw:
    # its directories, one roll per op, then one file pick per non-readdir
    # op (the broadcast ``integers`` call consumes the same words, in the
    # same order, as one scalar call per op).
    ops, dir_cols, names = [], [], []
    per_seg = max(1, n_ops // segments)
    for seg in range(segments):
        left = n_ops - len(names)
        want = min(per_seg, left) if seg < segments - 1 else left
        dirs = sampler.sample(want)
        rolls = rng.random(want)
        is_readdir = rolls < readdir_fraction
        picks = iter(rng.integers(0, nfiles[dirs[~is_readdir]]).tolist())
        names.extend(
            "" if rd else files_of[d][next(picks)]
            for d, rd in zip(dirs.tolist(), is_readdir.tolist())
        )
        ops.append(
            np.where(
                is_readdir,
                int(OpType.READDIR),
                np.where(rolls < stat_below, int(OpType.STAT), int(OpType.OPEN)),
            )
        )
        dir_cols.append(dirs)
        sampler.advance()
    dir_ino = np.concatenate(dir_cols)
    trace = Trace(np.concatenate(ops), dir_ino, np.full_like(dir_ino, -1), names, "Trace-RO")
    assert trace.write_fraction() == 0.0
    return built, trace
