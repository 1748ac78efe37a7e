"""Byte-level pins on the Trace-RO generator.

Each cell builds one Trace-RO workload from a fresh named stream and reduces
everything the build produces to one SHA-256:

* the namespace tree's per-ino columns up to ``_n`` and its name table;
* every directory's children in insertion order;
* the trace columns (bytes and dtypes), ``names``, ``label`` and
  ``think_ms``;
* the stream's final ``bit_generator.state``, so a rewrite that draws the
  same numbers but leaves the generator elsewhere still fails.

The first cell is the benchmark's ``chash-ro`` shape (200 000 ops over
12 000 directories); the other two are the shapes of the ``healthy_ro``
hot-path golden cells.  The constants were captured before the generator
moved to bulk draws and, like the goldens, are never re-captured to make a
change pass.  ``python tests/test_workload_pin.py`` prints fresh digests.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.sim.rng import SeedSequenceFactory
from repro.workloads import generate_trace_ro

#: (seed, n_ops, n_dirs) -> SHA-256 of the build
PINS = {
    (1, 200_000, 12_000): "fb1fe25d10d2251872f4ef306e5b52045cc1ceb62310118e8855979741208912",
    (0, 2_500, 3_000): "fe973c86aa6e06f93cb314fed0cebced450485c804bb9215ec36adfab50f696d",
    (1, 2_500, 3_000): "0cdab63ff427cc74f6e4d19aecc6f05a5729dc139c3171bda285bf859a96ed1d",
}

_TREE_COLUMNS = (
    "_parent",
    "_ftype",
    "_depth",
    "_alive",
    "_size",
    "_n_child_files",
    "_n_child_dirs",
)


def _feed_array(h, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def _feed_json(h, obj) -> None:
    h.update(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())
    h.update(b"\0")


def build_digest(seed: int, n_ops: int, n_dirs: int) -> str:
    rng = SeedSequenceFactory(seed).stream("workload-ro")
    built, trace = generate_trace_ro(rng, n_ops=n_ops, n_dirs=n_dirs)
    tree = built.tree
    h = hashlib.sha256()
    n = tree._n
    _feed_json(h, n)
    for col in _TREE_COLUMNS:
        _feed_array(h, getattr(tree, col)[:n])
    _feed_json(h, tree._name[:n])
    _feed_json(
        h, [None if c is None else list(c.items()) for c in tree._children[:n]]
    )
    for col in (trace.op, trace.dir_ino, trace.aux):
        _feed_array(h, col)
    _feed_json(h, trace.names)
    _feed_json(h, trace.label)
    if trace.think_ms is None:
        _feed_json(h, None)
    else:
        _feed_array(h, trace.think_ms)
    _feed_json(h, rng.generator.bit_generator.state)
    return h.hexdigest()


@pytest.mark.parametrize("shape", sorted(PINS), ids=lambda s: "seed%d_ops%d_dirs%d" % s)
def test_trace_ro_build_is_pinned(shape):
    assert build_digest(*shape) == PINS[shape]


if __name__ == "__main__":
    for shape in sorted(PINS):
        print(shape, build_digest(*shape))
