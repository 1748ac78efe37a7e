"""``PartitionMap.lsdir_owners`` cache invalidation (hypothesis).

With colocated file placement (subtree and C-Hash) the lsdir fan-out depends
only on directory owners, so the per-directory cache keys on
``dir_version``.  A random sequence of namespace and ownership mutations must
never leave a cached answer that differs from a fresh computation, and file
creates and unlinks must not cost a recompute.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.balancers import CoarseHashPolicy
from repro.cluster import PartitionMap
from repro.namespace import ROOT_INO, NamespaceTree
from repro.sim.rng import RngStream

N_MDS = 4

OPS = ("create", "unlink", "mkdir", "rmdir", "rename_dir", "migrate", "assign_dir", "assign_bulk")


def _tree() -> NamespaceTree:
    tree = NamespaceTree()
    for path in ("/a/b/c", "/a/d", "/e/f", "/e/g/h"):
        tree.makedirs(path)
    for d in list(tree.iter_dirs()):
        for i in range(2):
            tree.create_file(d, f"f{i}")
    return tree


def _pmap(tree: NamespaceTree, placement: str) -> PartitionMap:
    if placement == "chash":
        return CoarseHashPolicy(levels=2).setup(tree, N_MDS, RngStream("test", np.random.default_rng(0)))
    pmap = PartitionMap(tree, n_mds=N_MDS)
    pmap.migrate_subtree(tree.lookup("/a"), 1)
    pmap.migrate_subtree(tree.lookup("/e/g"), 2)
    return pmap


def _fresh(pmap: PartitionMap, dirs) -> dict:
    """Every answer recomputed from a cleared cache; the warm cache is kept."""
    warm = pmap._lsdir_cache
    pmap._lsdir_cache = {}
    try:
        return {d: pmap.lsdir_owners(d) for d in dirs}
    finally:
        pmap._lsdir_cache = warm


def _apply(tree: NamespaceTree, pmap: PartitionMap, op: str, pick: int, mds: int, step: int) -> None:
    dirs = sorted(tree.iter_dirs())
    files = [i for i in range(tree.capacity) if tree.is_alive(i) and not tree.is_dir(i)]
    d = dirs[pick % len(dirs)]
    if op == "create":
        tree.create_file(d, f"n{step}")
    elif op == "unlink" and files:
        tree.remove(files[pick % len(files)])
    elif op == "mkdir":
        tree.create_dir(d, f"m{step}")
    elif op == "rmdir":
        empty = [x for x in dirs if x != ROOT_INO and not tree.children(x)]
        if empty:
            tree.remove(empty[pick % len(empty)])
    elif op == "rename_dir" and d != ROOT_INO:
        dst = dirs[(pick // 7) % len(dirs)]
        if dst not in set(tree.iter_subtree_dirs(d)):
            tree.rename(d, dst, f"r{step}")
    elif op == "migrate":
        pmap.migrate_subtree(d, mds)
    elif op == "assign_dir":
        pmap.assign_dir(d, mds)
    elif op == "assign_bulk":
        owners = np.zeros(tree.capacity, dtype=np.int64)
        for x in dirs:
            owners[x] = (x * (mds + 1) + pick) % N_MDS
        pmap.assign_bulk(owners)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    placement=st.sampled_from(["subtree", "chash"]),
    steps=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 10**6), st.integers(0, N_MDS - 1)),
        min_size=1,
        max_size=30,
    ),
)
def test_cached_lsdir_owners_match_a_fresh_computation(placement, steps):
    tree = _tree()
    pmap = _pmap(tree, placement)
    for step, (op, pick, mds) in enumerate(steps):
        # warm every live directory's entry, then mutate
        for d in tree.iter_dirs():
            pmap.lsdir_owners(d)
        before = dict(pmap._lsdir_cache)
        _apply(tree, pmap, op, pick, mds, step)
        dirs = sorted(tree.iter_dirs())
        cached = {d: pmap.lsdir_owners(d) for d in dirs}
        assert cached == _fresh(pmap, dirs), f"step {step}: {op}"
        if op in ("create", "unlink"):
            # the very same entries answer: no directory was recomputed
            assert all(pmap._lsdir_cache[d] is before[d] for d in dirs), f"step {step}: {op}"


def test_file_creates_and_unlinks_do_not_recompute():
    """The shape Trace-WI replays: a shard directory filling with files."""
    tree = _tree()
    pmap = _pmap(tree, "subtree")
    shard = tree.lookup("/a")
    expected = pmap.lsdir_owners(shard)
    entry = pmap._lsdir_cache[shard]
    version = pmap.version
    for i in range(50):
        ino = tree.create_file(shard, f"x{i}")
        assert pmap.lsdir_owners(shard) is expected
        if i % 3 == 0:
            tree.remove(ino)
            assert pmap.lsdir_owners(shard) is expected
    assert pmap.version > version  # the file fills did sync the map
    assert pmap._lsdir_cache[shard] is entry
    # a directory-ownership change does invalidate it
    pmap.migrate_subtree(tree.lookup("/a/d"), 3)
    assert pmap.lsdir_owners(shard) == expected | {3}
