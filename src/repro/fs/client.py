"""Client workers: the OrigamiFS SDK replaying the shared trace.

Each worker is a closed-loop client thread: fetch the next operation from
the shared cursor, resolve the path (consulting the near-root cache),
contact each involved MDS in path order, apply the namespace mutation, then
immediately fetch the next operation.  Fifty workers against five MDSs is
the saturation setup of §5.2; one worker gives the single-thread latency
measurement of Fig. 5b.

The per-owner service times are the exact DES realisation of Eq. (2): each
contacted MDS reads its share of the path's inodes plus one fake inode, the
primary additionally pays ``T_exec`` and the op-specific extra.  With an
uncontended server the client-observed latency reproduces the analytic RCT
to float precision (asserted in tests/test_fs_parity.py).

Every client runs one loop, :meth:`ClientWorker.run`.  An op's RPC schedule
is compiled once per ``(pmap.dir_version, tree.version)`` window into
``(server, svc_base, is_primary)`` steps, cached on the filesystem and
shared by every client.  Everything a run may add on top — the fault gate
and retries, span accounting, elastic warm-up, durability drains, kvstore
calls, lease recalls, the data path, think time — is a per-run
hook that the loop reads once when the client starts.  A run with none of
them pays one local test per hook and holds each MDS inline, in the loop's
own frame.

When tracing is enabled each operation carries a
:class:`~repro.obs.tracing.Span` decomposing its latency into queue wait,
MDS service, and network time; recording is passive (no RNG draws, no
events), so traced runs replay bit-identically to untraced ones.

When a fault schedule is installed the client grows the robustness layer of
a real SDK: every RPC passes the injector's gate (timeouts, drops, refused
connections), a failed attempt is retried with bounded exponential backoff
and seeded jitter, and each retry re-plans the op from the *current*
partition map — so when the balancer evacuates a crashed MDS's subtrees the
client fails over to the new owner.  An op that exhausts its retry budget
surfaces a typed failure (``span.fault``); it is never silently lost.  With
no faults installed the fault path costs one ``None`` check per RPC and the
replay is bit-identical to pre-fault builds (tests/test_golden_baseline.py).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Generator, Tuple

from repro.costmodel.optypes import (
    CATEGORY_LSDIR,
    CATEGORY_NSMUT,
    CATEGORY_TUPLE,
    OpType,
)
from repro.fs.cache import NearRootCache
from repro.fs.faults.errors import FaultError
from repro.namespace.tree import _DIR
from repro.sim.engine import Timeout

__all__ = ["ClientWorker"]

# plain-int op tags: IntEnum→int conversion is measurable per-op
_MKDIR = int(OpType.MKDIR)
_RMDIR = int(OpType.RMDIR)
_RENAME = int(OpType.RENAME)
_CREATE = int(OpType.CREATE)
_UNLINK = int(OpType.UNLINK)


class ClientWorker:
    """One closed-loop client thread."""

    def __init__(self, fs, worker_id: int):
        self.fs = fs
        self.worker_id = worker_id

    # ------------------------------------------------------------- planning
    def _compile(self, dir_ino: int, is_lsdir: bool) -> Tuple:
        """Walk the path once and compile the op's RPC schedule.

        Returns ``(steps, pserver, primary, n_hits, n_misses)``: one
        ``(server, svc_base, is_primary)`` step per contacted MDS in path
        order, covering the uncached path components plus the target entry,
        with ``svc_base = T_inode * (reads + 1) + T_rpc`` pre-folded (the
        primary adds ``T_exec`` at run time).  The walk counts the cache
        hits/misses it sees; a reused schedule replays the same deltas.

        Against a steady-state near-root cache a schedule is a pure function
        of ``(dir_ino, lsdir?)``: coverage is structural (depth threshold),
        ``grant()`` is a no-op, and ownership/structure churn is captured by
        ``(pmap.dir_version, tree.version)``.  Lease caches (grants and TTLs
        are stateful) and crash-voided windows (coverage is time-dependent)
        compile a schedule per use instead.
        """
        fs = self.fs
        tree = fs.tree
        cache = fs.cache
        now = fs.env._now
        owner_arr = fs.pmap.owner_array()
        primary = int(owner_arr[dir_ino])
        # reads per contacted MDS; dict order is first-contact (path) order
        reads: Dict[int, int] = {}
        n_hits = 0
        n_misses = 0
        # non-root chain dirs, root-first
        for d in tree.resolve(dir_ino)[1:]:
            if cache.covers(d, now):
                n_hits += 1
                continue
            n_misses += 1
            cache.grant(d, now)  # fetched below; lease caches remember it
            o = int(owner_arr[d])
            reads[o] = reads.get(o, 0) + 1
        if not is_lsdir and not fs.cache_covers_depth(tree.depth(dir_ino) + 1):
            # the target entry itself (depth = dir depth + 1)
            reads[primary] = reads.get(primary, 0) + 1
        reads.setdefault(primary, 0)
        servers = fs.servers
        t_inode = fs.params.t_inode
        t_rpc = fs.params.t_rpc
        steps = tuple(
            # +1 fake/anchor inode read, plus the RPC handling cost itself
            (servers[o], t_inode * (n + 1) + t_rpc, o == primary)
            for o, n in reads.items()
        )
        return steps, servers[primary], primary, n_hits, n_misses

    def _lsdir_steps(self, dir_ino: int) -> Generator:
        """The lsdir fan-out: one ``T_rpc`` step per other MDS holding a
        child.  Not part of the compiled schedule — file creates change it
        without moving either stamp component — and lazy, so the owners are
        read after the schedule's last hold, when the client gets there."""
        fs = self.fs
        servers = fs.servers
        t_rpc = fs.params.t_rpc
        for o in sorted(fs.pmap.lsdir_owners(dir_ino)):
            yield servers[o], t_rpc, False

    # ------------------------------------------------------------ execution
    def _count_vanished(self, span) -> None:
        """The target directory died under a concurrent mutation: the op is
        counted as a cheap failed lookup."""
        fs = self.fs
        fs.failed_ops += 1
        fs.vanished_ops += 1
        if span is not None:
            span.failed = True
            span.fault = "vanished"

    def _apply_mutation(self, op: int, dir_ino: int, name: str, aux: int, span=None) -> None:
        """Materialise the namespace mutation (best effort under races)."""
        fs = self.fs
        tree = fs.tree
        try:
            if op == _CREATE:
                tree.create_file(dir_ino, name)
                if fs.use_kvstore:
                    fs.servers[fs.pmap.owner(dir_ino)].kv_put(
                        b"%020d/%s" % (dir_ino, name.encode()), b"inode", span
                    )
            elif op == _UNLINK:
                kids = tree.children(dir_ino)
                ino = kids.get(name)
                if ino is not None and not tree.is_dir(ino):
                    tree.remove(ino)
                    if fs.use_kvstore:
                        fs.servers[fs.pmap.owner(dir_ino)].kv_delete(
                            b"%020d/%s" % (dir_ino, name.encode()), span
                        )
            elif op == _MKDIR:
                tree.create_dir(dir_ino, name)
            elif op == _RMDIR:
                if aux >= 0 and tree.is_alive(aux) and tree.is_dir(aux):
                    if not tree.children(aux):
                        tree.remove(aux)
            # RENAME: cost-only (the traces rename entries in place)
        except (FileExistsError, OSError, KeyError, NotADirectoryError, ValueError):
            # concurrent replay can race mutations; semantics stay best-effort
            fs.failed_ops += 1

    # ----------------------------------------------------------------- loop
    def run(self) -> Generator:
        """Closed-loop replay until the shared trace is exhausted.

        One generator frame per client: every engine resume re-enters this
        frame.  Runs with faults, a tracer or an elastic pool hold each MDS
        through :meth:`~repro.fs.server.MdsServer.service` (crash aborts,
        slowdown and warm-up factors, the span's queue/service split); all
        other runs hold it inline — the same events, one frame fewer.  The
        rarer holds (coordination, lease recall, WAL drain) always go
        through ``service``.

        Every issued op is accounted exactly once: it completes
        (``fs.ops_completed``), vanishes under a concurrent mutation
        (``fs.vanished_ops``), or fails typed after exhausting its fault
        retries (``fs.fault_failed_ops``) — the zero-lost-ops invariant the
        property suite asserts.  Totals nothing reads mid-run
        (``fs.total_rpcs``, ``fs.ops_completed``, ``fs.last_completion_ms``)
        accumulate locally and flush when this client drains — the run
        always waits for every client — and per-directory access counts go
        to the :class:`~repro.namespace.stats.AccessStats` buffers, which
        every reader flushes first.
        """
        fs = self.fs
        env = fs.env
        tree = fs.tree
        pmap = fs.pmap
        cache = fs.cache
        servers = fs.servers
        params = fs.params
        t_coor = params.t_coor
        t_exec_table = params.t_exec_table
        categories = CATEGORY_TUPLE
        # pre-listified trace columns: plain-int reads, no numpy scalar boxing
        ops = fs._ops
        dir_inos = fs._dir_inos
        auxs = fs._aux
        names = fs._op_names
        n_ops = len(ops)
        plans = fs._plan_cache
        stats = fs.stats
        buf_read = stats._buf_reads.append
        buf_write = stats._buf_writes.append
        buf_lsdir = stats._buf_lsdirs.append
        # the run's one per-op measurement: SimResult percentiles, the
        # registry's client_* families and the timeline's window latencies
        # are all derived from this log
        latency_record = fs.latency.samples.append
        # with the default colocated/subtree placements the split partner of
        # file ops (and mkdir) is the primary itself
        colocated_files = pmap.file_placement is None
        subtree_dirs = pmap.placement is None

        # ---- per-run hooks: None/False when the run does not use them ----
        thinks = fs._think  # offered-load shaping (think-time column)
        inj = fs.faults
        tracer = fs.obs.tracer if fs.obs.tracer.enabled else None
        hold_via_service = inj is not None or tracer is not None or fs.elastic is not None
        leases = None if cache.__class__ is NearRootCache else cache
        rtt = params.rtt
        use_kvstore = fs.use_kvstore
        durable = fs.durability is not None
        datapath = fs.datapath
        data_ops = fs.DATA_OPS

        TO = Timeout
        my_rpcs = 0
        my_ops = 0
        last_now = 0.0
        span = None
        while True:
            i = fs.cursor
            if i >= n_ops:
                fs.replay_done = True
                break
            fs.cursor = i + 1
            op = ops[i]
            dir_ino = dir_inos[i]
            if thinks is not None:
                # the client idles before issuing, so think time is *not*
                # part of the op's measured latency
                t = thinks[i]
                if t > 0.0:
                    yield TO(env, t)
            if tracer is not None:
                span = tracer.start(
                    i,
                    op,
                    self.worker_id,
                    dir_ino,
                    tree.depth(dir_ino) if tree.is_alive(dir_ino) else -1,
                    env._now,
                )
            # arrays re-fetched per op because growth reallocates them
            # (slack beyond the live extent is zeroed = dead file)
            if not (tree._alive[dir_ino] and tree._ftype[dir_ino] == _DIR):
                self._count_vanished(span)
                latency = 0.0
            else:
                start = env._now
                cat = categories[op]
                is_lsdir = cat == CATEGORY_LSDIR
                key = (dir_ino << 1) | is_lsdir
                t_exec = t_exec_table[op]
                aux = auxs[i]
                name = names[i] if names is not None else ""
                attempt = 1
                while True:
                    if inj is not None:
                        attempt_primary = int(pmap.owner_array()[dir_ino])
                    try:
                        if leases is None and env._now >= cache.invalid_until:
                            dv = pmap.dir_version
                            tv = tree.version
                            if dv != fs._plan_dv or tv != fs._plan_tv:
                                plans.clear()
                                fs._plan_dv = dv
                                fs._plan_tv = tv
                                entry = None
                            else:
                                entry = plans.get(key)
                            if entry is None:
                                entry = plans[key] = self._compile(dir_ino, is_lsdir)
                            else:
                                cache.hits += entry[3]
                                cache.misses += entry[4]
                        else:
                            entry = self._compile(dir_ino, is_lsdir)
                        steps, pserver, primary, n_hits, n_misses = entry
                        if span is not None:
                            span.cache_hits += n_hits
                            span.cache_misses += n_misses
                            span.primary = primary
                        pserver.total_requests += 1
                        if is_lsdir:
                            steps = chain(steps, self._lsdir_steps(dir_ino))
                        for server, svc_base, is_primary in steps:
                            if inj is not None:
                                yield from inj.rpc_gate(server.mds_id, span)
                            server.total_rpcs += 1
                            my_rpcs += 1
                            # network round trip to this MDS
                            if span is not None:
                                span.net_ms += rtt
                                span.rpcs += 1
                                span.mds_visited.append(server.mds_id)
                            yield TO(env, rtt)
                            svc = svc_base + t_exec if is_primary else svc_base
                            if hold_via_service:
                                yield from server.service(svc, span)
                                continue
                            res = server.resource
                            req = res.request()
                            try:  # try/finally, not `with`: no __enter__/__exit__
                                yield req
                                if svc > 0:
                                    yield TO(env, svc)
                                server.epoch_busy_ms += svc
                                server.total_busy_ms += svc
                            finally:
                                res.release(req)

                        # ---- op-specific extras ----
                        if is_lsdir:
                            buf_lsdir(dir_ino)
                        elif cat == CATEGORY_NSMUT:
                            if leases is not None:
                                # mutating a leased directory recalls the lease
                                recall = leases.recall_if_leased(dir_ino, env._now)
                                if recall > 0:
                                    if span is not None:
                                        span.migration_recalls += 1
                                    yield from pserver.service(recall, span)
                            # the other MDS of a split mutation (Eq. 2 ns-m)
                            if op == _CREATE or op == _UNLINK or (op == _RENAME and aux < 0):
                                o = primary if colocated_files else pmap.file_owner(dir_ino, name)
                            elif op == _MKDIR:
                                o = primary if subtree_dirs else pmap.new_dir_owner(dir_ino, name)
                            elif aux >= 0 and tree.is_alive(aux):  # RMDIR / dir RENAME
                                o = int(pmap.owner_array()[aux])
                            else:
                                o = -1
                            if o >= 0 and o != primary:
                                servers[o].total_rpcs += 1
                                my_rpcs += 1
                                if span is not None:
                                    span.rpcs += 1
                                # the coordination RTT is already inside T_coor
                                yield from pserver.service(t_coor, span)
                            self._apply_mutation(op, dir_ino, name, aux, span)
                            if durable:
                                # the mutation's WAL append (and any group
                                # commit it forced) is served by the primary
                                dcost = pserver.take_durability_cost()
                                if dcost > 0:
                                    if span is not None:
                                        span.wal_ms += dcost
                                    yield from pserver.service(dcost, span)
                            buf_write(dir_ino)
                        else:
                            if use_kvstore:
                                pserver.kv_get(b"%020d/%s" % (dir_ino, name.encode()), span)
                            buf_read(dir_ino)
                    except FaultError as exc:
                        fault = exc
                    else:
                        if attempt > 1:
                            inj.ops_recovered += 1
                        my_ops += 1
                        break
                    # ---- retry with backoff, failover on re-plan ----
                    if attempt >= inj.retry.max_attempts:
                        inj.count_op_failed(fault)
                        fs.failed_ops += 1
                        fs.fault_failed_ops += 1
                        if span is not None:
                            span.failed = True
                            span.fault = fault.reason
                        break
                    inj.retries += 1
                    wait = inj.backoff_ms(attempt)
                    if span is not None:
                        span.retries += 1
                        span.fault_wait_ms += wait
                    yield env.timeout(wait)
                    attempt += 1
                    # the backoff may span epoch boundaries: the balancer can
                    # have evacuated the failed MDS's subtrees meanwhile, and
                    # a concurrent mutation can have removed the directory
                    if not (tree.is_alive(dir_ino) and tree.is_dir(dir_ino)):
                        self._count_vanished(span)
                        break
                    if int(pmap.owner_array()[dir_ino]) != attempt_primary:
                        inj.failovers += 1
                        if span is not None:
                            span.failovers += 1
                last_now = now = env._now
                latency = now - start
            if span is not None:
                tracer.finish(span, env._now)
            latency_record(latency)
            if datapath is not None and op in data_ops:
                yield from datapath.transfer(fs, dir_ino)

        fs.total_rpcs += my_rpcs
        fs.ops_completed += my_ops
        if last_now > fs.last_completion_ms:
            fs.last_completion_ms = last_now
