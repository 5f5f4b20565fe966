"""The Single Point Shortest Path application (Section 2.5).

The parallel algorithm is the paper's: vertices are evenly distributed
among the nodes, there is one work queue per node, distance labels are
relaxed with ``min-xchng``, and a processor whose queue runs dry extracts
work from other queues.  Replication of the vertex-data and queue pages
is the experimental variable: Table 2-1 sweeps the number of copies on a
16-processor machine, and the efficiency figure compares replicated
against unreplicated runs across machine sizes.

Memory layout (all page granular):

* per owner node: an adjacency segment (index + flattened edge list),
  homed on the owner and replicated ``copies - 1`` times;
* per owner node: a distance segment (one word per owned vertex), same
  replication;
* one hardware work queue per node, same replication;
* one private scratch page per node (never replicated) that the worker
  logs per-iteration state into — the ordinary local write traffic any
  real program has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.params import OpCode
from repro.errors import ConfigError
from repro.machine import PlusMachine
from repro.runtime.collections import WorkPool
from repro.runtime.requests import AwaitResult, Compute, Issue, Read, Write
from repro.runtime.shm import Segment
from repro.apps.graphs import Graph
from repro.stats.report import RunReport

INF = 0xFFFF_FFFF

# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_MIN_XCHNG = OpCode.MIN_XCHNG


@dataclass
class SSSPConfig:
    """Tunables of one shortest-path run."""

    source: int = 0
    #: Number of copies of every vertex-data and queue page (1 = the
    #: unreplicated baseline; Table 2-1 sweeps 1..5).
    copies: int = 1
    #: ``blocking`` issues each interlocked operation and waits for its
    #: result; ``delayed`` applies the Section 3.1/3.3 pipelining — an
    #: eager dequeue always in flight, remote reads streamed through
    #: delayed-reads, and batched ``min-xchng`` issue/verify.  The gain
    #: is modest here (shortest path is load-balance-bound, not
    #: latency-bound — which is why the paper demonstrates delayed
    #: operations on beam search instead); it grows with the fraction of
    #: remote traffic.
    sync_mode: str = "blocking"
    #: Steal from other queues when the local one is empty.
    steal: bool = True
    #: Use one machine-wide queue instead of one per node.  The paper
    #: rejects this because of "queue bandwidth limitation" at a single
    #: coherence manager; it exists here as the ablation baseline.
    central_queue: bool = False
    #: Queues other nodes probed per steal attempt (a full sweep of a
    #: large machine would flood the queue masters with empty dequeues).
    steal_probes: int = 4
    #: Replicate the queue pages too.  Off by default: every queue access
    #: is an interlocked operation served by the master, so extra copies
    #: only add update traffic — the Section 2.5 flooding ablation
    #: switches this on.
    replicate_queues: bool = False
    #: Modelled instruction time per relaxed edge.
    edge_compute_cycles: int = 20
    #: Modelled per-iteration bookkeeping instructions.
    loop_compute_cycles: int = 30
    idle_backoff_cycles: int = 80
    #: Exponential idle backoff cap (keeps starving workers from
    #: hammering remote queues with empty dequeues).
    idle_backoff_max_cycles: int = 2000


@dataclass
class SSSPResult:
    """Distances plus the machine measurements of the run."""

    distances: List[int]
    report: RunReport
    cycles: int
    relaxations: int


class SSSPApp:
    """Builds the memory image and spawns the workers for one run."""

    def __init__(
        self,
        machine: PlusMachine,
        graph: Graph,
        config: Optional[SSSPConfig] = None,
    ) -> None:
        self.machine = machine
        self.graph = graph
        self.config = config or SSSPConfig()
        if not 1 <= self.config.copies <= machine.n_nodes:
            raise ConfigError(
                f"copies={self.config.copies} must be within "
                f"1..{machine.n_nodes}"
            )
        if self.config.sync_mode not in ("blocking", "delayed"):
            raise ConfigError(
                f"unknown sync_mode {self.config.sync_mode!r}"
            )
        self._relaxations = 0
        self._build()

    # ------------------------------------------------------------------
    # Memory image.
    # ------------------------------------------------------------------
    def owner_of(self, vertex: int) -> int:
        """Vertices are distributed contiguously (spatial locality)."""
        return vertex * self.machine.n_nodes // self.graph.n_vertices

    def _replica_nodes(self, home: int) -> List[int]:
        """The ``copies - 1`` nodes nearest to ``home`` get the copies."""
        mesh = self.machine.mesh
        others = sorted(
            (n for n in range(self.machine.n_nodes) if n != home),
            key=lambda n: (mesh.hops(home, n), n),
        )
        return others[: self.config.copies - 1]

    def _build(self) -> None:
        machine = self.machine
        graph = self.graph
        n_nodes = machine.n_nodes

        owned: List[List[int]] = [[] for _ in range(n_nodes)]
        for v in range(graph.n_vertices):
            owned[self.owner_of(v)].append(v)

        # Distance segment: one word per vertex, partitioned by owner so
        # a vertex's distance is mastered on its owner.
        self._dist_segs: List[Segment] = []
        self._dist_va: Dict[int, int] = {}
        # Adjacency segment per owner: [deg, n0, w0, n1, w1, ...] per
        # vertex, with per-vertex base addresses recorded host-side (the
        # real program would compute them from an index table).
        self._adj_va: Dict[int, int] = {}
        for node in range(n_nodes):
            replicas = self._replica_nodes(node)
            if owned[node]:
                dist_seg = machine.shm.alloc(
                    len(owned[node]), home=node, replicas=replicas,
                    name=f"dist{node}",
                )
                self._dist_segs.append(dist_seg)
                for i, v in enumerate(owned[node]):
                    self._dist_va[v] = dist_seg.addr(i)
                machine.shm.load(dist_seg, [INF] * len(owned[node]))
                flat: List[int] = []
                bases: List[int] = []
                for v in owned[node]:
                    bases.append(len(flat))
                    edges = graph.neighbors(v)
                    flat.append(len(edges))
                    for u, w in edges:
                        if w > 0xFFF:
                            raise ConfigError(
                                f"edge weight {w} exceeds the 12-bit "
                                "packed-edge format"
                            )
                        # One word per edge: neighbor in the high bits,
                        # weight in the low 12.
                        flat.append((u << 12) | w)
                adj_seg = machine.shm.alloc(
                    max(1, len(flat)), home=node, replicas=replicas,
                    name=f"adj{node}",
                )
                machine.shm.load(adj_seg, flat)
                for v, base in zip(owned[node], bases):
                    self._adj_va[v] = adj_seg.addr(base)

        if self.config.central_queue:
            queue_homes = [0]
        else:
            queue_homes = list(range(n_nodes))
        if self.config.replicate_queues:
            queue_replicas = [self._replica_nodes(h) for h in queue_homes]
        else:
            queue_replicas = None
        self.pool = WorkPool(
            machine,
            n_queues=len(queue_homes),
            queue_homes=queue_homes,
            queue_replicas=queue_replicas,
            flag_replicas=list(range(n_nodes)),
        )
        # Private scratch page per node (ordinary local write traffic).
        self._scratch = [
            machine.shm.alloc(16, home=n, name=f"scratch{n}")
            for n in range(n_nodes)
        ]

        # For the delayed worker: which owners' vertex pages does each
        # node hold a copy of (its own plus any replicas placed on it)?
        self._holds: List[set] = [set() for _ in range(n_nodes)]
        for owner in range(n_nodes):
            self._holds[owner].add(owner)
            for replica in self._replica_nodes(owner):
                self._holds[replica].add(owner)

        src = self.config.source
        machine.poke(self._dist_va[src], 0)
        self.pool.preload(machine, self._queue_of(self.owner_of(src)), [src])

    # ------------------------------------------------------------------
    # The worker program.
    # ------------------------------------------------------------------
    def _pop(self, ctx, node: int, steal_ptr: List[int]):
        """Local queue first, then probe a bounded window of others."""
        cfg = self.config
        item = yield from self.pool.try_pop(ctx, node)
        if item is not None or not cfg.steal:
            return item
        n = self.pool.n_queues
        for _ in range(min(cfg.steal_probes, n - 1)):
            steal_ptr[0] = (steal_ptr[0] + 1) % n
            if steal_ptr[0] == node:
                steal_ptr[0] = (steal_ptr[0] + 1) % n
            item = yield from self.pool.try_pop(ctx, steal_ptr[0])
            if item is not None:
                return item
        return None

    def _queue_of(self, node: int) -> int:
        """The queue a node drains (queue 0 when centralised)."""
        return 0 if self.config.central_queue else node

    def _worker(self, ctx, node: int):
        # This generator is the simulator's hottest application code, so
        # it yields request objects directly (no ThreadCtx subgenerator
        # per operation) and reuses prebuilt instances where the request
        # repeats: the yielded request *sequence* — and therefore every
        # simulated cycle — is identical to the ThreadCtx-sugar version.
        cfg = self.config
        pool = self.pool
        scratch = self._scratch[node]
        scratch_va = [scratch.addr(i) for i in range(16)]
        steal_ptr = [self._queue_of(node)]
        backoff = cfg.idle_backoff_cycles
        iteration = 0
        dist_va = self._dist_va
        dist_rd = {v: Read(va) for v, va in dist_va.items()}
        loop_compute = Compute(cfg.loop_compute_cycles)
        edge_compute = Compute(cfg.edge_compute_cycles)
        min_xchng = _MIN_XCHNG
        while True:
            vertex = yield from self._pop(ctx, self._queue_of(node), steal_ptr)
            if vertex is None:
                done = yield from pool.finished(ctx)
                if done:
                    return
                yield from ctx.yield_cpu()
                yield Compute(backoff, useful=False)
                backoff = min(backoff * 2, cfg.idle_backoff_max_cycles)
                continue
            backoff = cfg.idle_backoff_cycles
            iteration += 1
            self._relaxations += 1
            # Ordinary bookkeeping: local scratch writes + loop overhead.
            yield Write(scratch_va[iteration % 8], vertex)
            yield Write(scratch_va[8 + iteration % 8], iteration)
            yield loop_compute

            dv = yield dist_rd[vertex]
            adj = self._adj_va[vertex]
            degree = yield Read(adj)
            pushes: List[int] = []
            for e in range(degree):
                packed = yield Read(adj + 1 + e)
                u, w = packed >> 12, packed & 0xFFF
                yield edge_compute
                candidate = dv + w
                # Cheap pre-check of the neighbour's label: a plain read
                # (local when the distance page is replicated here) that
                # skips the expensive interlocked update when hopeless.
                # Safe because distance labels decrease monotonically, so
                # a possibly-stale replica only ever over-estimates.
                current = yield dist_rd[u]
                if candidate >= current:
                    continue
                token = yield Issue(min_xchng, dist_va[u], candidate)
                old = yield AwaitResult(token)
                if candidate < old:
                    pushes.append(u)
            # One counter update covers the k pushes and this retirement.
            yield from pool.adjust(ctx, len(pushes) - 1)
            for u in pushes:
                yield from pool.push_raw(ctx, self._queue_of(self.owner_of(u)), u)

    # ------------------------------------------------------------------
    # Delayed-operations worker: the Section 3.1/3.3 pipelining applied
    # to the shortest-path inner loop.
    # ------------------------------------------------------------------
    def _worker_delayed(self, ctx, node: int):
        from repro.runtime.prefetch import EagerDequeuer, ReadPipeline

        cfg = self.config
        pool = self.pool
        scratch = self._scratch[node]
        steal_ptr = [self._queue_of(node)]
        backoff = cfg.idle_backoff_cycles
        eager = EagerDequeuer(pool.queues[self._queue_of(node)])
        pipeline = ReadPipeline(depth=4)
        iteration = 0
        while True:
            vertex = yield from eager.next(ctx)
            if vertex is None and cfg.steal:
                vertex = yield from self._pop_steal_only(
                    ctx, self._queue_of(node), steal_ptr
                )
            if vertex is None:
                done = yield from pool.finished(ctx)
                if done:
                    leftover = yield from eager.drain(ctx)
                    if leftover is not None:
                        # Rare: the pipelined dequeue raced the shutdown
                        # check and popped real work; process it.
                        yield from self._relax(
                            ctx, node, leftover, pipeline, scratch, 0
                        )
                    return
                yield from ctx.yield_cpu()
                yield from ctx.spin(backoff)
                backoff = min(backoff * 2, cfg.idle_backoff_max_cycles)
                continue
            backoff = cfg.idle_backoff_cycles
            iteration += 1
            yield from self._relax(
                ctx, node, vertex, pipeline, scratch, iteration
            )

    def _pop_steal_only(self, ctx, qi: int, steal_ptr: List[int]):
        """The bounded steal sweep, without touching the local queue."""
        cfg = self.config
        n = self.pool.n_queues
        for _ in range(min(cfg.steal_probes, n - 1)):
            steal_ptr[0] = (steal_ptr[0] + 1) % n
            if steal_ptr[0] == qi:
                steal_ptr[0] = (steal_ptr[0] + 1) % n
            item = yield from self.pool.try_pop(ctx, steal_ptr[0])
            if item is not None:
                return item
        return None

    def _local_to(self, node: int, vertex: int) -> bool:
        """Does ``node`` hold a copy of ``vertex``'s data pages?"""
        return self.owner_of(vertex) in self._holds[node]

    def _relax(self, ctx, node, vertex, pipeline, scratch, iteration):
        """One pipelined relaxation.

        Only *remote* reads go through the delayed-read pipeline — a
        delayed operation costs ~74 cycles even for a local word, far
        more than a cache hit, so the handcrafted code the paper asks
        for (Section 3.2) pipelines exactly the reads that leave the
        node.
        """
        cfg = self.config
        pool = self.pool
        self._relaxations += 1
        yield from ctx.write(scratch.addr(iteration % 8), vertex)
        yield from ctx.write(scratch.addr(8 + iteration % 8), iteration)
        yield from ctx.compute(cfg.loop_compute_cycles)

        dv = yield from ctx.read(self._dist_va[vertex])
        adj = self._adj_va[vertex]
        degree = yield from ctx.read(adj)
        adj_addrs = [adj + 1 + e for e in range(degree)]
        if self._local_to(node, vertex):
            packed = []
            for addr in adj_addrs:
                packed.append((yield from ctx.read(addr)))
        else:
            packed = yield from pipeline.gather(ctx, adj_addrs)
        edges = [(word >> 12, word & 0xFFF) for word in packed]
        # Pre-check reads: plain local reads where a copy is held,
        # pipelined delayed-reads for the rest.
        currents = {}
        remote = [u for u, _w in edges if not self._local_to(node, u)]
        remote_values = yield from pipeline.gather(
            ctx, [self._dist_va[u] for u in remote]
        )
        currents.update(zip(remote, remote_values))
        for u, _w in edges:
            if u not in currents:
                currents[u] = yield from ctx.read(self._dist_va[u])
        candidates = []
        for u, w in edges:
            yield from ctx.compute(cfg.edge_compute_cycles)
            if dv + w < currents[u]:
                candidates.append((u, dv + w))
        # Batched interlocked relaxations: issue all, verify all.
        tokens = []
        for u, candidate in candidates:
            token = yield from ctx.issue_min_xchng(
                self._dist_va[u], candidate
            )
            tokens.append(token)
        pushes: List[int] = []
        for (u, candidate), token in zip(candidates, tokens):
            old = yield from ctx.result(token)
            if candidate < old:
                pushes.append(u)
        yield from pool.adjust(ctx, len(pushes) - 1)
        for u in pushes:
            yield from pool.push_raw(ctx, self._queue_of(self.owner_of(u)), u)

    # ------------------------------------------------------------------
    def spawn_workers(self) -> None:
        worker = (
            self._worker_delayed
            if self.config.sync_mode == "delayed"
            else self._worker
        )
        for node in range(self.machine.n_nodes):
            self.machine.spawn(node, worker, node, name=f"sssp{node}")

    def distances(self) -> List[int]:
        return [
            self.machine.peek(self._dist_va[v])
            for v in range(self.graph.n_vertices)
        ]


def run_sssp(
    n_nodes: int,
    graph: Graph,
    config: Optional[SSSPConfig] = None,
    width: int = 0,
    height: int = 0,
    max_cycles: Optional[int] = None,
) -> SSSPResult:
    """Build a machine, run the shortest-path program, return results."""
    machine = PlusMachine(n_nodes=n_nodes, width=width, height=height)
    app = SSSPApp(machine, graph, config)
    app.spawn_workers()
    report = machine.run(max_cycles=max_cycles)
    return SSSPResult(
        distances=app.distances(),
        report=report,
        cycles=report.cycles,
        relaxations=app._relaxations,
    )
