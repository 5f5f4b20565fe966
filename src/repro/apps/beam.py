"""The beam-search application (Section 3.4, Figure 3-1).

A frame-synchronous Viterbi beam search over a layered HMM-style lattice,
decomposed exactly as the paper describes: per-node work queues (a
central queue would serialise at one coherence manager), queue sharing /
stealing against the data-dependent load imbalance, and an inner loop of
roughly 70 RISC instructions and ~10 memory references that dequeues a
vertex, locks each successor, updates its score and queues newly
activated vertices.

The score word of a state is its own lock — ``fetch-and-set`` locks it
(top bit) and returns the old 31-bit score; writing the new score clears
the bit.  This is what the 30/31-bit value conventions of Table 3-1 are
for, and it removes any need for fences in the inner loop.

Layers are processed in phases separated by a barrier, with per-layer
outstanding-work counters; each activated state is processed exactly
once, so every synchronization style does the same amount of work and
produces results identical to the sequential reference — the Figure 3-1
comparison is purely about how well each style hides latency:

* ``blocking`` — every interlocked operation waits for its result.
* ``delayed`` — the paper's explicit software pipelining: the dequeue of
  the next vertex overlaps processing of the current one, successor
  locks are acquired one step ahead (ascending order: deadlock-free),
  and activation enqueues are issued as a batch and verified together.
* ``context`` — blocking code, several thread contexts per processor,
  and a context-switch cost charged on every switch (16 / 40 / 140
  cycles in the paper's comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.params import PAPER_PARAMS, TOP_BIT, OpCode, TimingParams
from repro.errors import ConfigError
from repro.machine import PlusMachine
from repro.runtime.requests import AwaitResult, Compute, Issue, Read, Write, Yield
from repro.runtime.shm import QueueHandle
from repro.runtime.sync import TreeBarrier
from repro.apps.graphs import Lattice, initial_costs
from repro.stats.report import RunReport

INF = 0x7FFF_FFFF  # scores are 31-bit; the top bit of a score word is its lock

SYNC_MODES = ("blocking", "delayed", "context")

# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_FETCH_ADD = OpCode.FETCH_ADD
_FETCH_SET = OpCode.FETCH_SET
_MIN_XCHNG = OpCode.MIN_XCHNG
_QUEUE = OpCode.QUEUE
_DEQUEUE = OpCode.DEQUEUE


@dataclass
class BeamConfig:
    """Tunables of one beam-search run."""

    sync_mode: str = "blocking"
    #: Thread contexts per processor (context mode wants several).
    threads_per_node: int = 1
    #: Context-switch cost in cycles (context mode: 16 / 40 / 140).
    context_switch_cycles: int = 0
    beam: int = 60
    #: Seed for the initial layer-0 hypothesis costs.  Every layer-0
    #: state starts active (a decoder's frame-0 hypotheses).
    initial_seed: int = 1
    #: Probe this many other queues when the local one is empty ("this
    #: load imbalance can be overcome by sharing a queue among a number
    #: of processors", Section 3.4).
    steal_probes: int = 4
    #: ``lock`` — fetch-and-set locks the score word, a plain write
    #: unlocks it with the new value (the paper's formulation).
    #: ``minx`` — one ``min-xchng`` per successor (the Section 3.2
    #: "complex operations" alternative).
    update_style: str = "lock"
    #: Record the predecessor of every score improvement so the best
    #: path can be traced back after the run ("returns the most likely
    #: sequence of words").  The backpointer write rides inside the
    #: score-word critical section, so it needs ``lock`` update style.
    track_backpointers: bool = False
    #: Modelled instruction time: per-iteration and per-successor parts
    #: of the ~70-instruction inner loop.
    loop_compute_cycles: int = 25
    succ_compute_cycles: int = 15
    lock_backoff_cycles: int = 30
    idle_backoff_cycles: int = 60
    idle_backoff_max_cycles: int = 800

    def __post_init__(self) -> None:
        if self.sync_mode not in SYNC_MODES:
            raise ConfigError(
                f"sync_mode {self.sync_mode!r} not one of {SYNC_MODES}"
            )
        if self.threads_per_node < 1:
            raise ConfigError("need at least one thread per node")
        if self.update_style not in ("lock", "minx"):
            raise ConfigError(f"unknown update_style {self.update_style!r}")
        if self.track_backpointers and self.update_style != "lock":
            raise ConfigError(
                "backpointers need the lock update style (the pointer "
                "write must sit inside the score critical section)"
            )


@dataclass
class BeamResult:
    """Scores plus machine measurements of one run."""

    best_final_cost: int
    scores: Dict[int, int]
    report: RunReport
    cycles: int
    iterations: int


class BeamSearchApp:
    """Builds the memory image and runs the decoder."""

    def __init__(
        self,
        machine: PlusMachine,
        lattice: Lattice,
        config: Optional[BeamConfig] = None,
    ) -> None:
        self.machine = machine
        self.lattice = lattice
        self.config = config or BeamConfig()
        self._iterations = 0
        self._build()

    # ------------------------------------------------------------------
    def owner_of(self, state: int) -> int:
        """States are partitioned by their index within the layer, so
        every layer's work spreads across all nodes."""
        index = state % self.lattice.width
        return index * self.machine.n_nodes // self.lattice.width

    def _build(self) -> None:
        machine = self.machine
        lattice = self.lattice
        n_nodes = machine.n_nodes
        everyone = list(range(n_nodes))

        owned: List[List[int]] = [[] for _ in range(n_nodes)]
        for s in range(lattice.n_states):
            owned[self.owner_of(s)].append(s)

        self._score_va: Dict[int, int] = {}
        self._bp_va: Dict[int, int] = {}
        self._arc_va: Dict[int, int] = {}
        for node in range(n_nodes):
            if not owned[node]:
                continue
            scores = machine.shm.alloc(
                len(owned[node]), home=node, name=f"beam-score{node}"
            )
            for i, s in enumerate(owned[node]):
                self._score_va[s] = scores.addr(i)
            machine.shm.load(scores, [INF] * len(owned[node]))
            if self.config.track_backpointers:
                bps = machine.shm.alloc(
                    len(owned[node]), home=node, name=f"beam-bp{node}"
                )
                for i, s in enumerate(owned[node]):
                    self._bp_va[s] = bps.addr(i)
                machine.shm.load(bps, [INF] * len(owned[node]))
            # Arc tables are read-only: replicated everywhere, like code.
            flat: List[int] = []
            bases: List[int] = []
            for s in owned[node]:
                bases.append(len(flat))
                succs = lattice.successors(s)
                flat.append(len(succs))
                for succ, cost in succs:
                    if cost > 0xFFF:
                        raise ConfigError("arc cost exceeds 12 bits")
                    flat.append((succ << 12) | cost)
            arcs = machine.shm.alloc(
                max(1, len(flat)),
                home=node,
                replicas=[n for n in everyone if n != node],
                name=f"beam-arc{node}",
            )
            machine.shm.load(arcs, flat)
            for s, base in zip(owned[node], bases):
                self._arc_va[s] = arcs.addr(base)

        # Per-layer best cost for beam pruning; replicated everywhere so
        # the prune check at pop time is a local read.
        best = machine.shm.alloc(
            lattice.n_layers, home=0, replicas=everyone[1:], name="beam-best"
        )
        self._best_base = best.base
        machine.shm.load(best, [INF] * lattice.n_layers)

        # Per-layer outstanding-item counters, spread across the nodes.
        self._cnt_va: List[int] = []
        for layer in range(lattice.n_layers):
            seg = machine.shm.alloc(
                1, home=layer % n_nodes, name=f"beam-cnt{layer}"
            )
            self._cnt_va.append(seg.base)

        # Double-buffered per-node queues: phase parity selects the set
        # being drained; activations go to the other set.
        self._queues: List[List[QueueHandle]] = [
            [
                machine.shm.alloc_queue(home=node, name=f"beamq{p}.{node}")
                for node in everyone
            ]
            for p in (0, 1)
        ]

        self.barrier = TreeBarrier(
            machine, self.config.threads_per_node, home=0
        )

        # Activate every layer-0 state with its initial hypothesis cost.
        self.initial = initial_costs(lattice, seed=self.config.initial_seed)
        ring_base = machine.params.queue_ring_base
        tails = [ring_base] * n_nodes
        for state, cost in sorted(self.initial.items()):
            machine.poke(self._score_va[state], cost)
            node = self.owner_of(state)
            q0 = self._queues[0][node]
            machine.poke(q0.base + tails[node], state | TOP_BIT)
            tails[node] += 1
        for node in everyone:
            machine.poke(self._queues[0][node].tail_va, tails[node])
        machine.poke(best.addr(0), min(self.initial.values()))
        machine.poke(self._cnt_va[0], len(self.initial))

        # Prebuilt request objects for the hot loops.  Requests are
        # immutable value objects (see ``repro.runtime.requests``), so
        # every fixed-address operation of the inner loop can reuse one
        # instance instead of allocating per iteration.  The yielded
        # request sequence is identical to the ThreadCtx-sugar version.
        cfg = self.config
        self._loop_compute = Compute(cfg.loop_compute_cycles)
        self._succ_compute = Compute(cfg.succ_compute_cycles)
        self._lock_spin = Compute(cfg.lock_backoff_cycles, useful=False)
        self._yield_req = Yield()
        self._owner = [self.owner_of(s) for s in range(lattice.n_states)]
        self._score_rd = {s: Read(va) for s, va in self._score_va.items()}
        self._fs_issue = {
            s: Issue(_FETCH_SET, va) for s, va in self._score_va.items()
        }
        # Index n_layers is constructed but never yielded (final-layer
        # states have no successors); it keeps the indexing uniform.
        self._best_rd = [
            Read(self._best_base + layer)
            for layer in range(lattice.n_layers + 1)
        ]
        self._cnt_rd = [Read(va) for va in self._cnt_va]
        self._cnt_dec = [
            Issue(_FETCH_ADD, va, 0xFFFFFFFF) for va in self._cnt_va
        ]
        self._dq_issue = [
            [Issue(_DEQUEUE, q.head_va) for q in qs]
            for qs in self._queues
        ]
        self._arc_rd = {
            s: [
                Read(base + j)
                for j in range(len(lattice.successors(s)) + 1)
            ]
            for s, base in self._arc_va.items()
        }

    # ------------------------------------------------------------------
    # Shared pieces.
    # ------------------------------------------------------------------
    def _read_arcs(self, ctx, state: int):
        reads = self._arc_rd[state]
        count = yield reads[0]
        succs: List[Tuple[int, int]] = []
        for i in range(count):
            packed = yield reads[1 + i]
            succs.append((packed >> 12, packed & 0xFFF))
        succs.sort()  # ascending lock order: deadlock freedom
        return succs

    def _pop(self, ctx, queues: List[QueueHandle], node: int, steal_ptr: List[int]):
        """Pop from the local queue, then from a bounded steal window."""
        word = yield from ctx.dequeue(queues[node])
        if word & TOP_BIT:
            return word & INF
        n = len(queues)
        for _ in range(min(self.config.steal_probes, n - 1)):
            steal_ptr[0] = (steal_ptr[0] + 1) % n
            if steal_ptr[0] == node:
                steal_ptr[0] = (steal_ptr[0] + 1) % n
            word = yield from ctx.dequeue(queues[steal_ptr[0]])
            if word & TOP_BIT:
                return word & INF
        return None

    def _push_activation(self, ctx, parity: int, succ: int):
        queue = self._queues[1 - parity][self.owner_of(succ)]
        while True:
            ret = yield from ctx.enqueue(queue, succ)
            if not ret & TOP_BIT:
                return
            yield from ctx.yield_cpu()
            yield from ctx.spin(self.config.lock_backoff_cycles)

    def _update_locked(self, ctx, succ: int, cost: int, old_score: int,
                       pred: int = -1):
        """Finish a lock-style score update.

        The score word is locked (we hold its old 31-bit value): write
        the backpointer (if tracked) and then the new score — the score
        write clears the lock bit.  Returns True when the score improved.
        """
        improved = cost < old_score
        if improved and self.config.track_backpointers:
            # Inside the critical section: the unlock write below is
            # issued after this one, and readers only inspect
            # backpointers after the end-of-run quiescence anyway.
            yield from ctx.write(self._bp_va[succ], pred)
        yield from ctx.write(
            self._score_va[succ], cost if improved else old_score
        )
        return improved

    def _track_best(self, ctx, layer: int, cost: int):
        best = yield from ctx.read(self._best_base + layer)
        if cost < best:
            yield from ctx.min_xchng(self._best_base + layer, cost)

    # ------------------------------------------------------------------
    # Blocking worker (also the context-switch mode program).
    # ------------------------------------------------------------------
    def _worker_blocking(self, ctx, node: int):
        cfg = self.config
        lattice = self.lattice
        steal_ptr = [node]
        for layer in range(lattice.n_layers):
            parity = layer & 1
            queues = self._queues[parity]
            cnt_va = self._cnt_va[layer]
            backoff = cfg.idle_backoff_cycles
            while True:
                state = yield from self._pop(ctx, queues, node, steal_ptr)
                if state is None:
                    remaining = yield from ctx.read(cnt_va)
                    if remaining == 0:
                        break
                    yield from ctx.yield_cpu()
                    yield from ctx.spin(backoff)
                    backoff = min(backoff * 2, cfg.idle_backoff_max_cycles)
                    continue
                backoff = cfg.idle_backoff_cycles
                self._iterations += 1
                yield from ctx.compute(cfg.loop_compute_cycles)
                raw = yield from ctx.read(self._score_va[state])
                score = raw & INF
                best = yield from ctx.read(self._best_base + layer)
                if score <= best + cfg.beam:
                    succs = yield from self._read_arcs(ctx, state)
                    for succ, w in succs:
                        cost = score + w
                        yield from ctx.compute(cfg.succ_compute_cycles)
                        if cfg.update_style == "minx":
                            old = yield from ctx.min_xchng(
                                self._score_va[succ], cost
                            )
                            activated = old == INF
                            improved = cost < old
                        else:
                            while True:
                                old = yield from ctx.fetch_set(
                                    self._score_va[succ]
                                )
                                if not old & TOP_BIT:
                                    break
                                yield from ctx.yield_cpu()
                                yield from ctx.spin(cfg.lock_backoff_cycles)
                            activated = old == INF
                            improved = yield from self._update_locked(
                                ctx, succ, cost, old, pred=state
                            )
                        if improved:
                            yield from self._track_best(ctx, layer + 1, cost)
                        if activated:
                            yield from ctx.fetch_add(self._cnt_va[layer + 1], 1)
                            yield from self._push_activation(ctx, parity, succ)
                yield from ctx.fetch_add(cnt_va, 0xFFFFFFFF)  # -1
            yield from self.barrier.wait(ctx)

    # ------------------------------------------------------------------
    # Delayed-operations worker: explicit software pipelining.
    # ------------------------------------------------------------------
    def _worker_delayed(self, ctx, node: int):
        # Hot loop: yields prebuilt request objects directly instead of
        # going through the ThreadCtx generator sugar.  The yielded
        # request sequence is identical to the sugar version (each
        # helper is a thin ``yield Request(...)``), so the simulation is
        # unchanged — this only removes per-operation subgenerator and
        # allocation overhead.
        cfg = self.config
        lattice = self.lattice
        steal_ptr = [node]
        loop_compute = self._loop_compute
        yield_req = self._yield_req
        score_rd = self._score_rd
        owner = self._owner
        fetch_add = _FETCH_ADD
        enqueue_op = _QUEUE
        beam = cfg.beam
        for layer in range(lattice.n_layers):
            parity = layer & 1
            dq_issues = self._dq_issue[parity]
            dq_local = dq_issues[node]
            other_queues = self._queues[1 - parity]
            cnt_rd = self._cnt_rd[layer]
            cnt_dec = self._cnt_dec[layer]
            best_rd = self._best_rd[layer]
            backoff = cfg.idle_backoff_cycles
            # A dequeue of the local queue is always in flight.
            dq_token = yield dq_local
            while True:
                word = yield AwaitResult(dq_token)
                dq_token = yield dq_local
                if word & TOP_BIT:
                    state = word & INF
                else:
                    state = yield from self._steal_only(
                        dq_issues, node, steal_ptr
                    )
                    if state is None:
                        remaining = yield cnt_rd
                        if remaining == 0:
                            yield AwaitResult(dq_token)  # drain
                            break
                        yield yield_req
                        yield Compute(backoff, useful=False)
                        backoff = min(
                            backoff * 2, cfg.idle_backoff_max_cycles
                        )
                        continue
                backoff = cfg.idle_backoff_cycles
                self._iterations += 1
                yield loop_compute
                raw = yield score_rd[state]
                score = raw & INF
                best = yield best_rd
                activations: List[int] = []
                if score <= best + beam:
                    succs = yield from self._read_arcs(ctx, state)
                    yield from self._update_pipelined(
                        ctx, layer, score, succs, activations, state
                    )
                if activations:
                    # One counter add covers the batch; enqueues are
                    # issued together and verified together.
                    token = yield Issue(
                        fetch_add, self._cnt_va[layer + 1], len(activations)
                    )
                    yield AwaitResult(token)
                    tokens = []
                    for succ in activations:
                        queue = other_queues[owner[succ]]
                        t = yield Issue(enqueue_op, queue.tail_va, succ)
                        tokens.append((succ, t))
                    for succ, t in tokens:
                        ret = yield AwaitResult(t)
                        if ret & TOP_BIT:  # full: fall back to retries
                            yield from self._push_activation(
                                ctx, parity, succ
                            )
                token = yield cnt_dec  # -1
                yield AwaitResult(token)
            yield from self.barrier.wait(ctx)

    def _steal_only(self, dq_issues, node: int, steal_ptr: List[int]):
        n = len(dq_issues)
        for _ in range(min(self.config.steal_probes, n - 1)):
            steal_ptr[0] = (steal_ptr[0] + 1) % n
            if steal_ptr[0] == node:
                steal_ptr[0] = (steal_ptr[0] + 1) % n
            token = yield dq_issues[steal_ptr[0]]
            word = yield AwaitResult(token)
            if word & TOP_BIT:
                return word & INF
        return None

    def _update_pipelined(self, ctx, layer, score, succs, activations,
                          state=-1):
        """Update all successors, lock i+1 overlapping work on i."""
        cfg = self.config
        if not succs:
            return
        if cfg.update_style == "minx":
            tokens = []
            for succ, w in succs:
                t = yield from ctx.issue_min_xchng(
                    self._score_va[succ], score + w
                )
                tokens.append((succ, score + w, t))
                yield from ctx.compute(cfg.succ_compute_cycles)
            for succ, cost, t in tokens:
                old = yield from ctx.result(t)
                if cost < old:
                    yield from self._track_best(ctx, layer + 1, cost)
                if old == INF:
                    activations.append(succ)
            return
        # Lock style, desugared like ``_worker_delayed`` (the request
        # sequence matches the ThreadCtx version, with ``_update_locked``
        # and ``_track_best`` inlined).
        fs_issue = self._fs_issue
        succ_compute = self._succ_compute
        lock_spin = self._lock_spin
        yield_req = self._yield_req
        score_va = self._score_va
        track_bp = cfg.track_backpointers
        best_rd = self._best_rd[layer + 1]
        best_va = self._best_base + layer + 1
        min_xchng = _MIN_XCHNG
        n = len(succs)
        token = yield fs_issue[succs[0][0]]
        for i, (succ, w) in enumerate(succs):
            cost = score + w
            while True:
                old = yield AwaitResult(token)
                if not old & TOP_BIT:
                    break
                yield yield_req
                yield lock_spin
                token = yield fs_issue[succ]
            if i + 1 < n:
                token = yield fs_issue[succs[i + 1][0]]
            yield succ_compute
            improved = cost < old
            if improved and track_bp:
                yield Write(self._bp_va[succ], state)
            yield Write(score_va[succ], cost if improved else old)
            if improved:
                best = yield best_rd
                if cost < best:
                    t = yield Issue(min_xchng, best_va, cost)
                    yield AwaitResult(t)
            if old == INF:
                activations.append(succ)

    # ------------------------------------------------------------------
    def spawn_workers(self) -> None:
        cfg = self.config
        worker = (
            self._worker_delayed
            if cfg.sync_mode == "delayed"
            else self._worker_blocking
        )
        for node in range(self.machine.n_nodes):
            for t in range(cfg.threads_per_node):
                self.machine.spawn(node, worker, node, name=f"beam{node}.{t}")

    # ------------------------------------------------------------------
    def scores(self) -> Dict[int, int]:
        """Final state scores.  Every lock bit must be clear by now."""
        out = {}
        for s in range(self.lattice.n_states):
            value = self.machine.peek(self._score_va[s])
            if value & TOP_BIT:
                raise ConfigError(
                    f"state {s} finished the run with its score locked"
                )
            if value != INF:
                out[s] = value
        return out

    def best_path(self) -> List[int]:
        """Trace the best final state back to layer 0 via backpointers."""
        if not self.config.track_backpointers:
            raise ConfigError("run with track_backpointers=True first")
        last = self.lattice.n_layers - 1
        state = min(
            (self.lattice.state_id(last, i) for i in range(self.lattice.width)),
            key=lambda s: self.machine.peek(self._score_va[s]) & INF,
        )
        path = [state]
        while self.lattice.layer_of(state) > 0:
            pred = self.machine.peek(self._bp_va[state])
            if pred == INF:
                raise ConfigError(
                    f"state {state} has a score but no backpointer"
                )
            state = pred
            path.append(state)
        path.reverse()
        return path

    def best_final_cost(self) -> int:
        last = self.lattice.n_layers - 1
        return min(
            self.machine.peek(self._score_va[self.lattice.state_id(last, i)])
            & INF
            for i in range(self.lattice.width)
        )


def params_for(config: BeamConfig) -> TimingParams:
    """Machine parameters implied by a beam configuration."""
    if config.sync_mode == "context":
        return PAPER_PARAMS.evolved(
            context_switch_cycles=config.context_switch_cycles
        )
    return PAPER_PARAMS


def run_beam(
    n_nodes: int,
    lattice: Lattice,
    config: Optional[BeamConfig] = None,
    max_cycles: Optional[int] = None,
) -> BeamResult:
    """Build a machine, run the beam search, return results."""
    config = config or BeamConfig()
    machine = PlusMachine(n_nodes=n_nodes, params=params_for(config))
    app = BeamSearchApp(machine, lattice, config)
    app.spawn_workers()
    report = machine.run(max_cycles=max_cycles)
    return BeamResult(
        best_final_cost=app.best_final_cost(),
        scores=app.scores(),
        report=report,
        cycles=report.cycles,
        iterations=app._iterations,
    )
