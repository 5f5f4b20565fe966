"""Seeded stress runs: random machines, random programs, fault injection.

Each seed deterministically derives a whole experiment — mesh shape,
page size, coherence protocol variant, copy-list layouts, per-thread
programs mixing reads, writes, fences and all eight delayed operations —
runs it under a live :class:`~repro.check.invariants.InvariantMonitor`,
and judges the drained machine with the
:class:`~repro.check.oracle.CoherenceOracle`.

Two fault-injection knobs widen the schedule space without changing
what the protocol must guarantee:

* **Link-latency jitter** (:class:`JitteredLinkModel`) perturbs every
  delivery time by a seeded random hold, preserving point-to-point FIFO
  (the jitter lands after the fabric's ordering floor).
* **Randomized tie-breaking** (the engine's ``tie_break_rng``) scrambles
  the execution order of same-cycle events.

With ``--faults`` the mesh itself turns hostile: a seeded
:class:`~repro.network.faults.FaultPlan` (knobs derived per seed, or
pinned from the command line) drops, duplicates, reorders and
blacks-out messages, and the run must *still* satisfy every oracle and
invariant check word for word — the recovery layer is expected to hide
all of it.  The per-run fault counters (drops, dups, retransmits,
recovered) ride along in :class:`StressResult` so a sweep can also
assert the faults actually fired.

A third knob, :func:`inject_skip_last_hop`, plants a *deliberate
protocol bug* — the second-to-last copy in an update chain acks the
originator without forwarding to the tail — to prove the oracle catches
real coherence violations (mutation testing for the checker itself).

Every stream of randomness is seeded from the run's seed alone, so any
failure reproduces exactly with ``python -m repro check --seed N``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.invariants import InvariantMonitor
from repro.check.oracle import CoherenceOracle, OracleReport
from repro.core.params import OpCode, TimingParams
from repro.errors import PlusError
from repro.machine import PlusMachine
from repro.network.faults import FaultPlan
from repro.network.router import LinkModel
from repro.network.topology import Topology

#: Delayed operations issued against plain data words (QUEUE/DEQUEUE are
#: issued through their queue handle, completing the set of eight).
_DATA_OPS = (
    OpCode.XCHNG,
    OpCode.COND_XCHNG,
    OpCode.FETCH_ADD,
    OpCode.FETCH_SET,
    OpCode.MIN_XCHNG,
    OpCode.DELAYED_READ,
)

#: (width, height) mesh shapes the generator samples from.
_MESH_SHAPES = ((2, 2), (4, 1), (3, 2), (2, 3), (4, 2), (3, 3))


class JitteredLinkModel(LinkModel):
    """A :class:`LinkModel` that adds seeded random delivery jitter.

    The jitter is added *after* the base model has applied the fabric's
    FIFO ordering floor, and is never negative, so same-pair messages
    still deliver in injection order — the protocol's one hard ordering
    assumption survives; only the schedule gets shaken.
    """

    __slots__ = ("rng", "amplitude")

    def __init__(
        self, params: TimingParams, rng: random.Random, amplitude: int,
        topology: Topology,
    ) -> None:
        super().__init__(params, topology)
        self.rng = rng
        self.amplitude = amplitude

    def traverse_steps(self, src, steps, depart, size_bytes, not_before=0):
        arrive = super().traverse_steps(
            src, steps, depart, size_bytes, not_before
        )
        if self.amplitude:
            arrive += self.rng.randrange(self.amplitude + 1)
        return arrive


def inject_skip_last_hop(machine: PlusMachine) -> None:
    """Plant a protocol bug: drop the final hop of every update chain.

    Every coherence manager's update handler is replaced by a version
    that, on receiving an update whose *next* hop is the chain's tail,
    applies the writes locally and acknowledges the originator directly
    — the tail copy silently never learns about the write.  The chain
    still completes (no deadlock), so only a coherence check can tell
    the run went wrong.  Fires on copy-lists with three or more copies.
    """
    for node in machine.nodes:
        cm = node.cm
        orig = cm._apply_update

        def buggy(msg, cm=cm, orig=orig, machine=machine):
            page = msg.addr.page
            nxt = cm.tables.next_of(page)
            if (
                nxt is not None
                and machine.nodes[nxt.node].cm.tables.next_of(nxt.page)
                is None
            ):
                # BUG under test: ack without forwarding to the tail.
                cm._write_words(page, msg.writes)
                cm.counters.updates_applied += 1
                cm._complete_chain(msg.origin, msg.xid, msg.op)
                return
            orig(msg)

        cm._apply_update = buggy


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StressConfig:
    """Deterministic experiment shape derived from one seed."""

    seed: int
    width: int
    height: int
    page_words: int
    protocol: str
    jitter: int
    random_ties: bool
    n_segments: int
    n_threads: int
    ops_per_thread: int
    inject_bug: bool = False
    #: Wire-level fault knobs (all zero = the paper's lossless mesh).
    #: ``fault_jitter`` is the FaultPlan's reordering amplitude, distinct
    #: from ``jitter`` (link-model jitter, which preserves FIFO).
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    fault_jitter: int = 0
    outage_rate: float = 0.0
    outage_cycles: int = 0
    #: Node crash/restart knobs (all zero = nobody dies).  ``crashes``
    #: holds explicit ``(node, at_cycle, down_cycles)`` windows.
    crash_rate: float = 0.0
    crash_down_cycles: int = 0
    crashes: Tuple[Tuple[int, int, int], ...] = ()
    durability: str = "preserve"

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    @property
    def has_faults(self) -> bool:
        return bool(
            self.drop_prob
            or self.dup_prob
            or self.fault_jitter
            or self.outage_rate
            or self.has_crashes
        )

    @property
    def has_crashes(self) -> bool:
        return bool(self.crash_rate or self.crashes)

    def fault_plan(self) -> Optional[FaultPlan]:
        """The run's :class:`FaultPlan`, or None on a lossless mesh."""
        if not self.has_faults:
            return None
        return FaultPlan(
            self.seed,
            drop_prob=self.drop_prob,
            dup_prob=self.dup_prob,
            jitter=self.fault_jitter,
            outage_rate=self.outage_rate,
            outage_cycles=self.outage_cycles,
            crash_rate=self.crash_rate,
            crash_down_cycles=self.crash_down_cycles,
            crashes=self.crashes,
            durability=self.durability,
        )

    @classmethod
    def from_seed(
        cls,
        seed: int,
        inject_bug: bool = False,
        faults: bool = False,
        chaos: bool = False,
        overrides: Optional[Dict[str, object]] = None,
    ) -> "StressConfig":
        """Derive one experiment from ``seed``.

        ``faults=True`` additionally derives wire-fault knobs from their
        own seeded stream (so fault sweeps cover mild to vicious meshes
        without changing the experiment shapes of fault-free seeds).
        ``chaos=True`` implies ``faults`` and further derives a node
        crash/restart schedule — the full hostile preset.  ``overrides``
        pins individual config fields — typically fault knobs given
        explicitly on the command line.
        """
        if chaos:
            faults = True
        rng = random.Random(f"{seed}:shape")
        width, height = rng.choice(_MESH_SHAPES)
        n_nodes = width * height
        config = cls(
            seed=seed,
            width=width,
            height=height,
            page_words=rng.choice((16, 32, 64)),
            # The planted bug lives in the UPDATE path; force the update
            # protocol for mutation runs so every write can expose it.
            protocol=(
                "update"
                if inject_bug
                else rng.choice(("update", "update", "invalidate"))
            ),
            jitter=rng.choice((0, 1, 3, 7)),
            random_ties=rng.random() < 0.75,
            n_segments=rng.randint(2, 3),
            n_threads=rng.randint(n_nodes, 2 * n_nodes),
            ops_per_thread=rng.randint(8, 24),
            inject_bug=inject_bug,
        )
        if faults:
            frng = random.Random(f"{seed}:faults")
            fault_fields: Dict[str, object] = {
                "drop_prob": frng.choice((0.002, 0.01, 0.03)),
                "dup_prob": frng.choice((0.002, 0.01, 0.03)),
                "fault_jitter": frng.choice((0, 4, 16)),
            }
            if frng.random() < 0.5:
                fault_fields["outage_rate"] = 1 / 20_000
                fault_fields["outage_cycles"] = frng.choice((200, 800))
            config = replace(config, **fault_fields)
        if chaos:
            # Crash knobs ride their own stream so --chaos keeps the
            # message-fault knobs of the same seed's --faults run.  Down
            # windows stay far below the reliable layer's retry budget
            # (~204k cycles) so a crashed peer always restarts inside it.
            crng = random.Random(f"{seed}:crashes")
            config = replace(
                config,
                crash_rate=crng.choice((1 / 6_000, 1 / 12_000)),
                crash_down_cycles=crng.choice((300, 900, 2_000)),
                durability=crng.choice(("preserve", "preserve", "scrub")),
            )
        if overrides:
            config = replace(config, **overrides)
        return config

    def describe(self) -> str:
        knobs = []
        if self.jitter:
            knobs.append(f"jitter<={self.jitter}")
        if self.random_ties:
            knobs.append("random-ties")
        if self.inject_bug:
            knobs.append("BUG:skip-last-hop")
        if self.drop_prob:
            knobs.append(f"drop={self.drop_prob:g}")
        if self.dup_prob:
            knobs.append(f"dup={self.dup_prob:g}")
        if self.fault_jitter:
            knobs.append(f"reorder<={self.fault_jitter}")
        if self.outage_rate:
            knobs.append(
                f"outage={self.outage_rate:g}/cyc x{self.outage_cycles}"
            )
        if self.crash_rate:
            knobs.append(
                f"crash={self.crash_rate:g}/cyc "
                f"x{self.crash_down_cycles} ({self.durability})"
            )
        if self.crashes:
            knobs.append(
                f"crashes={','.join(f'{n}@{at}+{down}' for n, at, down in self.crashes)}"
                f" ({self.durability})"
            )
        extra = f" [{', '.join(knobs)}]" if knobs else ""
        return (
            f"{self.width}x{self.height} mesh, {self.page_words}-word "
            f"pages, {self.protocol} protocol, {self.n_threads} threads x "
            f"{self.ops_per_thread} ops{extra}"
        )


@dataclass
class StressResult:
    """Outcome of one seeded stress run."""

    seed: int
    config: StressConfig
    cycles: int = 0
    messages: int = 0
    report: Optional[OracleReport] = None
    live_error: Optional[str] = None
    #: Wire-fault counters from the run's fabric (zero on lossless runs).
    drops: int = 0
    dups: int = 0
    retransmits: int = 0
    recovered: int = 0
    #: Crash/restart counters (zero unless the plan takes nodes down).
    crashes: int = 0
    recoveries: int = 0
    crash_events: List[Tuple[int, int, str, int]] = field(
        default_factory=list
    )
    crash_flushes: int = 0
    crash_strays: int = 0
    crash_redrives: int = 0
    stale_epoch_drops: int = 0

    @property
    def ok(self) -> bool:
        """The run drained cleanly and every coherence check passed."""
        return (
            self.live_error is None
            and self.report is not None
            and self.report.ok
        )

    @property
    def caught(self) -> bool:
        """A checker flagged the run (what fault injection hopes for)."""
        return not self.ok

    def describe(self) -> str:
        state = "ok" if self.ok else "FAILED"
        wire = (
            f" (drops={self.drops} dups={self.dups} "
            f"retx={self.retransmits} recovered={self.recovered})"
            if self.config.has_faults
            else ""
        )
        if self.config.has_crashes:
            wire += (
                f" (crashes={self.crashes} recoveries={self.recoveries} "
                f"flushes={self.crash_flushes} redrives={self.crash_redrives} "
                f"strays={self.crash_strays})"
            )
        lines = [
            f"seed {self.seed}: {state} — {self.config.describe()}; "
            f"{self.cycles} cycles, {self.messages} messages{wire}"
        ]
        if self.live_error is not None:
            lines.append(f"  live: {self.live_error}")
        if self.report is not None and not self.report.ok:
            lines.extend(
                f"  {v.describe()}" for v in self.report.violations
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _make_program(plan: List[tuple], queue):
    """Turn a declarative op ``plan`` into a thread generator function."""

    def program(ctx):
        tokens = []
        for step in plan:
            kind = step[0]
            if kind == "read":
                yield from ctx.read(step[1])
            elif kind == "write":
                yield from ctx.write(step[1], step[2])
            elif kind == "write_read":
                # Immediately read the word back: exercises the
                # read-blocks-on-pending gate the monitor watches.
                yield from ctx.write(step[1], step[2])
                yield from ctx.read(step[1])
            elif kind == "fence":
                yield from ctx.fence()
            elif kind == "compute":
                yield from ctx.compute(step[1])
            elif kind == "rmw":
                _, op, vaddr, operand = step
                token = yield from ctx.issue(op, vaddr, operand)
                yield from ctx.result(token)
            elif kind == "rmw_split":
                _, op, vaddr, operand, depth = step
                tokens.append((yield from ctx.issue(op, vaddr, operand)))
                if len(tokens) >= depth:
                    while tokens:
                        yield from ctx.result(tokens.pop())
            elif kind == "enqueue":
                yield from ctx.enqueue(queue, step[1])
            elif kind == "dequeue":
                yield from ctx.dequeue(queue)
        while tokens:
            yield from ctx.result(tokens.pop())
        yield from ctx.fence()

    return program


def _build_plan(
    rng: random.Random, pools: List[List[int]], ops: int
) -> List[tuple]:
    """One thread's op list.  Always opens with a write to segment 0 —
    the segment guaranteed three copies — so update chains long enough
    to exercise every hop (and the planted bug) occur on every seed."""

    def addr() -> int:
        return rng.choice(rng.choice(pools))

    plan: List[tuple] = [
        ("write", rng.choice(pools[0]), rng.randrange(1, 1 << 20))
    ]
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.20:
            plan.append(("read", addr()))
        elif roll < 0.42:
            plan.append(("write", addr(), rng.randrange(1, 1 << 20)))
        elif roll < 0.52:
            plan.append(("write_read", addr(), rng.randrange(1, 1 << 20)))
        elif roll < 0.60:
            plan.append(("fence",))
        elif roll < 0.67:
            plan.append(("compute", rng.randint(1, 40)))
        elif roll < 0.78:
            plan.append(
                ("rmw", rng.choice(_DATA_OPS), addr(), rng.randrange(1 << 16))
            )
        elif roll < 0.88:
            plan.append(
                (
                    "rmw_split",
                    rng.choice(_DATA_OPS),
                    addr(),
                    rng.randrange(1 << 16),
                    rng.randint(2, 3),
                )
            )
        elif roll < 0.95:
            plan.append(("enqueue", rng.randrange(1, 1 << 16)))
        else:
            plan.append(("dequeue",))
    return plan


def _stress_params(config: StressConfig) -> TimingParams:
    return TimingParams(
        page_words=config.page_words,
        queue_ring_base=8,
        tlb_entries=8,
        coherence_protocol=config.protocol,
    )


def _assemble_layout(machine, config: StressConfig):
    """Segment/queue layout and thread programs for one config.

    Everything here is setup-time (direct pokes, no simulated traffic).
    Returns the spawn plans.
    """
    seed = config.seed
    layout = random.Random(f"{seed}:layout")
    n = config.n_nodes
    pools: List[List[int]] = []
    for i in range(config.n_segments):
        home = layout.randrange(n)
        others = [node for node in range(n) if node != home]
        if i == 0:
            # Segment 0 always has >= 3 copies: long update chains.
            n_replicas = layout.randint(2, len(others))
        else:
            n_replicas = layout.randint(0, len(others))
        replicas = layout.sample(others, n_replicas)
        nwords = layout.randint(4, config.page_words)
        seg = machine.shm.alloc(
            nwords, home=home, replicas=replicas, name=f"stress{i}"
        )
        pool_size = min(nwords, 6)
        pools.append(
            [seg.addr(j) for j in layout.sample(range(nwords), pool_size)]
        )
    qhome = layout.randrange(n)
    qothers = [node for node in range(n) if node != qhome]
    queue = machine.shm.alloc_queue(
        home=qhome,
        replicas=layout.sample(qothers, layout.randint(0, len(qothers))),
    )

    program_rng = random.Random(f"{seed}:programs")
    slots = list(range(n)) * 2
    program_rng.shuffle(slots)
    spawn_plans = []
    for t in range(config.n_threads):
        plan = _build_plan(program_rng, pools, config.ops_per_thread)
        spawn_plans.append((slots[t], _make_program(plan, queue)))
    return spawn_plans


def build_machine(config: StressConfig):
    """Construct the machine, layout and monitor for one config.

    Returns ``(machine, monitor, spawn_plans)`` where ``spawn_plans`` is
    a list of ``(node_id, program)`` ready for ``machine.spawn``.
    """
    seed = config.seed
    params = _stress_params(config)
    machine = PlusMachine(
        config.n_nodes,
        params=params,
        width=config.width,
        height=config.height,
        tie_break_rng=(
            random.Random(f"{seed}:ties") if config.random_ties else None
        ),
    )
    if config.jitter:
        machine.fabric.links = JitteredLinkModel(
            params, random.Random(f"{seed}:jitter"), config.jitter,
            topology=machine.mesh,
        )
    # Faults before the monitor (it adopts the plan at install time) and
    # before any traffic (sequence numbering must cover every message).
    plan = config.fault_plan()
    if plan is not None:
        machine.install_faults(plan)
    # Retransmissions and NET_ACKs inflate faulty captures well past a
    # lossless run's traffic, so give those runs a deeper buffer.
    monitor = InvariantMonitor(
        capacity=1_000_000 if plan is not None else 500_000
    ).install(machine)
    if config.inject_bug:
        inject_skip_last_hop(machine)
    spawn_plans = _assemble_layout(machine, config)
    return machine, monitor, spawn_plans


def _harvest(result: StressResult, machine: PlusMachine) -> None:
    stats = machine.fabric.stats
    result.cycles = machine.engine.now
    result.messages = stats.total_messages
    result.drops = stats.drops
    result.dups = stats.dups
    result.retransmits = stats.retransmits
    result.recovered = stats.recovered
    if result.config.has_crashes:
        # Crash tallies exist only on crash plans; crash-free runs never
        # compile the crash extension.
        from repro.core.crash import harvest_crashes

        harvest_crashes(result, machine)


def run_stress(
    seed: int,
    inject_bug: bool = False,
    max_events: int = 5_000_000,
    faults: bool = False,
    chaos: bool = False,
    fault_overrides: Optional[Dict[str, object]] = None,
) -> StressResult:
    """Run one seeded stress experiment and judge it with the oracle.

    ``chaos=True`` is the full hostile preset: seeded message faults
    *plus* a node crash/restart schedule.
    """
    config = StressConfig.from_seed(
        seed,
        inject_bug=inject_bug,
        faults=faults,
        chaos=chaos,
        overrides=fault_overrides,
    )
    result = StressResult(seed=seed, config=config)
    machine, monitor, spawn_plans = build_machine(config)
    try:
        for node_id, program in spawn_plans:
            machine.spawn(node_id, program, name=f"stress-{seed}")
        machine.run(max_events=max_events)
    except PlusError as exc:
        result.live_error = f"{type(exc).__name__}: {exc}"
        _harvest(result, machine)
        return result
    finally:
        monitor.uninstall()
    _harvest(result, machine)
    result.report = CoherenceOracle(machine, monitor).check()
    return result


def run_seeds(
    count: int,
    base_seed: int = 0,
    inject_bug: bool = False,
    keep_going: bool = False,
    on_result: Optional[Callable[[StressResult], None]] = None,
    faults: bool = False,
    chaos: bool = False,
    fault_overrides: Optional[Dict[str, object]] = None,
    jobs: int = 1,
    shard: Optional[str] = None,
) -> List[StressResult]:
    """Run ``count`` consecutive seeds; stop at the first failure unless
    ``keep_going`` (a *failure* means a bug-injection run the checkers
    missed, or a clean run they flagged).

    ``jobs`` fans the seeds out across worker processes through
    :func:`repro.parallel.run_sweep`; results (and ``on_result`` calls)
    arrive in seed order and are identical to the serial run for every
    job count, including the truncation after a first failure when not
    ``keep_going``.  ``shard="i/N"`` runs only that slice of the seed
    range (for splitting one sweep across CI machines).
    """
    from repro.parallel import SweepTask, run_sweep, shard_tasks

    common: Dict[str, object] = {
        "inject_bug": inject_bug,
        "faults": faults,
        "chaos": chaos,
        "fault_overrides": fault_overrides,
    }
    tasks = [
        SweepTask.make(
            seed,
            "repro.check.stress:run_stress",
            {"seed": seed, **common},
            label=f"seed {seed}",
        )
        for seed in range(base_seed, base_seed + count)
    ]
    tasks = shard_tasks(tasks, shard)

    def unwrap(task_result) -> StressResult:
        """TaskResult -> StressResult, synthesizing one for a run that
        crashed its worker or raised outside the harness's control."""
        if task_result.error is None:
            return task_result.value
        return StressResult(
            seed=task_result.index,
            config=StressConfig.from_seed(
                task_result.index,
                inject_bug=inject_bug,
                faults=faults,
                chaos=chaos,
                overrides=fault_overrides,
            ),
            live_error=task_result.error,
        )

    def seed_failed(result: StressResult) -> bool:
        return not result.caught if inject_bug else not result.ok

    results: List[StressResult] = []

    def deliver(task_result) -> None:
        result = unwrap(task_result)
        results.append(result)
        if on_result is not None:
            on_result(result)

    run_sweep(
        tasks,
        jobs=jobs,
        on_result=deliver,
        # deliver() has already appended this task's StressResult.
        stop=None if keep_going else (lambda tr: seed_failed(results[-1])),
        failed=lambda tr: seed_failed(unwrap(tr)),
        label="check",
    )
    return results
