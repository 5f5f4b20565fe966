"""The PLUS machine: nodes on a mesh, ready to run a parallel program.

:class:`PlusMachine` assembles the whole system — discrete-event engine,
mesh fabric, nodes (processor, cache, memory, coherence manager), the
replication manager ("the OS"), and optionally the competitive
replication hardware — and runs simulated threads to completion.

Typical use::

    machine = PlusMachine(n_nodes=16)
    shm = machine.shm
    counter = shm.alloc(1, home=0)
    machine.spawn(3, worker, counter)      # worker(ctx, counter) generator
    report = machine.run()
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.params import PAPER_PARAMS, TimingParams
from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.memory.competitive import CompetitiveReplicator
from repro.memory.profiling import AccessProfiler
from repro.memory.replication import ReplicationManager
from repro.network.fabric import Fabric
from repro.network.faults import FaultPlan
from repro.network.topology import make_topology
from repro.node.cpu import SimThread
from repro.node.node import Node
from repro.sim.engine import Engine
from repro.stats.counters import MachineCounters
from repro.stats.report import RunReport


class PlusMachine:
    """A simulated PLUS multiprocessor."""

    def __init__(
        self,
        n_nodes: int,
        params: TimingParams = PAPER_PARAMS,
        width: int = 0,
        height: int = 0,
        snoop_policy: str = "update",
        competitive: Optional[CompetitiveReplicator] = None,
        enable_competitive: bool = False,
        competitive_threshold: int = 64,
        competitive_max_copies: int = 4,
        enable_profiling: bool = False,
        tie_break_rng=None,
    ) -> None:
        if n_nodes < 1:
            raise ConfigError("a machine needs at least one node")
        self.params = params
        self.snoop_policy = snoop_policy
        # ``mesh`` is the machine's topology (historically always a
        # Mesh; ``params.topology`` selects e.g. a torus instead).
        self.mesh = make_topology(params.topology, n_nodes, width, height)
        self.engine = Engine(tie_break_rng=tie_break_rng)
        self.fabric = Fabric(self.engine, self.mesh, params)
        self.os = ReplicationManager(self)
        nodes: List[Node] = []
        self.nodes = nodes
        for i in range(n_nodes):
            nodes.append(Node(i, self))
        if competitive is not None:
            self.competitive: Optional[CompetitiveReplicator] = competitive
        elif enable_competitive:
            self.competitive = CompetitiveReplicator(
                self,
                threshold=competitive_threshold,
                max_copies=competitive_max_copies,
            )
        else:
            self.competitive = None
        #: Optional per-(node, page) access profiler (Section 2.4's
        #: measure-one-run-then-place strategy).
        self.profiler: Optional[AccessProfiler] = (
            AccessProfiler() if enable_profiling else None
        )
        if self.profiler is None:
            # No profiler for this machine's lifetime: skip the per-access
            # profiler check by binding each node's MMU entry point
            # straight to its page table (translate is the single hottest
            # per-request call).
            for node in self.nodes:
                node.translate = node.page_table.translate
        #: Optional live :class:`~repro.check.invariants.InvariantMonitor`
        #: (set by its ``install``); the CPU read path notifies it.
        self.invariant_monitor = None
        # Imported here to avoid a module-level cycle (shm uses machine).
        from repro.runtime.shm import SharedMemory

        self.shm = SharedMemory(self)
        self._ran = False
        # Node crash/restart state (populated only when a fault plan
        # with a crash schedule is installed; empty otherwise).
        #: Nodes currently down.
        self._down: Set[int] = set()
        #: Chronological ``(cycle, node, "crash"|"restart", epoch)`` log.
        self.crash_log: List[Tuple[int, int, str, int]] = []
        #: ``(dead_node, dead_ppage) -> CopyList`` recorded at crash time
        #: (pre-repair), so flushed chain traffic can be re-routed.
        self._crash_pages: Dict[Tuple[int, int], Any] = {}
        #: Per-node callbacks to run after a restart (recovery threads).
        self._restart_hooks: Dict[int, List[Callable[[int], None]]] = {}
        # Machine-local id streams.  Thread ids (like message ids, which
        # live on the fabric) must not come from process-global counters:
        # they appear in transcripts and deadlock reports, and a sweep
        # worker process runs many machines back to back — per-machine
        # streams keep every run's output identical to a fresh process,
        # which is what lets a parallel sweep be byte-for-byte
        # deterministic regardless of job count (fork or spawn).
        self._next_tid = 0

    # ------------------------------------------------------------------
    def next_tid(self) -> int:
        """Allocate a machine-unique thread id (monotonic from 0)."""
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Fault injection.
    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan) -> FaultPlan:
        """Make the mesh unreliable per ``plan`` and arm recovery.

        Installs the plan on the fabric and enables the reliable-delivery
        sublayer of every coherence manager, so the protocol still sees
        exactly-once, in-order delivery — just later, and with
        retransmission traffic on the wire.  Must be called before any
        traffic flows.  An already-installed
        :class:`~repro.check.invariants.InvariantMonitor` is told about
        the plan so it can tell wire retransmissions from protocol bugs.
        """
        self.fabric.install_faults(plan)
        for node in self.nodes:
            node.cm.enable_reliability()
        if plan.has_crashes:
            self._arm_crashes()
            self._schedule_crashes(plan)
        monitor = self.invariant_monitor
        if monitor is not None:
            monitor.fault_plan = plan
        return plan

    # ------------------------------------------------------------------
    # Node crash / restart.
    # ------------------------------------------------------------------
    def _arm_crashes(self) -> None:
        """Make every node's CM a :class:`~repro.core.crash.CrashTolerantCM`
        (the one place that happens; idempotent, and before traffic on a
        faulty mesh).  Crash-free machines keep the paper's CM."""
        from repro.core.crash import CrashTolerantCM

        for node in self.nodes:
            if not isinstance(node.cm, CrashTolerantCM):
                CrashTolerantCM.adopt(node.cm, self._crash_route)

    def _schedule_crashes(self, plan: FaultPlan) -> None:
        """Schedule the plan's targeted and seeded crash windows."""
        engine = self.engine
        for node_id, at, down in plan.crashes:
            if not 0 <= node_id < self.n_nodes:
                raise ConfigError(
                    f"targeted crash names node {node_id}, but the "
                    f"machine has {self.n_nodes} nodes"
                )
            engine.at(
                at, lambda n=node_id, d=down: self._targeted_crash(n, d)
            )
        if plan.crash_rate:
            for node in self.nodes:
                sched = plan.node_crashes(node.node_id)
                engine.at(
                    sched.start,
                    lambda n=node.node_id: self._scheduled_crash(n),
                )

    def _workload_finished(self) -> bool:
        return all(n.cpu.all_done for n in self.nodes)

    def _targeted_crash(self, node_id: int, down_cycles: int) -> None:
        if self._workload_finished() or node_id in self._down:
            return
        self.crash_node(node_id)
        self.engine.at(
            self.engine.now + down_cycles,
            lambda: self.restart_node(node_id),
        )

    def _scheduled_crash(self, node_id: int) -> None:
        # Once the workload is finished the schedule stops rescheduling
        # itself; otherwise the crash events would keep the event queue
        # alive forever and the run could never drain.
        if self._workload_finished():
            return
        sched = self.fabric.fault_plan.node_crashes(node_id)
        if node_id in self._down:
            # A targeted window already holds the node down; skip this
            # window and try the next one.
            sched.advance()
            self.engine.at(
                sched.start, lambda: self._scheduled_crash(node_id)
            )
            return
        end = sched.end
        self.crash_node(node_id)

        def restart() -> None:
            self.restart_node(node_id)
            sched.advance()
            self.engine.at(
                sched.start, lambda: self._scheduled_crash(node_id)
            )

        self.engine.at(end, restart)

    def _crash_route(self, dead_node: int, dead_ppage: int):
        """CopyList for a page the dead node held, or None (CM hook)."""
        return self._crash_pages.get((dead_node, dead_ppage))

    @property
    def down_nodes(self) -> List[int]:
        """Nodes currently crashed (sorted)."""
        return sorted(self._down)

    def node_epoch(self, node_id: int) -> int:
        """Crash epoch (restart count) of one node."""
        reliable = self.nodes[node_id].cm.reliable
        return 0 if reliable is None else reliable.epoch

    def on_restart(self, node_id: int, fn: Callable[[int], None]) -> None:
        """Register ``fn(node_id)`` to run each time ``node_id`` comes
        back up (applications spawn their recovery threads here)."""
        self._restart_hooks.setdefault(node_id, []).append(fn)

    def crash_node(self, node_id: int) -> None:
        """Take a node down *now*: volatile state is atomically lost.

        CPU thread contexts, the CM's service queue and caches, and the
        reliable layer's windows all die; local memory frames survive
        the down window (a ``durability="scrub"`` plan zeroes them at
        restart).  Copy-lists naming the node are repaired immediately —
        the OS's global page directory observes the failure — so
        surviving nodes route around the corpse.  A machine whose plan
        scheduled no crash is armed here (before traffic, if faulty).
        """
        if node_id in self._down:
            raise ConfigError(f"node {node_id} is already down")
        self._arm_crashes()
        node = self.nodes[node_id]
        now = self.engine.now
        self._down.add(node_id)
        self.crash_log.append((now, node_id, "crash", self.node_epoch(node_id)))
        # Record, pre-repair, which copy-list every page of the dead
        # node belonged to: flushed in-flight chain traffic re-routes
        # through these.
        for vpage in self.os.known_vpages():
            copy = self.os.copy_on_node(vpage, node_id)
            if copy is not None:
                # Materialize only pages the dead node actually holds;
                # cold pages homed elsewhere stay inside their extents.
                self._crash_pages[(node_id, copy.page)] = self.os.copylist(
                    vpage
                )
        node.cpu.kill_all()
        node.cm.on_crash()
        node.cache.flush()
        for other in self.nodes:
            if other.node_id != node_id and other.cm.reliable is not None:
                other.cm.reliable.on_peer_crash(node_id)
        plan = self.fabric.fault_plan
        durability = plan.durability if plan is not None else "preserve"
        self.os.repair_after_crash(node_id, durability)
        monitor = self.invariant_monitor
        if monitor is not None:
            monitor.on_crash(node_id, now)

    def restart_node(self, node_id: int) -> None:
        """Bring a crashed node back as a new incarnation (epoch + 1)."""
        if node_id not in self._down:
            return
        node = self.nodes[node_id]
        self._down.discard(node_id)
        node.cm.on_restart()
        now = self.engine.now
        self.crash_log.append(
            (now, node_id, "restart", self.node_epoch(node_id))
        )
        plan = self.fabric.fault_plan
        if plan is not None and plan.durability == "scrub":
            memory = node.memory
            for page in list(memory.frames()):
                memory.zero_page(page)
        monitor = self.invariant_monitor
        if monitor is not None:
            monitor.on_restart(node_id, now)
        for fn in self._restart_hooks.get(node_id, ()):
            fn(node_id)

    # ------------------------------------------------------------------
    # Program loading.
    # ------------------------------------------------------------------
    def spawn(
        self,
        node_id: int,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> SimThread:
        """Create a thread on ``node_id`` running ``fn(ctx, *args)``.

        ``fn`` must be a generator function taking a
        :class:`~repro.runtime.thread.ThreadCtx` as its first argument.
        """
        from repro.runtime.thread import ThreadCtx

        node = self.nodes[node_id]
        ctx = ThreadCtx(self, node_id)
        gen = fn(ctx, *args)
        thread = node.cpu.spawn(gen, name or getattr(fn, "__name__", "thread"))
        ctx.thread = thread
        return thread

    # ------------------------------------------------------------------
    # Direct memory access for set-up and inspection (no simulated time).
    # ------------------------------------------------------------------
    def poke(self, vaddr: int, value: int) -> None:
        """Write ``value`` into every copy of ``vaddr`` instantly."""
        vpage, offset = divmod(vaddr, self.params.page_words)
        for copy in self.os.copies_of(vpage):
            node = self.nodes[copy.node]
            node.memory.write(copy.page, offset, value)
            node.cache.snoop(copy.page, offset, value)

    def peek(self, vaddr: int) -> int:
        """Read ``vaddr`` from its master copy instantly."""
        vpage, offset = divmod(vaddr, self.params.page_words)
        master = self.os.master_copy(vpage)
        return self.nodes[master.node].memory.read(master.page, offset)

    def peek_copy(self, vaddr: int, node_id: int) -> int:
        """Read ``vaddr`` from the copy held by ``node_id`` (testing aid)."""
        vpage, offset = divmod(vaddr, self.params.page_words)
        copy = self.os.copy_on_node(vpage, node_id)
        if copy is None:
            raise ConfigError(f"node {node_id} holds no copy of page {vpage}")
        return self.nodes[node_id].memory.read(copy.page, offset)

    # ------------------------------------------------------------------
    # Running.
    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: Optional[int] = None,
        max_events: int = 500_000_000,
    ) -> RunReport:
        """Run until every spawned thread finishes; returns the report.

        Raises :class:`DeadlockError` if the event queue drains first and
        :class:`SimulationError` if ``max_cycles`` elapses first.
        """
        self._ran = True
        self.engine.run(until=max_cycles, max_events=max_events)
        unfinished = [line for n in self.nodes for line in n.cpu.blocked_report()]
        if unfinished:
            detail = "\n  ".join(unfinished)
            # The engine clock always ends at max_cycles, so distinguish
            # a timeout (events still queued past the horizon) from a
            # genuine deadlock (the queue drained with threads blocked).
            if (
                max_cycles is not None
                and self.engine.now >= max_cycles
                and self.engine.pending_events > 0
            ):
                raise SimulationError(
                    f"hit max_cycles={max_cycles} with threads unfinished:\n"
                    f"  {detail}"
                )
            # Watchdog: the system went quiescent without completing.
            # On a lossless mesh that is an application-level deadlock;
            # under a fault plan it usually means a message or ack was
            # lost and nothing retried it (the lost-ack deadlock the
            # recovery layer exists to prevent), so name the suspect
            # wire state and recent transcript in the report.
            lines = [
                "event queue drained with threads still blocked:",
                f"  {detail}",
            ]
            if self.fabric.fault_plan is not None:
                stats = self.fabric.stats
                lines.append(
                    f"  fault plan active ({self.fabric.fault_plan.describe()}): "
                    f"{stats.drops} drops, {stats.dups} dups, "
                    f"{stats.retransmits} retransmits — quiescence without "
                    "completion suggests a lost message nobody retried"
                )
                stuck = [
                    line for n in self.nodes for line in n.cm.recovery_report()
                ]
                if stuck:
                    lines.append("  reliable-channel state:")
                    lines.extend(f"    {line}" for line in stuck)
                if self.fabric.fault_plan.has_crashes:
                    down = self.down_nodes
                    epochs = [
                        self.node_epoch(n.node_id) for n in self.nodes
                    ]
                    lines.append(
                        f"  node liveness: "
                        f"{'nodes ' + str(down) + ' down' if down else 'all nodes up'}, "
                        f"epochs={epochs}, "
                        f"{len(self.crash_log)} crash/restart events"
                    )
                    for cycle, nid, event, epoch in self.crash_log[-12:]:
                        lines.append(
                            f"    cycle {cycle}: node {nid} {event} "
                            f"(epoch {epoch})"
                        )
            trace = self.fabric._trace
            raise DeadlockError(
                "\n".join(lines),
                cycle=self.engine.now,
                excerpt=trace.tail() if trace is not None else (),
            )
        return self.report()

    def report(self) -> RunReport:
        """Snapshot of all measurements at the current simulation time."""
        elapsed = self.engine.now
        for node in self.nodes:
            node.finalize_counters(elapsed)
        counters = MachineCounters(nodes=[n.counters for n in self.nodes])
        return RunReport(
            n_nodes=self.n_nodes,
            cycles=elapsed,
            params=self.params,
            counters=counters,
            fabric=self.fabric.stats,
        )
