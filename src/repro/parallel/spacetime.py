"""Space-parallel simulation: one big machine, one engine per mesh region.

The sweep executor parallelizes *independent* runs; this module
parallelizes a *single* large simulation.  The mesh is partitioned into
contiguous row bands ("regions"), each region runs on its own
calendar-queue :class:`~repro.sim.engine.Engine`, and all regions
advance in lock-step **windows** of ``W`` cycles separated by barriers.

Why that is safe (conservative lookahead)
-----------------------------------------
Every cross-region message pays the full mesh latency: at least
``net_fixed_cycles + net_hop_cycles * min_cross_region_hops`` cycles
(= 8 + 4*1 = 12 with the paper's timing), and contention, FIFO floors,
jitter and fault delays only *add* to that.  A message sent in the
window ``[B - W, B)`` therefore arrives at or after ``B - W + L_min``,
which is ``>= B`` whenever ``W <= L_min``.  So with ``W`` at most the
lookahead bound, no message sent during a window can be due inside that
same window on another region — each region can simulate a whole window
in isolation, and the barrier flush delivers everything in time.

The partitioned model
---------------------
A region's fabric (:class:`SpaceFabric`) times every send — including
cross-region ones — against its own *private* link state, then stages
cross-region deliveries per destination region instead of scheduling
them.  At each barrier the driver routes staged messages to their
destination regions, which sort them canonically (by
``(arrival, source region, staging seq)``) and file them into their
calendar queues before running the next window.

This makes the space-partitioned machine its **own deterministic
model**, parameterized by ``(regions, window)``:

* With ``regions=1`` it reduces *exactly* (bit-for-bit: trace, memory,
  clock, message ids) to the plain serial :class:`PlusMachine` — there
  are no cross-region messages, region 0's fabric numbering and rng
  streams are the plain machine's.
* For any region count, the **parallel** execution (the calling
  process steps region 0 and one persistent worker process steps each
  other region, boundary messages codec-packed through shared-memory
  rings) is bit-identical to the **serial in-process** execution of
  the same partitioned model: both drive identical
  :class:`RegionState` objects through identical window steps; only
  the transport differs.  That is the equivalence the test suite checks
  exhaustively.
* ``regions>1`` is *not* bit-identical to the unpartitioned machine:
  the plain fabric resolves link contention globally at send time
  (a zero-latency coupling between all nodes), while the partitioned
  model resolves each region's contention locally.  Both are valid
  timings of the same protocol; every correctness property (oracle,
  invariants, convergence) must — and does — hold for either.

Serialization points and gating
-------------------------------
The barrier itself is the only synchronization; there is no global
event queue.  Features that reach across the machine with zero latency
cannot be partitioned and are rejected up front: competitive
replication, access profiling and live replication/migration (the
setup-time replication used by every workload is fine — it happens
before simulated time starts, identically in every region's build).
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import errors as _errors
from repro.core.params import PAPER_PARAMS, TimingParams
from repro.errors import (
    ConfigError,
    DeadlockError,
    PlusError,
    SimulationError,
)
from repro.machine import PlusMachine
from repro.network.fabric import Fabric, FabricStats
from repro.network.message import Message
from repro.parallel.codec import (
    CODEC_VERSION,
    check_encodable,
    decode_records,
    encode_staged,
)
from repro.runtime.shm import BoundaryRing, _shared_memory
from repro.sim.engine import Engine
from repro.stats.counters import MachineCounters
from repro.stats.report import RunReport
from repro.stats.trace import ProtocolTrace, TraceEntry

__all__ = [
    "SpaceFabric",
    "SpaceMachine",
    "SpaceSpec",
    "SpaceRun",
    "SpaceFleet",
    "RegionState",
    "effective_regions",
    "lookahead_bound",
    "default_window",
    "run_space",
    "memory_checksum",
    "trace_checksum",
]

# ----------------------------------------------------------------------
# Partitioning.
# ----------------------------------------------------------------------
def effective_regions(requested: int, height: int) -> int:
    """Clamp a region request to what the mesh can be banded into.

    Regions are contiguous row bands, so a mesh can host at most
    ``height`` of them; a 4x1 mesh degenerates to one region (which is
    exactly the plain serial machine)."""
    return max(1, min(requested, height))


def partition_rows(height: int, regions: int) -> List[Tuple[int, int]]:
    """Row ranges ``[start, stop)`` per region, as even as possible."""
    return [
        (r * height // regions, (r + 1) * height // regions)
        for r in range(regions)
    ]


def lookahead_bound(params: TimingParams) -> int:
    """The conservative lookahead: minimum cycles any cross-region
    message spends in flight.  Adjacent row bands are one hop apart, so
    the bound is the fixed overhead plus one hop; contention, FIFO
    floors, link jitter and fault delays only increase arrival times."""
    return params.net_fixed_cycles + params.net_hop_cycles


def default_window(params: TimingParams) -> int:
    """The widest safe window: :func:`lookahead_bound` itself (= 12 on
    the paper's timing).  Window placement never shows in the output
    (see ``RegionState.inject_entries``), so the widest window is simply
    the one with the fewest barriers."""
    return lookahead_bound(params)


# ----------------------------------------------------------------------
# The partitioned fabric.
# ----------------------------------------------------------------------
class SpaceFabric(Fabric):
    """A per-region :class:`Fabric` that stages cross-region sends.

    Intra-region traffic takes the base class's unmodified hot path.  A
    cross-region send is routed and timed here — against this region's
    private link states, stamping this region's msg-id residue class —
    but instead of scheduling a delivery it appends
    ``(arrival, staging_seq, message)`` to the destination region's
    staging queue, which the window driver flushes at the next barrier.
    A message the boundary codec cannot carry raises
    :class:`~repro.errors.CodecError` here, at its send cycle,
    whichever driver runs the region.
    """

    def __init__(
        self,
        engine: Engine,
        mesh,
        params: TimingParams,
        *,
        region: int,
        region_of: Sequence[int],
        regions: int,
    ) -> None:
        super().__init__(
            engine, mesh, params, msg_id_base=region, msg_id_step=regions
        )
        self.region = region
        self._region_of = region_of
        #: dst region -> [(arrive, staging seq, msg)] accumulated since
        #: the last barrier flush.
        self._staged: Dict[int, List[Tuple[int, int, Message]]] = {}
        #: Monotonic per-source-fabric staging counter.  Together with
        #: the source region index it gives every staged message a total
        #: order that both drivers reproduce, so destination engines
        #: assign injection sequence numbers identically everywhere.
        self._stage_seq = 0

    # -- the send path -------------------------------------------------
    def send(self, msg: Message) -> int:
        dst = msg.dst
        region_of = self._region_of
        if 0 <= dst < len(region_of) and region_of[dst] != self.region:
            return self._send_cross(msg, dst)
        return Fabric.send(self, msg)

    def _send_cross(self, msg: Message, dst: int) -> int:
        """Route/time/account a cross-region send, then stage it."""
        src = msg.src
        if msg.msg_id < 0:
            msg.msg_id = self._next_msg_id
            self._next_msg_id += self._msg_id_step
        # No receiver: ``_deliver`` stages every surviving copy.
        return self._send_routed(
            msg, None, src, dst, src * self._n_positions + dst
        )

    def _deliver(self, receiver, dst: int, arrive: int, msg: Message) -> None:
        if receiver is None:
            self._stage(dst, arrive, msg)
        else:
            Fabric._deliver(self, receiver, dst, arrive, msg)

    def _stage(self, dst: int, arrive: int, msg: Message) -> None:
        check_encodable(msg)
        seq = self._stage_seq
        self._stage_seq = seq + 1
        dst_region = self._region_of[dst]
        bucket = self._staged.get(dst_region)
        if bucket is None:
            bucket = self._staged[dst_region] = []
        bucket.append((arrive, seq, msg))

    def collect_staged(self) -> Dict[int, List[Tuple[int, int, Message]]]:
        """Drain and return everything staged since the last call."""
        staged = self._staged
        self._staged = {}
        return staged


# ----------------------------------------------------------------------
# The partitioned machine.
# ----------------------------------------------------------------------
class SpaceMachine(PlusMachine):
    """A :class:`PlusMachine` assembled as ``regions`` row-band regions.

    Each region gets its own engine and :class:`SpaceFabric`; every
    node's CM/CPU capture their region's pair at construction.  The
    machine keeps ``self.engine``/``self.fabric`` pointing at the
    *active* region (see :meth:`set_active_region`) so machine-level
    helpers (spawn, poke/peek, monitor install) work per region.

    Features whose hardware reaches across the whole machine with zero
    latency are rejected: the constructor takes no competitive /
    profiling knobs, and live replication ops check
    :attr:`space_regions` (see ``memory/replication.py``).
    """

    def __init__(
        self,
        n_nodes: int,
        params: TimingParams = PAPER_PARAMS,
        width: int = 0,
        height: int = 0,
        snoop_policy: str = "update",
        *,
        regions: int = 2,
        window: int = 0,
        tie_break_rng_factory=None,
    ) -> None:
        if regions < 1:
            raise ConfigError(f"regions must be >= 1 (got {regions})")
        self._requested_regions = regions
        self._window_arg = window
        self._tie_factory = tie_break_rng_factory
        super().__init__(
            n_nodes,
            params=params,
            width=width,
            height=height,
            snoop_policy=snoop_policy,
        )

    # -- assembly hooks ------------------------------------------------
    def _init_simulation(self, tie_break_rng) -> None:
        if tie_break_rng is not None:
            raise ConfigError(
                "SpaceMachine takes tie_break_rng_factory (one rng per "
                "region), not a shared tie_break_rng"
            )
        mesh = self.mesh
        params = self.params
        regions = effective_regions(self._requested_regions, mesh.height)
        bands = partition_rows(mesh.height, regions)
        region_of = [0] * mesh.n_nodes
        for node in range(mesh.n_nodes):
            row = node // mesh.width
            for r, (start, stop) in enumerate(bands):
                if start <= row < stop:
                    region_of[node] = r
                    break
        self.regions = regions
        self.region_bands = bands
        self.region_of = region_of
        window = self._window_arg or default_window(params)
        bound = lookahead_bound(params)
        if window < 1:
            raise ConfigError(f"window must be >= 1 cycle (got {window})")
        if regions > 1 and window > bound:
            raise ConfigError(
                f"window {window} exceeds the conservative lookahead "
                f"bound {bound} (net_fixed_cycles + net_hop_cycles): a "
                "cross-region message could be due before the next "
                "barrier"
            )
        self.window = window
        factory = self._tie_factory
        self.engines = [
            Engine(tie_break_rng=factory(r) if factory is not None else None)
            for r in range(regions)
        ]
        self.fabrics = [
            SpaceFabric(
                self.engines[r],
                mesh,
                params,
                region=r,
                region_of=region_of,
                regions=regions,
            )
            for r in range(regions)
        ]
        self.engine = self.engines[0]
        self.fabric = self.fabrics[0]

    def _bind_node_context(self, node_id: int) -> None:
        self.set_active_region(self.region_of[node_id])

    def set_active_region(self, region: int) -> None:
        """Point ``self.engine``/``self.fabric`` at one region."""
        self.engine = self.engines[region]
        self.fabric = self.fabrics[region]

    @property
    def space_regions(self) -> int:
        """Region count; >1 means cross-machine hardware is gated off."""
        return self.regions

    def region_nodes(self, region: int) -> List:
        """The node objects living in ``region``."""
        return [
            node
            for node in self.nodes
            if self.region_of[node.node_id] == region
        ]

    # -- fault arming --------------------------------------------------
    def install_faults(self, plan):
        """Arm every region's fabric with a region-private fault plan.

        Region 0 keeps ``plan`` itself — so a one-region space machine
        rolls the exact per-send stream of the plain machine — and each
        other region gets a plan derived from the same knobs under a
        region-suffixed seed.  Per-region streams are what make the
        partitioned model deterministic: each region's sends consume its
        own plan in its own engine order, independent of how windows
        interleave the regions.

        A plan with a node crash/restart schedule is rejected: the crash
        scheduler (``PlusMachine._arm_crashes``) reaches across the whole
        machine with zero latency (crash routing, peer-epoch bumps, OS
        repair), which a partitioned machine cannot honor — and this
        override never arms it, so accepting such a plan would silently
        drop the crashes.  Wire-fault-only plans (drops, dups, jitter,
        outages, blackholes) partition fine and are accepted.
        """
        if plan.has_crashes:
            raise ConfigError(
                "node crash/restart faults cannot run on the "
                "space-partitioned machine: the crash scheduler reaches "
                "across regions with zero latency.  Run crash plans on "
                "the plain machine (drop --space-regions), or zero the "
                "crash knobs (e.g. crash_rate=0) to keep the wire "
                "faults space-parallel"
            )
        for r, fabric in enumerate(self.fabrics):
            fabric.install_faults(plan if r == 0 else _region_plan(plan, r))
        for node in self.nodes:
            node.cm.enable_reliability()
        monitor = self.invariant_monitor
        if monitor is not None:
            monitor.fault_plan = self.fabric.fault_plan
        return plan


def _region_plan(plan, region: int):
    """``plan``'s knobs under a region-suffixed seed (see above)."""
    from repro.network.faults import FaultPlan

    return FaultPlan(
        f"{plan.seed}:space:{region}",
        drop_prob=plan.drop_prob,
        dup_prob=plan.dup_prob,
        jitter=plan.jitter,
        outage_rate=plan.outage_rate,
        outage_cycles=plan.outage_cycles,
        blackholes=plan.blackholes,
    )


# ----------------------------------------------------------------------
# Run specification and per-region state.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpaceSpec:
    """Picklable description of one space-parallel run.

    ``builder`` names (``"module:callable"``) a function
    ``builder(region=r, **kwargs) -> SpaceMachine`` that deterministically
    assembles the *whole* machine — layout, faults, threads — identically
    in every process, arming region-local observers (monitor/trace) for
    ``region`` only.  Every region worker and the driver run the same
    builder, which is what makes serial and parallel execution
    structurally identical rather than coincidentally so.
    """

    builder: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    max_events: int = 500_000_000
    max_cycles: Optional[int] = None
    label: str = "space"

    @classmethod
    def make(
        cls,
        builder: str,
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        max_events: int = 500_000_000,
        max_cycles: Optional[int] = None,
        label: str = "space",
    ) -> "SpaceSpec":
        return cls(
            builder=builder,
            kwargs=tuple(sorted((kwargs or {}).items())),
            max_events=max_events,
            max_cycles=max_cycles,
            label=label,
        )

    def build(self, region: int):
        modname, _, attr = self.builder.partition(":")
        if not attr:
            raise ConfigError(
                f"space builder {self.builder!r} must look like "
                "'module:callable'"
            )
        fn = getattr(importlib.import_module(modname), attr)
        machine = fn(region=region, **dict(self.kwargs))
        if not isinstance(machine, SpaceMachine):
            raise ConfigError(
                f"space builder {self.builder!r} must return a "
                f"SpaceMachine (got {type(machine).__name__})"
            )
        return machine


#: A staged cross-region message in driver transit:
#: ``(arrive, src_region, staging_seq, msg)``.  Destination regions sort
#: on the first three fields — a canonical total order both drivers
#: reproduce — before injecting, so engine sequence numbers (and hence
#: same-cycle firing order) come out identical everywhere.
Staged = Tuple[int, int, int, Message]


@dataclass
class StepOutcome:
    """What one region reports back from one window step (picklable)."""

    region: int
    #: Earliest pending event after the window, None if drained.
    next_time: Optional[int]
    #: Events fired during this step (drives the global budget).
    fired: int
    #: Engine.last_live after the step (global clock = max over regions).
    last_live: int
    #: Cross-region messages staged during the window, per dst region.
    #: Empty from ring endpoints, whose staged records travel through
    #: the boundary rings instead of the driver.
    staged: Dict[int, List[Staged]]
    #: ``(exc type name, rendered text, cycle)`` if the window raised.
    #: Worker processes report a ``("", "", cycle)`` placeholder during
    #: the run (error text ships once, in :attr:`RegionHarvest.error`).
    error: Optional[Tuple[str, str, int]] = None
    #: Earliest arrival among messages staged this step, -1 if none.
    #: In-flight messages the destination has not drained yet are
    #: represented in the driver's barrier arithmetic by this value.
    staged_min: int = -1


@dataclass
class RegionHarvest:
    """A region's final state, shippable across a process boundary."""

    region: int
    now: int
    last_live: int
    pending: int
    events_fired: int
    stats: FabricStats
    #: Materialized trace of this region's fabric (monitor or trace).
    entries: List[TraceEntry] = field(default_factory=list)
    applied: Dict[int, int] = field(default_factory=dict)
    trace_dropped: int = 0
    trace_capacity: int = 0
    #: node id -> {local page -> words} for this region's nodes.
    memory: Dict[int, Dict[int, List[int]]] = field(default_factory=dict)
    #: node id -> {local page -> set(offsets)} (invalidate protocol).
    invalid_words: Dict[int, Dict[int, set]] = field(default_factory=dict)
    #: node id -> finalized NodeCounters for this region's nodes.
    counters: Dict[int, Any] = field(default_factory=dict)
    #: ``(node_id, pending, outstanding_chains)`` per region node whose
    #: coherence manager did not drain (the oracle's drain check reads
    #: live CM state, which a harvest-overlaid machine no longer has).
    cm_unsettled: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Blocked-thread report lines of this region's nodes (node order).
    blocked: List[str] = field(default_factory=list)
    #: Reliable-channel stuck-state lines of this region's nodes.
    stuck: List[str] = field(default_factory=list)
    #: ``FaultPlan.describe()`` of this region's fabric, or None.
    fault_desc: Optional[str] = None
    #: The last step's captured error, ``(type name, text, cycle)``.
    error: Optional[Tuple[str, str, int]] = None


class RegionState:
    """One region's live simulation state (driver- or worker-side).

    Both execution modes drive this exact object through the same
    ``step``/``finish`` calls; the serial driver holds ``regions`` of
    them in-process; a parallel run holds region 0's and builds each
    other one inside its own region server process.  Equivalence
    between the modes is therefore structural: same code, same state,
    same inputs per step.  ``machine`` adopts an already-built
    ``spec.build(region)`` instead of building another.
    """

    def __init__(
        self,
        spec: SpaceSpec,
        region: int,
        machine: Optional[SpaceMachine] = None,
    ) -> None:
        self.spec = spec
        self.region = region
        if machine is None:
            machine = spec.build(region)
        machine.set_active_region(region)
        self.machine = machine
        self.engine: Engine = machine.engines[region]
        self.fabric: SpaceFabric = machine.fabrics[region]
        self.nodes = machine.region_nodes(region)
        self.error: Optional[Tuple[str, str, int]] = None

    def initial(self) -> Dict[str, Any]:
        """Pre-run report: clamped region count, window, first event."""
        return {
            "regions": self.machine.regions,
            "window": self.machine.window,
            "next": self.engine._next_time(),
        }

    def inject_entries(self, entries: List[Staged]) -> None:
        """File staged cross-region messages into this region's engine.

        Deliveries land in the engine's *front lane* under their
        canonical ``(source region, staging seq)`` key, so the same
        message holds the same same-cycle rank no matter which barrier
        (or drain round) happened to carry it — the property that makes
        window scheduling and transport choice invisible in the output.
        """
        fabric = self.fabric
        for arrive, src_region, stage_seq, msg in entries:
            fabric.inject(arrive, msg, (src_region, stage_seq))

    def step(
        self, barrier: int, inject: List[Staged], max_events: int
    ) -> StepOutcome:
        """Inject barrier messages, run the window ``[.., barrier)``.

        A :class:`PlusError` raised mid-window (protocol violation from
        a strict monitor, event-budget overrun) is captured, not
        propagated: every region always completes its window step, and
        the driver surfaces the lowest-region error afterwards — the
        same rule in both drivers, so failure output is deterministic.
        """
        self.inject_entries(inject)
        engine = self.engine
        fired0 = engine.events_fired
        error = None
        try:
            engine.run(until=barrier - 1, max_events=max_events)
        except PlusError as exc:
            error = (type(exc).__name__, str(exc), engine.now)
        self.error = error
        region = self.region
        staged: Dict[int, List[Staged]] = {}
        staged_min = -1
        for dst, entries in self.fabric.collect_staged().items():
            staged[dst] = [
                (arrive, region, seq, msg) for (arrive, seq, msg) in entries
            ]
            for arrive, _seq, _msg in entries:
                if staged_min < 0 or arrive < staged_min:
                    staged_min = arrive
        return StepOutcome(
            region=region,
            next_time=engine._next_time() if error is None else None,
            fired=engine.events_fired - fired0,
            last_live=engine.last_live,
            staged=staged,
            error=error,
            staged_min=staged_min,
        )

    def finish(self, elapsed: int) -> RegionHarvest:
        """Finalize counters against the global clock and harvest."""
        machine = self.machine
        engine = self.engine
        fabric = self.fabric
        memory: Dict[int, Dict[int, List[int]]] = {}
        invalid: Dict[int, Dict[int, set]] = {}
        counters: Dict[int, Any] = {}
        unsettled: List[Tuple[int, int, int]] = []
        blocked: List[str] = []
        stuck: List[str] = []
        for node in self.nodes:
            node.finalize_counters(elapsed)
            counters[node.node_id] = node.counters
            node_memory = node.memory
            memory[node.node_id] = {
                page: node_memory.snapshot_page(page)
                for page in node_memory.frames()
            }
            invalid[node.node_id] = {
                page: set(words)
                for page, words in node.cm._invalid_words.items()
                if words
            }
            if not node.cm.idle():
                unsettled.append(
                    (
                        node.node_id,
                        len(node.cm.pending),
                        node.cm.outstanding_chains,
                    )
                )
            blocked.extend(node.cpu.blocked_report())
            stuck.extend(node.cm.recovery_report())
        trace = fabric._trace
        harvest = RegionHarvest(
            region=self.region,
            now=engine.now,
            last_live=engine.last_live,
            pending=engine.pending_events,
            events_fired=engine.events_fired,
            stats=fabric.stats,
            memory=memory,
            invalid_words=invalid,
            counters=counters,
            cm_unsettled=unsettled,
            blocked=blocked,
            stuck=stuck,
            fault_desc=(
                fabric.fault_plan.describe()
                if fabric.fault_plan is not None
                else None
            ),
            error=self.error,
        )
        if trace is not None:
            harvest.entries = list(trace.entries)
            harvest.applied = dict(trace.applied)
            harvest.trace_dropped = trace.dropped
            harvest.trace_capacity = trace.capacity
        return harvest


# ----------------------------------------------------------------------
# Runners: the live-object reference and the ring runner.
# ----------------------------------------------------------------------
#: Canonical staged-entry order: (arrive, src region, staging seq).
#: The first three fields are unique per entry, so the Message itself is
#: never compared.
_STAGED_KEY = itemgetter(0, 1, 2)


def _step_order(
    step_order: Optional[Sequence[int]], local: Sequence[int]
) -> List[int]:
    """The order this process steps its ``local`` regions in: ``local``
    itself, or ``step_order`` if it is a permutation of them."""
    if step_order is None:
        return list(local)
    if sorted(step_order) != sorted(local):
        raise ConfigError(
            f"step_order {step_order!r} is not a permutation of the "
            f"regions this process steps ({list(local)!r})"
        )
    return list(step_order)


class _SerialRunners:
    """All regions in this process, staged messages handed over as live
    objects: the reference every ring execution must match.
    ``step_order`` permutes the order region steps *execute* in
    (results are order-independent — that's the point, and what the
    property tests assert)."""

    def __init__(
        self,
        spec: SpaceSpec,
        first: SpaceMachine,
        step_order: Optional[Sequence[int]] = None,
    ) -> None:
        regions = first.regions
        self.states = [RegionState(spec, 0, first)] + [
            RegionState(spec, r) for r in range(1, regions)
        ]
        self._order = _step_order(step_order, range(regions))
        self._inject: Dict[int, List[Staged]] = {}
        self.stats = {"bytes": 0, "messages": 0, "spill_rounds": 0}

    def prepare_all(self) -> List[Dict[str, Any]]:
        return [state.initial() for state in self.states]

    def step_all(self, barrier: int, max_events: int) -> List[StepOutcome]:
        outcomes: List[Optional[StepOutcome]] = [None] * len(self.states)
        for r in self._order:
            inject = self._inject.pop(r, [])
            inject.sort(key=_STAGED_KEY)
            outcome = self.states[r].step(barrier, inject, max_events)
            for dst, entries in outcome.staged.items():
                self.stats["messages"] += len(entries)
                self._inject.setdefault(dst, []).extend(entries)
            outcomes[r] = outcome
        return outcomes  # type: ignore[return-value]

    def finish_all(self, elapsed: int) -> List[RegionHarvest]:
        return [state.finish(elapsed) for state in self.states]

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# The ring runner: boundary rings between regions, a ring endpoint per
# region, and persistent region servers commanded through a
# shared-memory control block.
# ----------------------------------------------------------------------
#: Default per-direction ring capacity in int64 words (512 KiB).  The
#: driver raises it when the machine's page size could produce a single
#: record near this bound.
_RING_WORDS = 1 << 16


def _ring_words_for(params: TimingParams) -> int:
    """Ring capacity for a machine: the default, or enough to hold many
    of the largest possible record (a PAGE_COPY_DATA message carries a
    whole page of words)."""
    return max(_RING_WORDS, 64 * (params.page_words + 64))


def _split_records(words: List[int]) -> List[List[int]]:
    """Split a codec batch back into whole records (LEN prefixes)."""
    records: List[List[int]] = []
    pos = 0
    total = len(words)
    while pos < total:
        length = words[pos]
        records.append(words[pos : pos + length])
        pos += length
    return records


class _RingEndpoint:
    """One region's side of the boundary rings, in whichever process
    steps it.

    ``rings`` maps ``(src, dst)`` region pairs to rings; the endpoint
    consumes those into its region and produces into the others.
    ``step`` drains every incoming ring into the region's front lane,
    runs the window, then encodes each destination's staged entries as
    one batch and pushes it.  A batch its ring refuses is parked as
    whole records on a spill list, which ``drain_out`` re-pushes as the
    consumer frees space.  Region servers and the calling process run
    this same object, so every ring execution shares one spill policy.
    """

    def __init__(
        self, state: RegionState, rings: Dict[Tuple[int, int], BoundaryRing]
    ) -> None:
        region = state.region
        self.state = state
        self._in = [ring for (_s, d), ring in rings.items() if d == region]
        self._out = {d: ring for (s, d), ring in rings.items() if s == region}
        self._spill: Dict[int, List[List[int]]] = {}
        #: Cumulative words pushed and messages encoded.
        self.words = 0
        self.messages = 0

    def drain_in(self) -> None:
        entries: List[Staged] = []
        for ring in self._in:
            words = ring.drain()
            if words:
                entries.extend(decode_records(words))
        if entries:
            entries.sort(key=_STAGED_KEY)
            self.state.inject_entries(entries)

    def step(self, barrier: int, max_events: int) -> StepOutcome:
        self.drain_in()
        outcome = self.state.step(barrier, [], max_events)
        for dst, entries in outcome.staged.items():
            words: List[int] = []
            for arrive, src_region, seq, msg in entries:
                encode_staged(arrive, src_region, seq, msg, words)
            self.messages += len(entries)
            if self._out[dst].push(words):
                self.words += len(words)
            else:
                self._spill.setdefault(dst, []).extend(
                    _split_records(words)
                )
        outcome.staged = {}
        return outcome

    def drain_out(self) -> None:
        """Re-push spilled records, oldest first, while they fit."""
        for dst, records in list(self._spill.items()):
            ring = self._out[dst]
            while records and ring.push(records[0]):
                self.words += len(records.pop(0))
            if not records:
                del self._spill[dst]
            elif len(records[0]) > ring.capacity:
                raise SimulationError(
                    f"a single staged record of {len(records[0])} words "
                    f"exceeds the boundary ring capacity {ring.capacity}"
                )

    @property
    def spilled(self) -> int:
        """Encoded words still waiting for ring space."""
        return sum(len(rec) for recs in self._spill.values() for rec in recs)


#: Control-block slots per region (int64 words).
_CTL_SLOTS = 13
_S_CMD_SEQ = 0     # driver: bumped last, after the args below
_S_CMD = 1         # driver: one of the _CMD_* codes
_S_ARG0 = 2        # driver: barrier (STEP) / elapsed (FINISH)
_S_ARG1 = 3        # driver: event budget (STEP)
_S_ACK = 4         # worker: echoes CMD_SEQ when the command is done
_S_NEXT = 5        # worker: next pending event time, -1 for none
_S_FIRED = 6       # worker: events fired this step (prepare: regions)
_S_LAST_LIVE = 7   # worker: engine.last_live (prepare: window)
_S_STAGED_MIN = 8  # worker: earliest arrival staged this step, -1
_S_ERR = 9         # worker: cycle of the step's captured error, -1
_S_SPILL = 10      # worker: encoded words awaiting ring space
_S_WORDS = 11      # worker: cumulative words pushed through rings
_S_MSGS = 12       # worker: cumulative messages encoded

_CMD_STEP = 1
_CMD_DRAIN_IN = 2   # consumers: drain + inject every incoming ring
_CMD_DRAIN_OUT = 3  # producers: flush spilled records into freed rings
_CMD_FINISH = 4
_CMD_ABORT = 5      # return without harvesting (driver is bailing out)


class _ControlBlock:
    """``regions`` * ``_CTL_SLOTS`` int64 slots of shared memory.

    The barrier protocol is a per-region seqlock: the driver writes a
    command's args, then its code, then bumps ``CMD_SEQ`` *last*; the
    worker spins on ``CMD_SEQ``, acts, publishes its result slots, and
    echoes the sequence number into ``ACK`` last.  Neither side issues
    or acknowledges a new command before the previous exchange
    completes, so every slot has exactly one writer at any moment.
    """

    def __init__(self, shm, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._words = shm.buf.cast("q")

    @classmethod
    def create(cls, regions: int) -> "_ControlBlock":
        if _shared_memory is None:  # pragma: no cover
            raise ConfigError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; run the serial space driver (jobs=1)"
            )
        shm = _shared_memory.SharedMemory(
            create=True, size=8 * _CTL_SLOTS * regions
        )
        block = cls(shm, owner=True)
        for r in range(regions):
            # Sequence numbers are strictly increasing from 1 (the
            # prepare handshake); a worker must never mistake the
            # (zero-filled) fresh block for a command.
            block.put(r, _S_CMD_SEQ, 1)
        return block

    @classmethod
    def attach(cls, name: str) -> "_ControlBlock":
        return cls(_shared_memory.SharedMemory(name=name), owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def get(self, region: int, slot: int) -> int:
        return self._words[region * _CTL_SLOTS + slot]

    def put(self, region: int, slot: int, value: int) -> None:
        self._words[region * _CTL_SLOTS + slot] = value

    def close(self, unlink: bool = False) -> None:
        words = self._words
        self._words = None
        if words is not None:
            words.release()
        self._shm.close()
        if unlink and self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass


def _spin_wait(ready, poll=None):
    """Spin until ``ready()`` returns non-None, then return that value.

    Barrier waits are typically microseconds (every region runs the
    same window), so spin a short burst first, then back off to 1 ms
    sleeps; ``poll`` (worker-crash detection) runs once per sleep."""
    for _ in range(256):
        value = ready()
        if value is not None:
            return value
    delay = 20e-6
    while True:
        value = ready()
        if value is not None:
            return value
        if poll is not None:
            poll()
        time.sleep(delay)
        delay = min(delay * 2, 1e-3)


def _worker_serve(
    *,
    spec: SpaceSpec,
    region: int,
    control: str,
    rings: Dict[Tuple[int, int], str],
):
    """One region's long-lived server loop (runs as a single SweepTask).

    Builds the region once, then serves STEP / DRAIN / FINISH commands
    from the control block through the region's :class:`_RingEndpoint`
    until the run ends — region state, engine and fabric stay warm in
    this process across every window, and across runs when the pool
    itself is a persistent :class:`SpaceFleet`.  Returns the harvest:
    a step's error text (unbounded, so it cannot live in a fixed shm
    slot) ships once, at the end, through the task-result path instead
    of the barrier path.
    """
    ctl = _ControlBlock.attach(control)
    attached: Dict[Tuple[int, int], BoundaryRing] = {}
    try:
        for pair, name in rings.items():
            if region in pair:
                attached[pair] = BoundaryRing.attach(name, CODEC_VERSION)
        state = RegionState(spec, region)
        endpoint = _RingEndpoint(state, attached)
        info = state.initial()
        nxt = info["next"]
        ctl.put(region, _S_NEXT, -1 if nxt is None else nxt)
        ctl.put(region, _S_FIRED, info["regions"])
        ctl.put(region, _S_LAST_LIVE, info["window"])
        ctl.put(region, _S_ACK, 1)
        last_seq = 1
        while True:
            seq = _spin_wait(
                lambda: (
                    s
                    if (s := ctl.get(region, _S_CMD_SEQ)) > last_seq
                    else None
                )
            )
            cmd = ctl.get(region, _S_CMD)
            if cmd == _CMD_STEP:
                outcome = endpoint.step(
                    ctl.get(region, _S_ARG0), ctl.get(region, _S_ARG1)
                )
                nxt = outcome.next_time
                ctl.put(region, _S_NEXT, -1 if nxt is None else nxt)
                ctl.put(region, _S_FIRED, outcome.fired)
                ctl.put(region, _S_LAST_LIVE, outcome.last_live)
                ctl.put(region, _S_STAGED_MIN, outcome.staged_min)
                error = outcome.error
                ctl.put(region, _S_ERR, -1 if error is None else error[2])
            elif cmd == _CMD_DRAIN_IN:
                endpoint.drain_in()
            elif cmd == _CMD_DRAIN_OUT:
                endpoint.drain_out()
            elif cmd == _CMD_FINISH:
                harvest = state.finish(ctl.get(region, _S_ARG0))
                ctl.put(region, _S_ACK, seq)
                return harvest
            elif cmd == _CMD_ABORT:
                ctl.put(region, _S_ACK, seq)
                return None
            else:  # pragma: no cover - protocol corruption
                raise SimulationError(
                    f"space region {region} received unknown command {cmd}"
                )
            ctl.put(region, _S_SPILL, endpoint.spilled)
            ctl.put(region, _S_WORDS, endpoint.words)
            ctl.put(region, _S_MSGS, endpoint.messages)
            ctl.put(region, _S_ACK, seq)
            last_seq = seq
    finally:
        for ring in attached.values():
            ring.close()
        ctl.close()


class SpaceFleet:
    """A persistent pool of region-server workers, reusable across runs.

    ``repro serve --space-jobs N`` keeps one of these warm so repeated
    space-parallel requests skip process spawn and import warm-up;
    :func:`run_space` borrows it (``fleet=...``) for one run and leaves
    its workers idle-but-alive afterwards.  ``jobs`` counts processes
    the way ``run_space`` does — the calling process steps region 0 —
    so the pool holds ``jobs - 1`` workers, and grows to the largest
    region count it has ever served less one (every region but region 0
    needs its own *simultaneous* worker — fewer would deadlock the
    barrier).
    """

    def __init__(self, jobs: int = 0) -> None:
        self.jobs = jobs
        self._pool = None
        self._size = 0

    def ensure(self, regions: int):
        """A live pool with a worker for every region but region 0."""
        from repro.parallel.executor import WorkerPool

        need = max(regions - 1, self.jobs - 1, 1)
        if self._pool is None or self._size < need:
            if self._pool is not None:
                self._pool.shutdown(cancel_pending=True)
            self._pool = WorkerPool(need)
            self._size = need
        return self._pool

    def reset(self) -> None:
        """Discard the pool (next run rebuilds it): the escape hatch
        when an aborted run may have left servers mid-protocol."""
        if self._pool is not None:
            self._pool.shutdown(cancel_pending=True)
            self._pool = None
            self._size = 0

    def shutdown(self) -> None:
        self.reset()

    def __enter__(self) -> "SpaceFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class _ShmRunners:
    """The ring runner: staged messages cross regions as codec records
    through one :class:`BoundaryRing` per ordered region pair.

    This process steps its *local* regions itself, each through a
    :class:`_RingEndpoint`.  With ``jobs >= 2`` region 0 is the only
    local region, and every other region runs :func:`_worker_serve` as
    a single long task on a (possibly shared) :class:`SpaceFleet` pool,
    commanded through a :class:`_ControlBlock`: R regions use R
    processes, and after the initial spec shipment nothing on the
    barrier path pickles.  With ``jobs <= 1`` every region is local,
    stepped in ``step_order``: no workers and no control block, the
    same bytes through the same rings.
    """

    def __init__(
        self,
        spec: SpaceSpec,
        first: SpaceMachine,
        jobs: int,
        ring_words: int,
        step_order: Optional[Sequence[int]] = None,
        fleet: Optional[SpaceFleet] = None,
    ) -> None:
        from repro.parallel.tasks import SweepTask

        regions = first.regions
        self.regions = regions
        self.stats = {"bytes": 0, "messages": 0, "spill_rounds": 0}
        self._remote = list(range(1, regions)) if jobs >= 2 else []
        self._order = _step_order(
            step_order, [0] if self._remote else range(regions)
        )
        self._own_fleet = fleet is None
        self._fleet = fleet if fleet is not None else SpaceFleet()
        self._ctl: Optional[_ControlBlock] = None
        self._futures: List[Any] = []
        self._seq = 1
        self._rings: Dict[Tuple[int, int], BoundaryRing] = {}
        try:
            for s in range(regions):
                for d in range(regions):
                    if s != d:
                        self._rings[(s, d)] = BoundaryRing.create(
                            ring_words, CODEC_VERSION
                        )
            self._local = {
                r: _RingEndpoint(
                    RegionState(spec, r, first if r == 0 else None),
                    self._rings,
                )
                for r in self._order
            }
            if self._remote:
                self._ctl = _ControlBlock.create(regions)
                pool = self._fleet.ensure(regions)
            for r in self._remote:
                task = SweepTask.make(
                    r,
                    "repro.parallel.spacetime:_worker_serve",
                    {
                        "spec": spec,
                        "region": r,
                        "control": self._ctl.name,
                        "rings": {
                            pair: ring.name
                            for pair, ring in self._rings.items()
                        },
                    },
                    label=f"{spec.label}:r{r}:serve",
                )
                self._futures.append(pool.submit(task))
        except BaseException:
            self.close()
            raise

    # -- protocol ------------------------------------------------------
    def _poll(self, finishing: bool = False) -> None:
        """A server future resolving before FINISH means its worker died
        or its region build raised — surface it instead of spinning.
        During the FINISH exchange itself (``finishing=True``) clean
        completions are the expected outcome; only failures raise."""
        for future in self._futures:
            if future.done():
                result = future.result()
                if finishing and result.ok:
                    continue
                raise SimulationError(
                    f"space region worker exited mid-run "
                    f"({result.label}): "
                    f"{result.error or 'unexpected completion'}"
                )

    def _issue(self, cmd: int, arg0: int = 0, arg1: int = 0) -> int:
        seq = self._seq = self._seq + 1
        ctl = self._ctl
        for r in self._remote:
            ctl.put(r, _S_ARG0, arg0)
            ctl.put(r, _S_ARG1, arg1)
            ctl.put(r, _S_CMD, cmd)
            ctl.put(r, _S_CMD_SEQ, seq)  # published last (seqlock)
        return seq

    def _each(self, cmd: int, local, arg0: int = 0, arg1: int = 0) -> list:
        """Issue ``cmd`` to every worker, apply ``local`` to each local
        endpoint meanwhile, then wait for the workers' acks.  Returns
        the local results, indexed by region."""
        seq = self._issue(cmd, arg0, arg1)
        results: list = [None] * self.regions
        for r in self._order:
            results[r] = local(self._local[r])
        self._wait_acks(seq, finishing=cmd == _CMD_FINISH)
        return results

    def _wait_acks(self, seq: int, finishing: bool = False) -> None:
        ctl = self._ctl
        for r in self._remote:
            _spin_wait(
                lambda r=r: True if ctl.get(r, _S_ACK) == seq else None,
                poll=lambda: self._poll(finishing),
            )

    def prepare_all(self) -> List[Dict[str, Any]]:
        prep: List[Any] = [None] * self.regions
        for r in self._order:
            prep[r] = self._local[r].state.initial()
        self._wait_acks(1)  # workers ack their build with sequence 1
        ctl = self._ctl
        for r in self._remote:
            nxt = ctl.get(r, _S_NEXT)
            prep[r] = {
                "regions": ctl.get(r, _S_FIRED),
                "window": ctl.get(r, _S_LAST_LIVE),
                "next": None if nxt < 0 else nxt,
            }
        return prep

    def step_all(self, barrier: int, max_events: int) -> List[StepOutcome]:
        outcomes = self._each(
            _CMD_STEP,
            lambda endpoint: endpoint.step(barrier, max_events),
            barrier,
            max_events,
        )
        # A full ring leaves encoded words spilled at the producer.
        # Alternate "consumers drain+inject" / "producers flush" rounds
        # until everything landed: each flush moves >= one record (or a
        # whole freed ring's worth), so the loop terminates.
        ctl = self._ctl
        while any(e.spilled for e in self._local.values()) or any(
            ctl.get(r, _S_SPILL) for r in self._remote
        ):
            self.stats["spill_rounds"] += 1
            self._each(_CMD_DRAIN_IN, _RingEndpoint.drain_in)
            self._each(_CMD_DRAIN_OUT, _RingEndpoint.drain_out)
        for r in self._remote:
            nxt = ctl.get(r, _S_NEXT)
            err = ctl.get(r, _S_ERR)
            outcomes[r] = StepOutcome(
                region=r,
                next_time=None if nxt < 0 else nxt,
                fired=ctl.get(r, _S_FIRED),
                last_live=ctl.get(r, _S_LAST_LIVE),
                staged={},
                error=None if err < 0 else ("", "", err),
                staged_min=ctl.get(r, _S_STAGED_MIN),
            )
        return outcomes

    def finish_all(self, elapsed: int) -> List[RegionHarvest]:
        ctl = self._ctl
        stats = self.stats
        for endpoint in self._local.values():
            stats["bytes"] += 8 * endpoint.words
            stats["messages"] += endpoint.messages
        for r in self._remote:
            stats["bytes"] += 8 * ctl.get(r, _S_WORDS)
            stats["messages"] += ctl.get(r, _S_MSGS)
        harvests = [
            harvest
            for harvest in self._each(
                _CMD_FINISH,
                lambda endpoint: endpoint.state.finish(elapsed),
                elapsed,
            )
            if harvest is not None
        ]
        for r, future in zip(self._remote, self._futures):
            result = future.result(timeout=60)
            if not result.ok:
                raise SimulationError(
                    f"space region worker failed ({result.label}): "
                    f"{result.error}"
                )
            harvests.append(result.value)
        self._futures = []
        return harvests

    def close(self) -> None:
        try:
            if self._own_fleet:
                self._fleet.shutdown()
            elif self._futures:
                # Shared fleet and the run is bailing out: tell the
                # servers to return so their workers go back to idle; a
                # server that will not come back poisons the pool, so
                # rebuild it rather than leak a wedged protocol.
                try:
                    self._issue(_CMD_ABORT)
                    for future in self._futures:
                        future.result(timeout=10)
                except BaseException:
                    self._fleet.reset()
        finally:
            if self._ctl is not None:
                self._ctl.close(unlink=True)
                self._ctl = None
            for ring in self._rings.values():
                ring.close(unlink=True)
            self._rings.clear()


# ----------------------------------------------------------------------
# The window driver.
# ----------------------------------------------------------------------
@dataclass
class SpaceRun:
    """Outcome of one space-parallel run."""

    spec: SpaceSpec
    regions: int
    window: int
    #: End-of-run clock: max over regions of the last live cycle (or
    #: ``max_cycles`` when a horizon was given — matching the plain
    #: engine's ``run(until=...)`` clamp), or the raise cycle on error.
    clock: int = 0
    harvests: List[RegionHarvest] = field(default_factory=list)
    #: Reconstructed error (same type and text as the plain machine
    #: would raise), or None for a clean drain.
    error: Optional[PlusError] = None
    error_region: int = -1
    #: Driver metrics: barrier count and wall-clock spent inside
    #: barriers, codec bytes and staged messages moved, spill rounds.
    #: Never part of :func:`run_checksums` — wall time is not output.
    transport: Dict[str, Any] = field(default_factory=dict)

    # -- aggregates ----------------------------------------------------
    @property
    def messages(self) -> int:
        return sum(h.stats.total_messages for h in self.harvests)

    @property
    def events_fired(self) -> int:
        return sum(h.events_fired for h in self.harvests)

    def merged_stats(self) -> FabricStats:
        total = FabricStats()
        for h in self.harvests:
            stats = h.stats
            for i, n in enumerate(stats._kind_counts):
                total._kind_counts[i] += n
            total.total_messages += stats.total_messages
            total.total_hops += stats.total_hops
            total.total_bytes += stats.total_bytes
            total.drops += stats.drops
            total.dups += stats.dups
            total.retransmits += stats.retransmits
            total.recovered += stats.recovered
        return total

    def merged_trace(self) -> ProtocolTrace:
        """All regions' trace entries in one global-time order.

        Entries merge on ``(time, region, position)``: within a region
        the trace is already time-sorted (record time is the engine
        clock), and cross-region causality never needs a finer tie-break
        — any causally-ordered pair of entries is separated by at least
        the lookahead bound.  The merged ``applied`` map is keyed by
        globally-unique msg ids (region residue classes), canonically
        ordered.
        """
        trace = ProtocolTrace(
            capacity=sum(h.trace_capacity for h in self.harvests)
            or 100_000
        )
        streams = [
            [(e.time, h.region, i, e) for i, e in enumerate(h.entries)]
            for h in self.harvests
        ]
        trace._entries = [item[3] for item in heapq.merge(*streams)]
        trace._count = len(trace._entries)
        applied: Dict[int, int] = {}
        for h in self.harvests:
            applied.update(h.applied)
        trace.applied = dict(sorted(applied.items()))
        trace.dropped = sum(h.trace_dropped for h in self.harvests)
        return trace

    def raise_if_error(self) -> None:
        if self.error is not None:
            raise self.error

    # -- reconciliation ------------------------------------------------
    def overlay(self, machine: SpaceMachine) -> SpaceMachine:
        """Overlay the harvested end state onto a freshly-built machine.

        ``machine`` must come from the run's own builder (same layout).
        Per-node memory frames and invalidated-word sets are replaced by
        the harvested state and ``machine.engine`` becomes a drained
        view at the global clock, which is everything the coherence
        oracle reads.
        """
        for harvest in self.harvests:
            for node_id, frames in harvest.memory.items():
                node = machine.nodes[node_id]
                for page, words in frames.items():
                    node.memory.load_page(page, words)
            for node_id, pages in harvest.invalid_words.items():
                cm = machine.nodes[node_id].cm
                cm._invalid_words.clear()
                for page, words in pages.items():
                    cm._invalid_words[page] = set(words)
        machine.engine = _EngineView(
            now=self.clock,
            pending_events=sum(h.pending for h in self.harvests),
        )
        return machine

    def report(self, params: TimingParams) -> RunReport:
        """Machine-level run report assembled from the harvests.

        ``params`` are the machine's timing params (the caller built the
        machine, so it holds them); everything else comes from the
        harvests, making this equivalent to ``machine.report()`` on the
        whole partitioned machine.
        """
        counters: Dict[int, Any] = {}
        for harvest in self.harvests:
            counters.update(harvest.counters)
        machine_counters = MachineCounters(
            nodes=[counters[i] for i in sorted(counters)]
        )
        return RunReport(
            n_nodes=len(counters),
            cycles=self.clock,
            params=params,
            counters=machine_counters,
            fabric=self.merged_stats(),
        )


class _EngineView:
    """A drained engine facade for the oracle (now + pending only)."""

    def __init__(self, now: int, pending_events: int) -> None:
        self.now = now
        self.pending_events = pending_events


def _rebuild_error(type_name: str, text: str) -> PlusError:
    """Reconstruct a worker-raised :class:`PlusError` by type name.

    ``PlusError.__init__`` re-renders its message (tags, excerpt), so a
    faithful reconstruction must bypass it: allocate the class and seed
    ``Exception`` with the already-rendered text, making
    ``f"{type(e).__name__}: {e}"`` byte-identical to the original.
    """
    cls = getattr(_errors, type_name, None)
    if not (isinstance(cls, type) and issubclass(cls, PlusError)):
        cls = SimulationError
    exc = cls.__new__(cls)
    Exception.__init__(exc, text)
    # The context attributes PlusError.__init__ would have set; the
    # original values are baked into the rendered text.
    exc.cycle = None
    exc.node = None
    exc.msg = None
    exc.excerpt = ()
    return exc


def run_space(
    spec: SpaceSpec,
    jobs: int = 1,
    *,
    step_order: Optional[Sequence[int]] = None,
    transport: str = "memory",
    fleet: Optional[SpaceFleet] = None,
) -> SpaceRun:
    """Drive one space-partitioned run to completion.

    ``jobs <= 1`` executes every region in this process (the serial
    reference); ``jobs >= 2`` steps region 0 in this process and pins
    every other region to its own persistent worker process — R
    regions, R processes — exchanging staged messages as codec records
    through shared-memory boundary rings.  Both run the identical window
    protocol over identical :class:`RegionState` objects, so their
    outputs are byte-identical — the space test suite's central claim.
    Every window is :attr:`SpaceMachine.window` cycles wide.

    ``step_order`` and ``transport`` apply to the serial driver only:
    ``step_order`` permutes the order regions step in, and
    ``transport="shm"`` moves staged messages through real boundary
    rings as codec bytes instead of handing over live objects
    (``"memory"``): the parallel runner with no workers, so one process
    reproduces exactly what the worker processes exchange.

    ``fleet`` lends a persistent :class:`SpaceFleet` whose warm worker
    processes survive this run (``repro serve``); by default the run
    spins up and retires its own workers.
    """
    if transport not in ("memory", "shm"):
        raise ConfigError(
            f"unknown in-process space transport {transport!r} "
            "(choose memory or shm)"
        )
    # Region 0's machine: read the partition off it, then step it.
    first = spec.build(0)
    regions = first.regions
    window = first.window
    if jobs <= 1 and transport == "memory":
        runners = _SerialRunners(spec, first, step_order)
    else:
        runners = _ShmRunners(
            spec,
            first,
            jobs,
            _ring_words_for(first.params),
            step_order=step_order,
            fleet=fleet,
        )

    run = SpaceRun(spec=spec, regions=regions, window=window)
    try:
        prep = runners.prepare_all()
        for r, info in enumerate(prep):
            if info["regions"] != regions or info["window"] != window:
                raise SimulationError(
                    f"region {r} built a different partition "
                    f"({info['regions']}/{info['window']} vs "
                    f"{regions}/{window}): the builder is not "
                    "deterministic across processes"
                )
        next_times: List[Optional[int]] = [p["next"] for p in prep]
        #: Per-region earliest arrival staged at the last barrier, -1
        #: if none.  Staged messages live in transit (driver map or
        #: boundary ring) until the destination's next step injects
        #: them, so these values stand in for them in the global-min
        #: computation; after that step the destination's own
        #: next_time covers them.
        staged_mins: List[int] = []
        remaining = spec.max_events
        max_cycles = spec.max_cycles
        clock = 0
        failed: Optional[StepOutcome] = None
        hit_horizon = False
        barriers = 0
        barrier_wall = 0.0
        while True:
            candidates = [t for t in next_times if t is not None]
            candidates.extend(m for m in staged_mins if m >= 0)
            if not candidates:
                break
            t0 = min(candidates)
            if max_cycles is not None and t0 > max_cycles:
                hit_horizon = True
                break
            # Windows are aligned at multiples of W; skip straight to
            # the window holding the globally-earliest pending event
            # (empty windows would otherwise cost a barrier each).
            barrier = (t0 // window + 1) * window
            if max_cycles is not None:
                barrier = min(barrier, max_cycles + 1)
            wall0 = time.perf_counter()
            outcomes = runners.step_all(barrier, remaining)
            barrier_wall += time.perf_counter() - wall0
            barriers += 1
            staged_mins = []
            for outcome in outcomes:
                next_times[outcome.region] = outcome.next_time
                if outcome.last_live > clock:
                    clock = outcome.last_live
                remaining -= outcome.fired
                staged_mins.append(outcome.staged_min)
            # Outcomes come in region order: the lowest region's error
            # wins, under every runner.
            failed = next((o for o in outcomes if o.error is not None), None)
            if failed is not None:
                break
        if failed is not None:
            clock = failed.error[2]
        elif max_cycles is not None:
            # The plain engine's run(until=max_cycles) clamps the clock
            # to the horizon even when the queue drained earlier.
            clock = max_cycles
        run.clock = clock
        run.harvests = runners.finish_all(clock)
        run.harvests.sort(key=lambda h: h.region)
        run.transport = {
            "barriers": barriers,
            "barrier_wall_s": barrier_wall,
            **runners.stats,
        }
        if failed is not None:
            run.error_region = failed.region
            # Worker outcomes carry a placeholder during the run; the
            # full text ships once, with the harvest.
            type_name, text, _cycle = run.harvests[failed.region].error
            run.error = _rebuild_error(type_name, text)
            return run
        blocked = [line for h in run.harvests for line in h.blocked]
        if blocked:
            detail = "\n  ".join(blocked)
            if hit_horizon:
                run.error = SimulationError(
                    f"hit max_cycles={max_cycles} with threads "
                    f"unfinished:\n  {detail}"
                )
                return run
            # Deadlock watchdog, mirroring PlusMachine.run byte for
            # byte (same wording, same fault-plan and stuck-channel
            # detail, same trace-tail excerpt).
            lines = [
                "event queue drained with threads still blocked:",
                f"  {detail}",
            ]
            fault_desc = run.harvests[0].fault_desc
            if fault_desc is not None:
                stats = run.merged_stats()
                lines.append(
                    f"  fault plan active ({fault_desc}): "
                    f"{stats.drops} drops, {stats.dups} dups, "
                    f"{stats.retransmits} retransmits — quiescence without "
                    "completion suggests a lost message nobody retried"
                )
                stuck = [line for h in run.harvests for line in h.stuck]
                if stuck:
                    lines.append("  reliable-channel state:")
                    lines.extend(f"    {line}" for line in stuck)
            tail = run.merged_trace().tail() if any(
                h.trace_capacity for h in run.harvests
            ) else ()
            run.error = DeadlockError(
                "\n".join(lines), cycle=clock, excerpt=tail
            )
        return run
    finally:
        runners.close()


# ----------------------------------------------------------------------
# Checksums (bit-identity assertions for tests and benchmarks).
# ----------------------------------------------------------------------
def memory_checksum(harvests: Sequence[RegionHarvest]) -> str:
    """Digest of every node's final memory words + invalid-word sets."""
    digest = hashlib.sha256()
    for harvest in sorted(harvests, key=lambda h: h.region):
        for node_id in sorted(harvest.memory):
            frames = harvest.memory[node_id]
            for page in sorted(frames):
                digest.update(
                    f"n{node_id}p{page}:{frames[page]}".encode()
                )
            invalid = harvest.invalid_words.get(node_id, {})
            for page in sorted(invalid):
                digest.update(
                    f"n{node_id}i{page}:{sorted(invalid[page])}".encode()
                )
    return digest.hexdigest()


def trace_checksum(entries: Sequence[TraceEntry]) -> str:
    """Digest of a (merged) trace's full formatted transcript."""
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(entry.describe().encode())
        digest.update(b"\n")
    return digest.hexdigest()


def run_checksums(run: SpaceRun) -> Dict[str, Any]:
    """The bit-identity tuple tests and benchmarks compare."""
    return {
        "clock": run.clock,
        "messages": run.messages,
        "events": run.events_fired,
        "bytes": run.merged_stats().total_bytes,
        "hops": run.merged_stats().total_hops,
        "memory": memory_checksum(run.harvests),
        "trace": trace_checksum(run.merged_trace().entries),
        "error": (
            f"{type(run.error).__name__}: {run.error}"
            if run.error is not None
            else None
        ),
    }
