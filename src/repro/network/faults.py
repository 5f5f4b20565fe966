"""Seeded, deterministic fault injection for the mesh fabric.

The PLUS paper assumes the Caltech mesh delivers every message exactly
once; this module drops that assumption so the recovery layer in the
coherence manager (:mod:`repro.core.reliable`) has something to recover
from.  A :class:`FaultPlan` installed on the fabric is consulted once
per ``Fabric.send`` and decides, deterministically from the plan's seed,
what the wire does to the message:

* **drop** — the message silently disappears (probability ``drop_prob``
  per send, plus every message addressed to a ``blackholes`` node).
* **duplicate** — a second copy of the message is delivered a little
  later (probability ``dup_prob``).
* **reorder-within-jitter** — each delivered copy is held up to
  ``jitter`` extra cycles *outside* the fabric's FIFO-ordering floor, so
  same-pair messages can genuinely arrive out of order (bounded by the
  jitter amplitude).  With faults off the fabric preserves strict
  point-to-point FIFO; under a plan the sequence numbers of the reliable
  sublayer restore order above the wire.
* **transient link outages** — each directed mesh link alternates
  between long up periods (exponentially distributed with rate
  ``outage_rate`` per cycle) and down windows of ``outage_cycles``;
  every message whose route crosses a down link at send time is lost.
* **node crashes** — whole nodes die and restart.  A crash schedule per
  node (``crash_rate`` / ``crash_down_cycles``, or explicit targeted
  ``crashes`` windows) is consumed by the machine's crash driver, not by
  ``Fabric.send``: a crash atomically discards the node's volatile state
  (CPU threads, cache, CM queues, reliable-layer windows) and a restart
  bumps the node's crash epoch so peers re-handshake instead of
  resurrecting pre-crash traffic.  The ``durability`` knob decides
  whether the node's local memory pages survive the crash ("preserve")
  or come back zeroed ("scrub").

Every random stream is derived from the plan's seed alone — the per-send
stream from ``seed``, each link's outage schedule from ``(seed, link)``
and each node's crash schedule from ``(seed, node)`` — so a faulty run
replays exactly, independent of how many links or nodes are queried or
in what order.

Outage schedules live in a dense list indexed by the topology's integer
link ids (the fabric binds its topology at install time), and
:meth:`FaultPlan.judge` walks the dimension-order route arithmetically
— the same step plan the link model times — so a faulty send never
materializes a link list.  A schedule's RNG stream is still named after
its ``(from, to)`` tuple, recovered with ``Topology.link_of``.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.network.message import Message
from repro.network.topology import Link, Topology

#: What the wire did to one send: "sent" (delivered, possibly late),
#: "sent+dup" (delivered twice), "drop" (random loss) or "outage" (a
#: link on the route was down, or the destination is blackholed).
Fate = str


class _LinkOutages:
    """Lazy up/down schedule of one directed link.

    Windows are generated on demand from a link-private RNG: alternating
    exponentially-distributed up gaps and fixed-length down windows.
    Queries must come with non-decreasing ``now`` (simulation time only
    moves forward), which lets the schedule advance a cursor instead of
    storing the whole timeline.
    """

    __slots__ = ("_rng", "_rate", "_length", "start", "end")

    def __init__(self, rng: random.Random, rate: float, length: int) -> None:
        self._rng = rng
        self._rate = rate
        self._length = length
        self.start = 1 + int(rng.expovariate(rate))
        self.end = self.start + length

    def down(self, now: int) -> bool:
        while now > self.end:
            gap = 1 + int(self._rng.expovariate(self._rate))
            self.start = self.end + gap
            self.end = self.start + self._length
        return self.start <= now

    def windows_until(self, horizon: int) -> List[Tuple[int, int]]:
        """The outage windows starting before ``horizon`` (diagnostics).

        Consumes the schedule up to ``horizon``; meant for inspection in
        tests, not for use alongside live ``down()`` queries.
        """
        windows = []
        while self.start < horizon:
            windows.append((self.start, self.end))
            self.down(self.end + 1)
        return windows


class _NodeCrashes:
    """Lazy crash/restart schedule of one node.

    Same shape as :class:`_LinkOutages`: alternating exponentially
    distributed up gaps and fixed-length down windows, generated on
    demand from a node-private RNG.  The machine's crash driver walks
    the windows with :meth:`advance` (crash at ``start``, restart at
    ``end``), so unlike link outages the schedule is consumed by
    scheduled events rather than per-send queries.
    """

    __slots__ = ("_rng", "_rate", "_length", "start", "end")

    def __init__(self, rng: random.Random, rate: float, length: int) -> None:
        self._rng = rng
        self._rate = rate
        self._length = length
        self.start = 1 + int(rng.expovariate(rate))
        self.end = self.start + length

    def advance(self) -> None:
        """Move the cursor to the next crash window."""
        gap = 1 + int(self._rng.expovariate(self._rate))
        self.start = self.end + gap
        self.end = self.start + self._length


#: Memory durability across a crash: "preserve" keeps the node's local
#: pages intact through the down window (battery-backed memory);
#: "scrub" zeroes every local frame on restart (cold boot).
DURABILITY_MODES = ("preserve", "scrub")


class FaultPlan:
    """Deterministic per-send fault decisions for one run.

    All probabilities are per ``Fabric.send`` call (retransmissions roll
    again — the wire does not know a retry from a fresh message).
    ``blackholes`` lists node ids whose *inbound* messages always drop:
    a scheduled, targeted fault used to prove the retry budget surfaces
    :class:`~repro.errors.NodeUnreachable` instead of hanging.

    ``crash_rate`` / ``crash_down_cycles`` give every node a seeded
    crash/restart schedule; ``crashes`` adds explicit targeted windows
    as ``(node, at_cycle, down_cycles)`` triples (the ``--crash-node``
    CLI path).  Crash decisions use per-node RNG streams that never
    touch the shared per-send stream, so enabling crashes does not
    perturb drop/dup/jitter decisions (and a zero-crash plan is
    bit-identical to one without the knobs).
    """

    def __init__(
        self,
        seed: int,
        *,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
        jitter: int = 0,
        outage_rate: float = 0.0,
        outage_cycles: int = 0,
        blackholes: Iterable[int] = (),
        crash_rate: float = 0.0,
        crash_down_cycles: int = 0,
        crashes: Iterable[Tuple[int, int, int]] = (),
        durability: str = "preserve",
    ) -> None:
        if not 0.0 <= drop_prob <= 1.0:
            raise ConfigError(f"drop_prob {drop_prob} outside [0, 1]")
        if not 0.0 <= dup_prob <= 1.0:
            raise ConfigError(f"dup_prob {dup_prob} outside [0, 1]")
        if jitter < 0:
            raise ConfigError(f"negative jitter {jitter}")
        if outage_rate < 0.0:
            raise ConfigError(f"negative outage_rate {outage_rate}")
        if outage_rate and outage_cycles < 1:
            raise ConfigError("outage_rate needs outage_cycles >= 1")
        if crash_rate < 0.0:
            raise ConfigError(f"negative crash_rate {crash_rate}")
        if crash_rate and crash_down_cycles < 1:
            raise ConfigError("crash_rate needs crash_down_cycles >= 1")
        if durability not in DURABILITY_MODES:
            raise ConfigError(
                f"durability {durability!r} not one of {DURABILITY_MODES}"
            )
        self.seed = seed
        self.drop_prob = drop_prob
        self.dup_prob = dup_prob
        self.jitter = jitter
        self.outage_rate = outage_rate
        self.outage_cycles = outage_cycles
        self.blackholes: FrozenSet[int] = frozenset(blackholes)
        self.crash_rate = crash_rate
        self.crash_down_cycles = crash_down_cycles
        self.crashes: Tuple[Tuple[int, int, int], ...] = tuple(
            (int(n), int(at), int(down)) for n, at, down in crashes
        )
        for node, at, down in self.crashes:
            if at < 1 or down < 1:
                raise ConfigError(
                    f"targeted crash ({node}, {at}, {down}) needs "
                    f"at_cycle >= 1 and down_cycles >= 1"
                )
        self.durability = durability
        #: True when this plan can ever take a node down (a plain
        #: attribute: the invariant monitor reads it on every send).
        self.has_crashes = bool(crash_rate or self.crashes)
        self._roll = random.Random(f"{seed}:faults:roll")
        #: The topology outages are judged on (see :meth:`bind`), and
        #: its lazily created outage schedules indexed by link id.
        self._topology: Optional[Topology] = None
        self._outages: Optional[List[Optional[_LinkOutages]]] = None
        self._crashes: Dict[int, _NodeCrashes] = {}

    # ------------------------------------------------------------------
    def bind(self, topology: Topology) -> None:
        """Judge outages on ``topology`` (the fabric calls this when the
        plan is installed, before any traffic)."""
        self._topology = topology
        self._outages = [None] * topology.n_link_ids

    def node_crashes(self, node: int) -> _NodeCrashes:
        """The (lazily created) crash schedule of one node."""
        sched = self._crashes.get(node)
        if sched is None:
            sched = self._crashes[node] = _NodeCrashes(
                random.Random(f"{self.seed}:faults:crash:{node}"),
                self.crash_rate,
                self.crash_down_cycles,
            )
        return sched

    # ------------------------------------------------------------------
    def _schedule(self, link_id: int) -> _LinkOutages:
        """Create the outage schedule of one link id, seeded by its
        ``(from, to)`` tuple."""
        sched = self._outages[link_id] = _LinkOutages(
            random.Random(
                f"{self.seed}:faults:link:{self._topology.link_of(link_id)}"
            ),
            self.outage_rate,
            self.outage_cycles,
        )
        return sched

    def link_outages(self, link: Link) -> _LinkOutages:
        """The (lazily created) outage schedule of one directed link."""
        if self._topology is None:
            raise ConfigError("bind the fault plan to a topology first")
        lid = self._topology.link_id(*link)
        return self._outages[lid] or self._schedule(lid)

    def _route_down(
        self, src: int, steps: Tuple[int, int, int, int], now: int
    ) -> bool:
        """True when a link of the route ``steps`` from ``src`` (see
        ``Topology.route_steps``) is down at ``now``."""
        outages = self._outages
        if outages is None:
            raise ConfigError("bind the fault plan to a topology first")
        topo = self._topology
        width = topo.width
        nx, sx, ny, sy = steps
        x = src % width
        pos = src
        if nx:
            rowbase = src - x
            direction = 0 if sx > 0 else topo._xneg
            for _ in range(nx):
                lid = pos * 4 + direction
                if (outages[lid] or self._schedule(lid)).down(now):
                    return True
                x = (x + sx) % width
                pos = rowbase + x
        if ny:
            height = topo.height
            y = pos // width
            direction = 2 if sy > 0 else topo._yneg
            for _ in range(ny):
                lid = pos * 4 + direction
                if (outages[lid] or self._schedule(lid)).down(now):
                    return True
                y = (y + sy) % height
                pos = y * width + x
        return False

    # ------------------------------------------------------------------
    def judge(
        self,
        msg: Message,
        now: int,
        src: int,
        steps: Tuple[int, int, int, int],
    ) -> Tuple[Fate, Tuple[int, ...]]:
        """Decide one send's fate: ``(fate, extra delay per delivery)``.

        ``steps`` is the send's dimension-order route from ``src`` (see
        ``Topology.route_steps``).  An empty delay tuple means the
        message is lost; one entry is a normal (possibly jittered)
        delivery; two entries mean the wire duplicated it.  Delays are
        *added to* the fabric's computed arrival time, outside the FIFO
        floor.
        """
        if msg.dst in self.blackholes or (
            self.outage_rate and self._route_down(src, steps, now)
        ):
            return "outage", ()
        roll = self._roll
        if self.drop_prob and roll.random() < self.drop_prob:
            return "drop", ()
        jitter = self.jitter
        first = roll.randrange(jitter + 1) if jitter else 0
        if self.dup_prob and roll.random() < self.dup_prob:
            # The duplicate trails the original by at least one cycle so
            # the two deliveries are distinct events.
            second = first + 1 + (roll.randrange(jitter + 1) if jitter else 0)
            return "sent+dup", (first, second)
        return "sent", (first,)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        knobs = []
        if self.drop_prob:
            knobs.append(f"drop={self.drop_prob:g}")
        if self.dup_prob:
            knobs.append(f"dup={self.dup_prob:g}")
        if self.jitter:
            knobs.append(f"jitter<={self.jitter}")
        if self.outage_rate:
            knobs.append(
                f"outage={self.outage_rate:g}/cyc x{self.outage_cycles}"
            )
        if self.blackholes:
            knobs.append(f"blackholes={sorted(self.blackholes)}")
        if self.crash_rate:
            knobs.append(
                f"crash={self.crash_rate:g}/cyc x{self.crash_down_cycles}"
            )
        if self.crashes:
            knobs.append(f"crashes={list(self.crashes)}")
        if self.has_crashes and self.durability != "preserve":
            knobs.append(f"durability={self.durability}")
        return f"faults(seed={self.seed}: {', '.join(knobs) or 'none'})"
