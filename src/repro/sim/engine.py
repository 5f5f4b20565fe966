"""Cycle-granular discrete-event simulation kernel.

The whole machine model is built on this small engine: coherence managers,
the mesh fabric and the processors all schedule callbacks at absolute cycle
times.  Events at the same cycle fire in scheduling order (a monotonically
increasing sequence number breaks ties), which makes every simulation run
fully deterministic.

Internally the engine is a two-level **calendar queue** rather than a
single binary heap:

* **Near lane** — a ring of :data:`Engine.BUCKETS` per-cycle FIFO lists
  covering ``[now, now + BUCKETS)``.  Nearly every event a simulation
  schedules (fabric deliveries, CM service completions, CPU busy time)
  lands a small bounded delta ahead of ``now`` — measured >99.7% within
  256 cycles on the benchmark workloads — so scheduling is a plain list
  append and firing is a list scan: no tuple allocation, no sequence
  number, no heap sift.
* **Overflow lane** — a conventional ``(time, seq, fn)`` binary heap for
  the rare far-future event (retransmission timers, long sleeps).

The two lanes preserve the exact single-heap firing order.  For one
target cycle ``T`` every overflow entry was necessarily scheduled at an
earlier engine time than every bucket entry (an overflow entry needs
``T - now >= BUCKETS`` at scheduling time, a bucket entry ``< BUCKETS``,
and ``now`` only moves forward), so overflow entries hold strictly
smaller sequence numbers — draining the heap lane first at each cycle,
then the bucket in append order, reproduces global ``(time, seq)``
order byte for byte.

``tie_break_rng`` mode (the stress harness's randomized same-cycle
ordering) routes *every* event through the overflow heap with the
original scrambled-sequence keys: that mode exists to explore orderings,
not to be fast, and the single-lane path keeps its per-seed
reproducibility trivially identical to the pre-calendar engine.
"""

from __future__ import annotations

import gc
import heapq
from itertools import count
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[[], None]


class Timer:
    """A cancellable scheduled callback (see :meth:`Engine.timer`).

    Cancellation is lazy: the queue entry stays scheduled and fires as a
    no-op, so the engine's hot event loop needs no extra bookkeeping.
    The retransmission timers of the fault-recovery layer are the main
    client; they are cancelled far more often than they fire.  The
    engine compacts its queues when cancelled entries pile up (long
    faulty runs cancel hundreds of thousands of them), so a cancelled
    timer's slot is eventually reclaimed rather than popped as a no-op.

    The engine's cancelled-entry counter is exact: a cancelled timer
    that fires as a no-op decrements it (it no longer occupies a slot),
    and cancelling a timer that already fired never increments it.
    """

    __slots__ = ("_fn", "cancelled", "_engine", "_fired")

    def __init__(self, fn: Callback, engine: "Optional[Engine]" = None) -> None:
        self._fn = fn
        self.cancelled = False
        self._fired = False
        self._engine = engine

    def __call__(self) -> None:
        self._fired = True
        if not self.cancelled:
            self._fn()
        elif self._engine is not None:
            # The no-op pop released this entry's queue slot; keep the
            # compaction counter in sync so it never over-estimates.
            # ``_noop_fires`` lets the run loop tell a cycle that only
            # fired dead entries from one that did real work, so the
            # reported clock never advances on no-op fires (see
            # :meth:`Engine.run`).
            engine = self._engine
            engine._noop_fires += 1
            if engine._cancelled_timers > 0:
                engine._cancelled_timers -= 1

    def cancel(self) -> None:
        """Make the timer a no-op when it fires.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if not self._fired and self._engine is not None:
                self._engine._note_cancelled()


class Engine:
    """A deterministic event-driven simulation clock.

    Time is an integer number of processor cycles.  The engine knows
    nothing about the machine being simulated; components register
    callbacks with :meth:`at` / :meth:`after` and the engine fires them
    in timestamp order.

    Hot-path note: ``_now`` is read directly (not through the ``now``
    property) by the simulator's inner loops in this package; treat it
    as a read-only alias of :attr:`now`.
    """

    #: Near-lane width in cycles (power of two).  Events scheduled less
    #: than this far ahead take the O(1) bucket path; the rest overflow
    #: to the heap.  512 covers >99.9% of benchmark-workload events.
    #: NOT freely tunable: the value is inlined as literal ``512``/``511``
    #: in the scheduling fast paths (:meth:`at`, :meth:`after`, and the
    #: inlined call sites in ``network/fabric.py``, ``core/coherence.py``
    #: and ``node/cpu.py``); ``__init__`` rejects any override so those
    #: literals can never silently desynchronize from the drain loop.
    BUCKETS = 512
    _MASK = BUCKETS - 1

    #: Cancelled-entry floor below which compaction never runs (see
    #: :meth:`_note_cancelled`).  Tests lower it to exercise compaction
    #: on small schedules.
    COMPACTION_FLOOR = 32

    def __init__(self, tie_break_rng=None) -> None:
        if self.BUCKETS != 512 or self._MASK != 511:
            # The near-lane window is inlined as literal 512/511 at the
            # scheduling call sites (see the BUCKETS docstring); an
            # overridden width would silently misfile events.
            raise SimulationError(
                f"Engine.BUCKETS/_MASK must be 512/511 (got "
                f"{self.BUCKETS}/{self._MASK}): the near-lane window is "
                "inlined as a literal in the scheduling fast paths"
            )
        self._now = 0
        #: Overflow lane: far-future events as (time, seq, fn).
        self._heap: List[Tuple[int, int, Callback]] = []
        #: Near lane: per-cycle FIFO buckets; bucket ``t & _MASK`` holds
        #: the events of cycle ``t`` (all bucket times live in
        #: ``[now, now + BUCKETS)``, so indices never collide).
        self._buckets: List[List[Callback]] = [[] for _ in range(self.BUCKETS)]
        #: Number of events currently in the near lane.
        self._near = 0
        self._seq = count()
        self._events_fired = 0
        #: Cancelled :class:`Timer` entries still occupying queue slots;
        #: when they exceed half of ``pending_events`` both lanes are
        #: compacted (see :meth:`_note_cancelled`).
        self._cancelled_timers = 0
        #: Cancelled :class:`Timer` entries that have fired as no-ops.
        #: The run loop compares per-cycle deltas of this counter
        #: against events fired to spot cycles that did no real work:
        #: the reported clock must not advance on those (a trailing
        #: cancelled retransmission timer would otherwise inflate the
        #: end-of-run timestamp of faulty runs; see :meth:`run`).
        self._noop_fires = 0
        #: Optional ``random.Random``: when set, events scheduled for the
        #: same cycle fire in a seeded-random (still deterministic) order
        #: instead of scheduling order.  The coherence protocol must be
        #: correct under *any* same-cycle ordering, so the stress harness
        #: uses this to explore orderings the default never produces.
        #: Every event then takes the overflow heap (see module docs).
        self._tie_rng = tie_break_rng

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled."""
        return len(self._heap) + self._near

    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callback) -> None:
        """Schedule ``fn`` to run at absolute cycle ``time``.

        Scheduling in the past is an error: the machine model never needs
        it and allowing it silently would hide protocol bugs.
        """
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule event at {time}, now is {self._now}"
            )
        if self._tie_rng is None and time - now < 512:  # BUCKETS
            self._buckets[time & 511].append(fn)  # _MASK
            self._near += 1
            return
        seq = next(self._seq)
        if self._tie_rng is not None:
            # Random high bits scramble same-cycle ordering; the unique
            # low bits keep the heap keys totally ordered (fn is never
            # compared), so every run is still reproducible per seed.
            seq |= self._tie_rng.getrandbits(32) << 40
        heapq.heappush(self._heap, (time, seq, fn))

    def after(self, delay: int, fn: Callback) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if 0 <= delay < 512 and self._tie_rng is None:  # BUCKETS
            # Inlined near-lane fast path of :meth:`at` (a relative
            # delay can never land in the past).
            self._buckets[(self._now + delay) & 511].append(fn)  # _MASK
            self._near += 1
            return
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at(self._now + delay, fn)

    def timer(self, delay: int, fn: Callback) -> Timer:
        """Schedule ``fn`` after ``delay`` cycles; returns a cancellable
        :class:`Timer` handle.  A cancelled timer keeps its queue slot
        (lazy cancellation) until cancelled entries dominate the queues,
        at which point the engine compacts them away in one pass."""
        handle = Timer(fn, self)
        self.after(delay, handle)
        return handle

    def _note_cancelled(self) -> None:
        """A scheduled :class:`Timer` was cancelled; compact if needed.

        Lazy cancellation leaves the entry queued, which is fine while
        cancellations are rare — but the recovery layer of a long faulty
        run cancels a retransmission timer for nearly every message, and
        those dead entries would otherwise outnumber the live ones and
        tax every push/pop.  When cancelled entries exceed half of
        ``pending_events`` both lanes are rebuilt without them; firing
        order of the survivors is unchanged (the heap keeps its
        ``(time, seq)`` keys and each bucket its append order).  The
        counter is exact — incremented once per cancelled scheduled
        entry, decremented when one fires as a no-op, zeroed when
        compaction removes them all — so a compaction is never triggered
        by entries that no longer exist.
        """
        self._cancelled_timers += 1
        if (
            self._cancelled_timers > self.COMPACTION_FLOOR
            and self._cancelled_timers * 2 > len(self._heap) + self._near
        ):
            # In place: Engine.run holds local aliases to the heap and
            # bucket lists, so each list object's identity must survive
            # compaction.  Safe to run from inside a handler mid-drain:
            # run() detaches each batch from its bucket before firing
            # and step() pops before firing, so the queues never contain
            # an already-fired entry for this filter to remove.
            self._heap[:] = [
                entry
                for entry in self._heap
                if not (
                    type(entry[2]) is Timer and entry[2].cancelled
                )
            ]
            heapq.heapify(self._heap)
            near = 0
            for bucket in self._buckets:
                if bucket:
                    bucket[:] = [
                        fn
                        for fn in bucket
                        if not (type(fn) is Timer and fn.cancelled)
                    ]
                    near += len(bucket)
            self._near = near
            self._cancelled_timers = 0

    # ------------------------------------------------------------------
    def _next_time(self) -> Optional[int]:
        """Cycle of the earliest pending event, or None when drained."""
        heap = self._heap
        if self._near:
            buckets = self._buckets
            t = self._now
            if heap:
                ht = heap[0][0]
                while t < ht and not buckets[t & self._MASK]:
                    t += 1
                return t if buckets[t & self._MASK] else ht
            while not buckets[t & self._MASK]:
                t += 1
            return t
        if heap:
            return heap[0][0]
        return None

    def step(self) -> bool:
        """Run the single earliest event.  Returns False if none remain."""
        t = self._next_time()
        if t is None:
            return False
        heap = self._heap
        if heap and heap[0][0] == t:
            # Heap-lane entries at a cycle always precede bucket entries
            # (strictly smaller sequence numbers; see module docs).
            _time, _seq, fn = heapq.heappop(heap)
        else:
            fn = self._buckets[t & self._MASK].pop(0)
            self._near -= 1
        # A cancelled timer fires as a no-op and must not advance the
        # reported clock: its entry is queue debris, not machine work
        # (nothing else can observe the skipped advance — a no-op reads
        # no state and schedules nothing).
        if not (type(fn) is Timer and fn.cancelled):
            self._now = t
        self._events_fired += 1
        fn()
        return True

    def run(self, until: Optional[int] = None, max_events: int = 500_000_000) -> int:
        """Run events until the queue drains or ``until`` is reached.

        Returns the simulation time when the run stopped.  When ``until``
        is given the clock always ends at ``until`` (even if the queue
        drains earlier), so callers can rely on ``now == until`` unless
        the engine had already run past it.  ``max_events`` is a
        runaway-loop backstop and the cap is exact: the call executes at
        most ``max_events`` events, raising :class:`SimulationError`
        before running the one that would exceed it (the offending event
        stays queued).
        """
        # This loop dominates simulation wall time: every scheduled
        # callback in a run funnels through it, so both lanes are bound
        # locally.  Per cycle it drains the overflow heap first (those
        # entries always carry the smaller sequence numbers for that
        # cycle), then the cycle's bucket in detached batches (see the
        # drain below for why detaching matters).
        heap = self._heap
        buckets = self._buckets
        mask = self._MASK
        pop = heapq.heappop
        fired = 0
        # Time of the last cycle that fired at least one *live* event.
        # Cancelled timers fire as no-ops and a cycle that fired only
        # those is queue debris, not machine work: when the queues drain
        # the clock reports ``live`` rather than the time of the last
        # no-op, so end-of-run timestamps match the pre-calendar-queue
        # engine (whose eager compaction culled trailing cancelled
        # retransmission timers before they could fire).  Safe because a
        # no-op reads no state and schedules nothing: every pending
        # entry was scheduled at or before ``live``, so rolling the
        # clock back to it re-opens exactly the near-lane window those
        # entries were filed under.
        live = self._now
        # Move everything allocated before the run into the collector's
        # permanent generation for the duration of the loop: cyclic-GC
        # passes triggered by the loop's own allocation churn then scan
        # only run-time garbage instead of re-traversing the whole (large,
        # immortal-for-the-run) machine graph every full collection —
        # measured ~15% of wall time on the benchmark workloads.  Both
        # splices are O(1); ``unfreeze`` returns the heap to the normal
        # regime so nothing outlives the call.  Skipped when the caller
        # manages freezing itself.
        melt = not gc.get_freeze_count()
        if melt:
            gc.freeze()
        try:
            while True:
                if self._near:
                    t = self._now
                    if heap:
                        ht = heap[0][0]
                        while t < ht and not buckets[t & mask]:
                            t += 1
                        if not buckets[t & mask]:
                            t = ht
                    else:
                        while not buckets[t & mask]:
                            t += 1
                elif heap:
                    t = heap[0][0]
                else:
                    break
                if until is not None and t > until:
                    break
                self._now = t
                cycle_base = fired
                noop_base = self._noop_fires
                while heap and heap[0][0] == t:
                    if fired >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events at cycle "
                            f"{self._now}; the simulated program is "
                            "probably livelocked"
                        )
                    _time, _seq, fn = pop(heap)
                    fired += 1
                    fn()
                bucket = buckets[t & mask]
                # Drain in detached batches: each batch is snapshotted
                # *out of* the bucket before firing, so an already-fired
                # entry never coexists with (a) the compaction filter a
                # handler can trigger via Timer.cancel — which would
                # shift list indices under live drain bookkeeping — or
                # (b) a handler exception, after which fired entries must
                # not survive in the queue to re-fire on resume.
                # Handlers may append further same-cycle events mid-batch
                # (they land in the live bucket and must fire this cycle,
                # in order), so after each batch re-check for growth.
                while bucket:
                    room = max_events - fired
                    if len(bucket) <= room:
                        pending = bucket[:]
                        bucket.clear()
                        capped = False
                    else:
                        # The cap is exact: only events under the budget
                        # leave the queue; the offender stays scheduled.
                        pending = bucket[:room]
                        del bucket[:room]
                        capped = True
                    self._near -= len(pending)
                    base = fired
                    try:
                        for fn in pending:
                            fired += 1
                            fn()
                    except BaseException:
                        # The raising event is consumed (matching the
                        # heap lane's pop-then-fire); the unfired suffix
                        # returns to the front of the bucket so a caller
                        # that catches and resumes sees neither
                        # duplicates nor losses.
                        rest = pending[fired - base:]
                        if rest:
                            bucket[:0] = rest
                            self._near += len(rest)
                        raise
                    if capped:
                        raise SimulationError(
                            f"exceeded {max_events} events at cycle "
                            f"{self._now}; the simulated program is "
                            "probably livelocked"
                        )
                if fired - cycle_base != self._noop_fires - noop_base:
                    live = t
            # Queues drained (or ``until`` reached): report the last
            # cycle that did real work, not a trailing no-op fire.
            self._now = live
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._events_fired += fired
            if melt:
                gc.unfreeze()
        return self._now
