"""Property tests: the calendar-queue engine vs a reference heap.

The engine's two-level calendar queue (per-cycle FIFO buckets plus a
heap overflow lane) promises *exact* ``(time, seq)`` firing order — the
order the original single-heap engine produced.  These tests keep that
promise executable: a minimal single-heap engine serves as the spec, and
random schedules (ties, nested scheduling from callbacks, near- and
overflow-lane delays, cancellations, ``tie_break_rng`` on and off) must
fire byte-identically on both.
"""

import heapq
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine


class _RefTimer:
    """Reference twin of :class:`repro.sim.engine.Timer` (lazy cancel)."""

    __slots__ = ("_fn", "cancelled")

    def __init__(self, fn):
        self._fn = fn
        self.cancelled = False

    def __call__(self):
        if not self.cancelled:
            self._fn()

    def cancel(self):
        self.cancelled = True


class _HeapEngine:
    """The pre-calendar single-heap engine, kept as an executable spec.

    Scheduling pushes ``(time, seq, fn)`` and running pops in heap
    order; with ``tie_break_rng`` the seq's high bits are randomized
    exactly as the real engine does, consuming the rng in ``at()`` call
    order so an identically-seeded pair of engines stays comparable.
    """

    def __init__(self, tie_break_rng=None):
        self._now = 0
        self._heap = []
        self._seq = itertools.count()
        self._tie_rng = tie_break_rng

    @property
    def now(self):
        return self._now

    def at(self, time, fn):
        assert time >= self._now
        seq = next(self._seq)
        if self._tie_rng is not None:
            seq |= self._tie_rng.getrandbits(32) << 40
        heapq.heappush(self._heap, (time, seq, fn))

    def timer(self, delay, fn):
        handle = _RefTimer(fn)
        self.at(self._now + delay, handle)
        return handle

    def run(self):
        heap = self._heap
        while heap:
            time, _seq, fn = heapq.heappop(heap)
            self._now = time
            fn()


def _drive(engine, script, run=None):
    """Run ``script`` on ``engine``; returns the fired (now, tag) list.

    A script is a forest of nodes ``(delay, cancel_ref, children)``:
    each node schedules a timer ``delay`` cycles ahead; on firing it
    records its preorder tag, optionally cancels the ``cancel_ref``-th
    previously created timer, and schedules its children.  Every
    decision is a pure function of the script and firing order, so two
    engines agree on the fired list iff they fire in the same order.

    ``run`` overrides how the engine is driven (default: one full
    ``engine.run()``) — the windowed tests drive the same schedule
    through many bounded ``run(until=...)`` calls instead.
    """
    fired = []
    handles = []
    tags = itertools.count()

    def schedule(node):
        delay, cancel_ref, children = node
        tag = next(tags)

        def fire():
            fired.append((engine.now, tag))
            if cancel_ref is not None and handles:
                handles[cancel_ref % len(handles)].cancel()
            for child in children:
                schedule(child)

        handles.append(engine.timer(delay, fire))

    for node in script:
        schedule(node)
    if run is None:
        engine.run()
    else:
        run(engine)
    return fired


def _windowed(window):
    """Driver that advances in bounded windows: ``run(until=barrier - 1)``
    per window until the queue drains.  ``PlusMachine.run`` stops the
    engine the same way at its ``max_cycles`` horizon, so every window
    cut must leave the firing order of a continuous run intact."""

    def run(engine):
        barrier = 0
        while engine.pending_events:
            barrier += window
            engine.run(until=barrier - 1)

    return run


# Delays straddling the calendar window (512): dense small values for
# same-cycle ties, plus the window boundary and deep overflow lane.
_delays = st.one_of(
    st.integers(min_value=0, max_value=8),
    st.sampled_from([0, 1, 100, 510, 511, 512, 513, 1023, 5000]),
)
_cancels = st.one_of(st.none(), st.integers(min_value=0, max_value=15))
_nodes = st.recursive(
    st.tuples(_delays, _cancels, st.just(())),
    lambda children: st.tuples(
        _delays, _cancels, st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=24,
)
_scripts = st.lists(_nodes, min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(script=_scripts)
def test_calendar_queue_matches_reference_heap(script):
    real = _drive(Engine(), script)
    ref = _drive(_HeapEngine(), script)
    assert real == ref


@settings(max_examples=60, deadline=None)
@given(script=_scripts, seed=st.integers(min_value=0, max_value=2**16))
def test_tie_break_rng_mode_matches_reference_heap(script, seed):
    real = _drive(Engine(tie_break_rng=random.Random(seed)), script)
    ref = _drive(_HeapEngine(random.Random(seed)), script)
    assert real == ref


@settings(max_examples=40, deadline=None)
@given(script=_scripts)
def test_engine_accounting_survives_random_schedules(script):
    engine = Engine()
    _drive(engine, script)
    assert engine.pending_events == 0
    assert 0 == engine._cancelled_timers


# Windows straddling every interesting boundary: single-cycle, a few
# small widths, and the calendar window (512) with its neighbours.
_windows = st.sampled_from([1, 3, 4, 12, 511, 512, 513, 5000])


@settings(max_examples=60, deadline=None)
@given(script=_scripts, window=_windows)
def test_windowed_run_matches_continuous_run(script, window):
    real = _drive(Engine(), script, run=_windowed(window))
    ref = _drive(_HeapEngine(), script)
    assert real == ref


@settings(max_examples=40, deadline=None)
@given(
    script=_scripts,
    window=_windows,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_windowed_run_random_ties_matches_continuous_run(script, window, seed):
    real = _drive(
        Engine(tie_break_rng=random.Random(seed)),
        script,
        run=_windowed(window),
    )
    ref = _drive(Engine(tie_break_rng=random.Random(seed)), script)
    assert real == ref


class _EagerCompactionEngine(Engine):
    """Engine whose queues compact on (nearly) every cancellation.

    The default floor (32) is out of reach of these small scripts, so
    without it the compaction path — including a compaction triggered by
    ``Timer.cancel`` from a handler mid-bucket-drain — would go
    unexercised here.
    """

    COMPACTION_FLOOR = 0


@settings(max_examples=60, deadline=None)
@given(script=_scripts)
def test_compaction_under_drain_matches_reference_heap(script):
    engine = _EagerCompactionEngine()
    real = _drive(engine, script)
    ref = _drive(_HeapEngine(), script)
    assert real == ref
    assert engine.pending_events == 0
    assert engine._cancelled_timers == 0
