"""The processor model: runs simulated threads and charges time.

Application code is a Python generator yielding
:mod:`repro.runtime.requests` objects; the CPU charges the corresponding
cycles, drives the node's MMU / cache / coherence manager, and resumes
the generator with the result.

Scheduling follows the paper's context-switching discussion (Section
3.3): a processor may hold several thread contexts; whenever the running
thread blocks (a remote read, an unavailable delayed result, a fence, a
full pending-writes cache) the CPU switches to another ready context,
paying ``context_switch_cycles`` each time a *different* context is
installed.  With one thread per processor and a zero switch cost this
degenerates to the plain blocking processor used for the "blocking
synchronization" and "delayed operations" curves of Figure 3-1; with
several threads and a 16/40/140-cycle cost it reproduces the
context-switch curves.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from itertools import count
from typing import Any, Callable, Generator, List, Optional

from repro.errors import ThreadError
from repro.runtime.requests import (
    AwaitResult,
    Compute,
    Fence,
    Issue,
    PollResult,
    Read,
    Write,
    Yield,
)

Callback = Callable[..., None]
ThreadGen = Generator[Any, Any, Any]

_tids = count()


class ThreadStatus(Enum):
    """Scheduler state of one thread context."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_READY = ThreadStatus.READY
_RUNNING = ThreadStatus.RUNNING
_BLOCKED = ThreadStatus.BLOCKED
_DONE = ThreadStatus.DONE


class SimThread:
    """One simulated thread context.

    A thread has at most one outstanding request at a time, so its
    state lives here rather than in per-request closures: ``request``
    and ``addr`` describe the request in flight, ``value`` carries the
    value it completed with (sent into the generator on resume), and
    ``then`` is what runs once it completes.  ``resume``, ``wake`` and
    ``proceed`` are the thread's continuations, built once by
    :meth:`CPU.spawn` and scheduled or parked for every request.
    """

    __slots__ = (
        "tid",
        "name",
        "gen",
        "status",
        "continuation",
        "stall_kind",
        "stall_start",
        "result",
        "request",
        "addr",
        "value",
        "then",
        "completed",
        "resume",
        "wake",
        "proceed",
    )

    def __init__(
        self, gen: ThreadGen, name: str, tid: Optional[int] = None
    ) -> None:
        # Machine-spawned threads get a machine-local tid (deterministic
        # per run, even in a warm sweep worker that runs many machines);
        # the process-global counter is only the fallback for threads
        # constructed bare in unit tests.
        self.tid = next(_tids) if tid is None else tid
        self.name = name
        self.gen = gen
        self.status = _READY
        self.continuation: Optional[Callable[[], None]] = None
        self.stall_kind = ""
        self.stall_start = 0
        self.result: Any = None
        self.request: Any = None
        self.addr: Any = None
        self.value: Any = None
        self.then: Optional[Callable[[], None]] = None
        #: Set by ``wake`` when the request completed synchronously,
        #: inside the component call that started it.
        self.completed = False
        self.resume: Optional[Callable[[], None]] = None
        self.wake: Optional[Callback] = None
        self.proceed: Optional[Callable[[], None]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<thread {self.name}#{self.tid} {self.status.value}>"


class CPU:
    """The processor of one node."""

    def __init__(self, node) -> None:
        # ``node`` is the owning Node (typed loosely: import cycle).
        self.node = node
        self.engine = node.engine
        self.params = node.params
        self.counters = node.counters
        self.threads: List[SimThread] = []
        self._current: Optional[SimThread] = None
        self._last: Optional[SimThread] = None
        self._rr = 0  # round-robin scan position

    # ------------------------------------------------------------------
    # Thread management.
    # ------------------------------------------------------------------
    def spawn(self, gen: ThreadGen, name: str = "") -> SimThread:
        """Add a thread context; it becomes runnable immediately."""
        thread = SimThread(
            gen,
            name or f"t{len(self.threads)}",
            tid=self.node.machine.next_tid(),
        )
        thread.resume = partial(self._step, thread)
        thread.wake = partial(self._wake, thread)
        thread.proceed = partial(self._proceed, thread)
        thread.continuation = thread.resume
        self.threads.append(thread)
        self.engine.after(0, self._try_dispatch)
        return thread

    @property
    def all_done(self) -> bool:
        return all(t.status is _DONE for t in self.threads)

    def kill_all(self) -> List[SimThread]:
        """Crash support: terminate every non-finished thread context.

        The generators are closed (running their ``finally`` blocks, as
        a real crash would not — but simulated threads hold no cleanup
        state) and marked DONE so the scheduler, the watchdog's blocked
        report and ``all_done`` treat them as gone.  In-flight engine
        events and parked wake-ups of a killed thread are voided by the
        DONE guards in :meth:`_step`, :meth:`_proceed` and :meth:`_wake`.
        """
        killed = []
        for t in self.threads:
            if t.status is _DONE:
                continue
            t.gen.close()
            t.status = _DONE
            t.continuation = None
            killed.append(t)
        self._current = None
        self._last = None
        return killed

    def blocked_report(self) -> List[str]:
        """Human-readable description of non-finished threads."""
        lines = []
        for t in self.threads:
            if t.status is _DONE:
                continue
            detail = f" on {t.stall_kind!r} since cycle {t.stall_start}" if (
                t.status is _BLOCKED
            ) else ""
            lines.append(
                f"node {self.node.node_id} thread {t.name}#{t.tid}: "
                f"{t.status.value}{detail}"
            )
        return lines

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------
    def _try_dispatch(self) -> None:
        if self._current is not None:
            return
        # Round-robin scan for the next READY context (runs after every
        # block, wake-up and finish).
        threads = self.threads
        n = len(threads)
        rr = self._rr
        thread = None
        for i in range(n):
            t = threads[(rr + i) % n]
            if t.status is _READY:
                self._rr = (rr + i + 1) % n
                thread = t
                break
        if thread is None:
            return
        self._current = thread
        thread.status = _RUNNING
        cont = thread.continuation
        thread.continuation = None
        assert cont is not None
        switching = (
            self._last is not None
            and self._last is not thread
            and self.params.context_switch_cycles > 0
        )
        self._last = thread
        if switching:
            self.counters.context_switches += 1
            self._busy(self.params.context_switch_cycles, cont)
        else:
            cont()

    def _block(self, thread: SimThread, kind: str) -> None:
        assert self._current is thread
        thread.status = _BLOCKED
        thread.stall_kind = kind
        thread.stall_start = self.engine._now
        self._current = None
        self._try_dispatch()

    def _wait(self, thread: SimThread, kind: str) -> None:
        """Follow up a request the running ``thread`` just started.

        The component was handed ``thread.wake``; if it already called
        it (the request completed synchronously) run ``thread.then``
        now, else block the thread until the wake-up arrives.
        """
        if thread.completed:
            thread.completed = False
            thread.then()
        else:
            self._block(thread, kind)

    def _wake(self, thread: SimThread, value: Any = None) -> None:
        """Completion of ``thread``'s outstanding request (``thread.wake``).

        Called while the thread is still RUNNING, the request completed
        inside the call that started it and :meth:`_wait` picks the
        value up; otherwise the thread is blocked and becomes ready to
        run ``thread.then``.
        """
        status = thread.status
        if status is _RUNNING:
            thread.value = value
            thread.completed = True
            return
        if status is _DONE:
            return  # killed by a node crash while the wakeup was in flight
        thread.value = value
        stall = self.engine._now - thread.stall_start
        counters = self.counters
        kind = thread.stall_kind
        # The stall vocabulary is fixed; direct attribute bumps beat the
        # getattr/setattr round trip on this per-wakeup path.
        if kind == "read":
            counters.read_stall_cycles += stall
        elif kind == "write":
            counters.write_stall_cycles += stall
        elif kind == "sync":
            counters.sync_stall_cycles += stall
        elif kind == "fence":
            counters.fence_stall_cycles += stall
        else:
            field = f"{kind}_stall_cycles"
            setattr(counters, field, getattr(counters, field) + stall)
        thread.status = _READY
        thread.continuation = thread.then
        self._try_dispatch()

    def _busy(self, cycles: int, then: Callback) -> None:
        """Charge ``cycles`` of processor-busy time, then continue."""
        self.counters.busy_cycles += cycles
        # Inlined near-lane fast path of ``Engine.after``: every request
        # a thread issues funnels through here, and the charged costs are
        # always small non-negative constants from TimingParams.
        engine = self.engine
        if 0 <= cycles < 512 and engine._tie_rng is None:  # Engine.BUCKETS
            engine._buckets[(engine._now + cycles) & 511].append(then)
            engine._near += 1
        else:
            engine.after(cycles, then)

    # ------------------------------------------------------------------
    # Request execution.
    # ------------------------------------------------------------------
    def _step(self, thread: SimThread) -> None:
        """Send ``thread.value`` into the generator and start the next
        request (``thread.resume``)."""
        if thread.status is _DONE:
            return  # killed by a node crash while the continuation was queued
        assert self._current is thread
        try:
            request = thread.gen.send(thread.value)
        except StopIteration as stop:
            thread.status = _DONE
            thread.result = stop.value
            self.counters.threads_finished += 1
            self._current = None
            self._try_dispatch()
            return

        # Exact-type dispatch: the request vocabulary is a closed set of
        # final classes, and ``is`` comparisons on the class beat
        # isinstance() calls on this per-request path.
        cls = request.__class__
        if cls is Compute:
            cycles = request.cycles
            if cycles < 0:
                raise ThreadError(f"negative compute time {cycles}")
            if request.useful:
                self.counters.compute_cycles += cycles
            else:
                self.counters.spin_cycles += cycles
            thread.value = None
            self._busy(cycles, thread.resume)
        elif cls is Read:
            thread.request = request
            thread.addr, mmu_cycles = self.node.translate(request.vaddr)
            self._busy(mmu_cycles, thread.proceed)
        elif cls is Write:
            thread.request = request
            thread.addr, mmu_cycles = self.node.translate(request.vaddr)
            self._busy(
                mmu_cycles + self.params.write_issue_cycles, thread.proceed
            )
        elif cls is Issue:
            thread.request = request
            thread.addr, mmu_cycles = self.node.translate(request.vaddr)
            self._busy(
                mmu_cycles + self.params.issue_delayed_cycles, thread.proceed
            )
        elif cls is AwaitResult:
            thread.request = request
            thread.then = thread.proceed
            self.node.cm.cpu_result(request.token, thread.wake)
            self._wait(thread, "sync")
        elif cls is PollResult:
            thread.value = self.node.cm.cpu_poll(request.token)
            self._busy(self.params.read_result_cycles, thread.resume)
        elif cls is Fence:
            thread.then = thread.resume
            self.node.cm.cpu_fence(thread.wake)
            self._wait(thread, "fence")
        elif cls is Yield:
            thread.value = None
            thread.status = _READY
            thread.continuation = thread.resume
            self._current = None
            self._try_dispatch()
        elif isinstance(
            request,
            (Compute, Read, Write, Issue, AwaitResult, PollResult, Fence, Yield),
        ):  # pragma: no cover - subclassed requests fall back to the slow path
            raise ThreadError(
                f"thread {thread.name} yielded a subclassed request "
                f"{request!r}; use the concrete request types"
            )
        else:
            raise ThreadError(
                f"thread {thread.name} yielded {request!r}, which is not a "
                "simulation request (use the ThreadCtx helpers)"
            )

    def _proceed(self, thread: SimThread) -> None:
        """Carry ``thread.request`` past its charge (``thread.proceed``).

        Reads, writes and delayed-op issues arrive here once their MMU
        (and issue) cycles are charged, and a read again after waiting
        out a pending write; a delayed result arrives once it is
        available, to charge the result read.
        """
        request = thread.request
        cls = request.__class__
        if cls is AwaitResult:
            self._busy(self.params.read_result_cycles, thread.resume)
            return
        if thread.status is _DONE:
            return  # killed by a node crash during the charge
        paddr = thread.addr
        node = self.node
        cm = node.cm
        if cls is Read:
            # Re-check after every wake-up: another thread on this node
            # can issue a fresh write to the same address between the
            # old write's ack and this thread being dispatched again.
            if cm.pending.pending_at(paddr):
                thread.then = thread.proceed
                cm.when_safe_to_read(paddr, thread.wake)
                self._wait(thread, "read")
                return
            monitor = node.machine.invariant_monitor
            if monitor is not None:
                # Weak-ordering read-block rule: a read must never proceed
                # while the issuer still has a pending write to the target.
                monitor.on_read_proceed(node.node_id, paddr)
            if paddr.node == node.node_id:
                if cm.word_valid(paddr):
                    cycles = node.cache.read_cycles(paddr.page, paddr.offset)
                    thread.value = node.memory.read(paddr.page, paddr.offset)
                    self.counters.local_reads += 1
                    self._busy(cycles, thread.resume)
                    return
                # Invalidate-protocol miss: the local copy is stale;
                # fetch from the master and revalidate (a remote read).
                thread.then = thread.resume
                cm.cpu_refetch(paddr, thread.wake)
            else:
                node.note_remote_ref(request.vaddr)
                thread.then = thread.resume
                cm.cpu_read_remote(paddr, thread.wake)
            self._wait(thread, "read")
        elif cls is Write:
            node.cache.note_write(paddr.page, paddr.offset)
            thread.then = thread.resume
            cm.cpu_write(paddr, request.value, thread.wake)
            self._wait(thread, "write")
        else:  # Issue
            thread.then = thread.resume
            cm.cpu_issue(request.op, paddr, request.operand, thread.wake)
            self._wait(thread, "sync")
