"""Thread context: the programmer's view of a PLUS processor.

A simulated thread is a generator; every interaction with the machine is
a ``yield from`` of one of these helpers.  Blocking read-modify-write
helpers (``fetch_add`` and friends) issue the delayed operation and wait
for its result immediately — the pattern of the paper's "blocking
synchronization" baseline.  The split ``issue_*`` / :meth:`result`
helpers expose the delayed-operation pipeline that hides latency
(Section 3.1).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.delayed import Token
from repro.core.params import OpCode
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
from repro.runtime.shm import QueueHandle

Gen = Generator[Any, Any, Any]

# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_XCHNG = OpCode.XCHNG
_COND_XCHNG = OpCode.COND_XCHNG
_FETCH_ADD = OpCode.FETCH_ADD
_FETCH_SET = OpCode.FETCH_SET
_MIN_XCHNG = OpCode.MIN_XCHNG
_DELAYED_READ = OpCode.DELAYED_READ
_QUEUE = OpCode.QUEUE
_DEQUEUE = OpCode.DEQUEUE


class ThreadCtx:
    """Handle passed to every simulated thread."""

    def __init__(self, machine, node_id: int) -> None:
        self.machine = machine
        self.node_id = node_id
        self.thread = None  # set by PlusMachine.spawn

    # ------------------------------------------------------------------
    # Plain memory operations.
    # ------------------------------------------------------------------
    def read(self, vaddr: int) -> Gen:
        """Blocking read of one word."""
        return (yield Read(vaddr))

    def write(self, vaddr: int, value: int) -> Gen:
        """Buffered write of one word (stalls only on a full write cache)."""
        yield Write(vaddr, value)

    def compute(self, cycles: int) -> Gen:
        """Model ``cycles`` of useful local computation."""
        yield Compute(cycles)

    def spin(self, cycles: int) -> Gen:
        """Model ``cycles`` of busy-waiting (not counted as useful)."""
        yield Compute(cycles, useful=False)

    def yield_cpu(self) -> Gen:
        """Hand the processor to another ready context, if any."""
        yield Yield()

    def fence(self) -> Gen:
        """Wait for all earlier writes and update chains to complete."""
        yield Fence()

    # ------------------------------------------------------------------
    # Split-phase delayed operations.
    # ------------------------------------------------------------------
    def issue(self, op: OpCode, vaddr: int, operand: int = 0) -> Gen:
        """Issue a delayed operation; returns its token."""
        return (yield Issue(op, vaddr, operand))

    def result(self, token: Token) -> Gen:
        """Wait for and consume the result of a delayed operation."""
        return (yield AwaitResult(token))

    def poll(self, token: Token) -> Gen:
        """Result if available, else None; the slot stays allocated."""
        return (yield PollResult(token))

    # Issue helpers, one per Table 3-1 operation.
    def issue_xchng(self, vaddr: int, value: int) -> Gen:
        return (yield Issue(_XCHNG, vaddr, value))

    def issue_cond_xchng(self, vaddr: int, value: int) -> Gen:
        return (yield Issue(_COND_XCHNG, vaddr, value))

    def issue_fetch_add(self, vaddr: int, delta: int) -> Gen:
        return (yield Issue(_FETCH_ADD, vaddr, delta & 0xFFFFFFFF))

    def issue_fetch_set(self, vaddr: int) -> Gen:
        return (yield Issue(_FETCH_SET, vaddr))

    def issue_min_xchng(self, vaddr: int, value: int) -> Gen:
        return (yield Issue(_MIN_XCHNG, vaddr, value))

    def issue_delayed_read(self, vaddr: int) -> Gen:
        return (yield Issue(_DELAYED_READ, vaddr))

    def issue_enqueue(self, queue: QueueHandle, value: int) -> Gen:
        return (yield Issue(_QUEUE, queue.tail_va, value))

    def issue_dequeue(self, queue: QueueHandle) -> Gen:
        return (yield Issue(_DEQUEUE, queue.head_va))

    # ------------------------------------------------------------------
    # Blocking read-modify-write conveniences (issue + immediate verify).
    # ------------------------------------------------------------------
    def _blocking(self, op: OpCode, vaddr: int, operand: int = 0) -> Gen:
        token = yield Issue(op, vaddr, operand)
        return (yield AwaitResult(token))

    def xchng(self, vaddr: int, value: int) -> Gen:
        """Swap: returns the old value, stores ``value`` (30-bit)."""
        return (yield from self._blocking(_XCHNG, vaddr, value))

    def cond_xchng(self, vaddr: int, value: int) -> Gen:
        """Store ``value`` only if the old value's top bit is set."""
        return (yield from self._blocking(_COND_XCHNG, vaddr, value))

    def fetch_add(self, vaddr: int, delta: int) -> Gen:
        """Atomic add; returns the old value."""
        return (
            yield from self._blocking(
                _FETCH_ADD, vaddr, delta & 0xFFFFFFFF
            )
        )

    def fetch_set(self, vaddr: int) -> Gen:
        """Set the top bit; returns the old value (test-and-set)."""
        return (yield from self._blocking(_FETCH_SET, vaddr))

    def min_xchng(self, vaddr: int, value: int) -> Gen:
        """Store ``value`` if smaller; returns the old value."""
        return (yield from self._blocking(_MIN_XCHNG, vaddr, value))

    def delayed_read(self, vaddr: int) -> Gen:
        """Read via the delayed-operation path (coherent with RMWs)."""
        return (yield from self._blocking(_DELAYED_READ, vaddr))

    def enqueue(self, queue: QueueHandle, value: int) -> Gen:
        """One hardware queue insert; returns the old tail word.

        Top bit set in the return value means the queue was full and
        nothing was stored.
        """
        return (yield from self._blocking(_QUEUE, queue.tail_va, value))

    def dequeue(self, queue: QueueHandle) -> Gen:
        """One hardware queue remove; returns the head word.

        Top bit set means a valid element (mask with 0x7FFFFFFF); top bit
        clear means the queue was empty.
        """
        return (yield from self._blocking(_DEQUEUE, queue.head_va))
