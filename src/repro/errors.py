"""Exception hierarchy for the PLUS reproduction.

Every error raised by the library derives from :class:`PlusError` so that
callers can catch library failures without masking programming errors.

Protocol-level errors can carry *event context* — the simulation cycle,
the node that detected the problem, the offending message, and an excerpt
of recent trace entries — so that a failure deep inside a stress run
prints an actionable transcript instead of a bare assertion.  All context
is optional; ``ProtocolError("message")`` keeps working everywhere.
"""

from __future__ import annotations

from typing import Iterable, Optional


class PlusError(Exception):
    """Base class for all errors raised by this library.

    Accepts optional event context (keyword-only): ``cycle`` is the
    simulation time of the failure, ``node`` the detecting node id,
    ``msg`` the in-flight message involved, and ``excerpt`` an iterable
    of pre-formatted trace lines leading up to the failure.
    """

    def __init__(
        self,
        message: object = "",
        *,
        cycle: Optional[int] = None,
        node: Optional[int] = None,
        msg: object = None,
        excerpt: Iterable[str] = (),
    ) -> None:
        self.cycle = cycle
        self.node = node
        self.msg = msg
        self.excerpt = tuple(excerpt)
        super().__init__(self._render(str(message)))

    def _render(self, message: str) -> str:
        tags = []
        if self.cycle is not None:
            tags.append(f"cycle {self.cycle}")
        if self.node is not None:
            tags.append(f"node {self.node}")
        text = f"{message} [{', '.join(tags)}]" if tags else message
        lines = [text]
        if self.msg is not None:
            lines.append(f"  message: {self.msg}")
        if self.excerpt:
            lines.append("  recent events:")
            lines.extend(f"    {line}" for line in self.excerpt)
        return "\n".join(lines)


class ConfigError(PlusError):
    """A machine or application configuration is invalid."""


class AddressError(PlusError):
    """A virtual or physical address is malformed or out of range."""


class MappingError(PlusError):
    """A virtual page has no legal mapping (central-table miss)."""


class ReplicationError(PlusError):
    """An illegal copy-list manipulation was requested."""


class ProtocolError(PlusError):
    """The coherence protocol reached a state that should be impossible.

    Raising this indicates a bug in the simulator, not in user code.
    """


class CoherenceViolation(ProtocolError):
    """The coherence oracle or a live invariant checker found a protocol
    property violated (copies diverged, an ack duplicated or lost, a
    copy-list hop skipped, a read served past a pending write, ...).

    Carries the full event context of :class:`PlusError` so the report
    names the cycle, node and message stream around the violation.
    """


class NodeUnreachable(PlusError):
    """A reliable channel exhausted its retry budget towards one node.

    Raised by the coherence manager's recovery layer when a message has
    been retransmitted ``TimingParams.net_max_retries`` times without an
    acknowledgement — the destination (or every route to it) is down for
    longer than the retry budget covers.  Carries the usual event
    context: ``cycle`` is when the budget ran out, ``node`` is the
    unreachable destination, and ``excerpt`` holds the recent wire
    transcript when a trace is installed.
    """


class SimulationError(PlusError):
    """The discrete-event simulation failed (e.g. ran past its horizon)."""


class DeadlockError(SimulationError):
    """The event queue drained while simulated threads were still blocked.

    The message includes a per-thread diagnostic of what each blocked
    thread was waiting for, which is usually enough to spot the missing
    wake-up or the application-level deadlock.
    """


class ThreadError(PlusError):
    """A simulated thread misused the runtime API."""
