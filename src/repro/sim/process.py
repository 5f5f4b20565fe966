"""Synchronization helpers for simulation components.

Components frequently need to park a continuation until some condition
becomes true (a write ack arrives, a delayed-operation slot frees up, the
pending-writes cache drains).  :class:`WaitQueue` keeps those parked
callbacks in FIFO order so wake-ups are fair and deterministic.
"""

from __future__ import annotations

from typing import Callable, List

Callback = Callable[[], None]


class WaitQueue:
    """A FIFO of parked callbacks.

    The owner decides *when* to wake; the queue only guarantees order.
    Callbacks run synchronously from :meth:`wake_one` / :meth:`wake_all`;
    callers that need them to run at a later simulated time should
    schedule through the engine themselves.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        # A list, not a deque: an empty one is 56 bytes against 760,
        # and no queue holds more waiters than its node has threads, so
        # popping the front (O(n) on a list) stays cheap.
        self._waiters: List[Callback] = []

    def __len__(self) -> int:
        return len(self._waiters)

    def __bool__(self) -> bool:
        return bool(self._waiters)

    def park(self, fn: Callback) -> None:
        """Append ``fn`` to the queue of waiters."""
        self._waiters.append(fn)

    def wake_one(self) -> bool:
        """Run the oldest waiter.  Returns False when the queue is empty."""
        if not self._waiters:
            return False
        self._waiters.pop(0)()
        return True

    def wake_all(self) -> int:
        """Run every currently-parked waiter (not ones parked during wake).

        Returns the number of callbacks run.  Waiters that re-park while
        being woken are not run again in the same call, which prevents
        accidental livelock when a woken waiter finds its condition false
        and parks itself again.
        """
        batch = self._waiters
        self._waiters = []
        for fn in batch:
            fn()
        return len(batch)
