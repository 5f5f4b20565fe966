"""Simulated shared memory: the paper's simulator library.

"A library package provides functions to create simulated shared memory
and to allocate it on the nodes specified by the user" (Section 2.5).
Placement is page granular: every allocation is homed on a chosen node
(which holds the master copy) and may be replicated on further nodes at
set-up time.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from repro.errors import ConfigError


class Segment:
    """A named, page-aligned region of shared virtual memory.

    ``vpages`` is the contiguous run of virtual pages backing it.
    """

    def __init__(
        self, base: int, nwords: int, vpages: range, home: int, name: str
    ) -> None:
        self.base = base
        self.nwords = nwords
        self.vpages = vpages
        self.home = home
        self.name = name

    def __len__(self) -> int:
        return self.nwords

    def addr(self, index: int) -> int:
        """Virtual address of word ``index`` of the segment."""
        if not 0 <= index < self.nwords:
            raise ConfigError(
                f"index {index} outside segment {self.name!r} "
                f"of {self.nwords} words"
            )
        return self.base + index


class QueueHandle:
    """A hardware queue living in one page (Table 3-1 conventions).

    Word 0 holds the tail offset (addressed by the ``queue`` operation),
    word 1 the head offset (addressed by ``dequeue``); the ring occupies
    the rest of the page starting at ``queue_ring_base``.
    """

    def __init__(self, base: int, capacity: int, home: int) -> None:
        self.base = base
        self.capacity = capacity
        self.home = home

    @property
    def tail_va(self) -> int:
        """Address of the tail-offset word (the ``queue`` target, QP)."""
        return self.base

    @property
    def head_va(self) -> int:
        """Address of the head-offset word (the ``dequeue`` target, DQP)."""
        return self.base + 1


class SharedMemory:
    """Page-granular shared-memory allocator for one machine."""

    def __init__(self, machine) -> None:
        self._machine = machine
        self.segments: List[Segment] = []

    # ------------------------------------------------------------------
    def alloc(
        self,
        nwords: int,
        home: int = 0,
        replicas: Sequence[int] = (),
        name: str = "",
    ) -> Segment:
        """Allocate ``nwords`` of shared memory homed on ``home``.

        ``replicas`` lists additional nodes that get a copy of every page
        of the segment (set-up-time replication; the coherence hardware
        keeps the copies coherent from then on).
        """
        if nwords < 1:
            raise ConfigError("allocation must be at least one word")
        machine = self._machine
        page_words = machine.params.page_words
        npages = math.ceil(nwords / page_words)
        vpages = machine.os.create_pages(home, npages)
        if replicas:
            # Vpage-major, as frame ids (and so every digest) depend on it.
            for vpage in vpages:
                for node in replicas:
                    if node != home:
                        machine.os.replicate(vpage, node)
        segment = Segment(
            base=vpages.start * page_words,
            nwords=nwords,
            vpages=vpages,
            home=home,
            name=name or f"seg{len(self.segments)}",
        )
        self.segments.append(segment)
        return segment

    def alloc_queue(
        self,
        home: int = 0,
        replicas: Sequence[int] = (),
        name: str = "",
    ) -> QueueHandle:
        """Allocate and initialise one hardware queue page on ``home``."""
        machine = self._machine
        params = machine.params
        segment = self.alloc(
            params.page_words, home=home, replicas=replicas, name=name or "queue"
        )
        machine.poke(segment.base, params.queue_ring_base)      # tail offset
        machine.poke(segment.base + 1, params.queue_ring_base)  # head offset
        return QueueHandle(segment.base, params.queue_capacity, home)

    # ------------------------------------------------------------------
    def load(self, segment: Segment, values: Iterable[int], at: int = 0) -> None:
        """Bulk-initialise segment contents before the run (no sim time).

        Leaves every copy and cache as a ``machine.poke`` per word would,
        but writes each page run into each copy with one slice
        assignment.  The whole range is checked first: an out-of-range
        load raises :class:`ConfigError` and writes nothing.
        """
        values = list(values)
        if not values:
            return
        segment.addr(at)
        segment.addr(at + len(values) - 1)
        machine = self._machine
        page_words = machine.params.page_words
        nodes = machine.nodes
        copies_of = machine.os.copies_of
        start = segment.base + at
        done = 0
        while done < len(values):
            vpage, offset = divmod(start + done, page_words)
            run = values[done : done + page_words - offset]
            for copy in copies_of(vpage):
                node = nodes[copy.node]
                node.memory.write_run(copy.page, offset, run)
                node.cache.snoop_run(copy.page, offset, len(run))
            done += len(run)

    def dump(self, segment: Segment, start: int = 0, count: Optional[int] = None) -> List[int]:
        """Read segment contents from the master copies (no sim time)."""
        machine = self._machine
        if count is None:
            count = segment.nwords - start
        return [machine.peek(segment.addr(start + i)) for i in range(count)]
