"""Shared memory, twice over.

The *simulated* half is the paper's simulator library: "a library
package provides functions to create simulated shared memory and to
allocate it on the nodes specified by the user" (Section 2.5).
Placement is page granular: every allocation is homed on a chosen node
(which holds the master copy) and may be replicated on further nodes at
set-up time.

The *host* half is :class:`BoundaryRing`: a single-producer
single-consumer ring of signed 64-bit words over
``multiprocessing.shared_memory``, used by the space-parallel transport
(``repro.parallel.spacetime``) to move codec-packed boundary records
between region processes without pickling.  One ring exists per
ordered (source region, destination region) pair; the window barrier
protocol provides the happens-before edges (a producer's window step is
acknowledged before the consumer's next step begins), so plain
memoryview reads and writes with monotonically increasing head/tail
counters are sufficient synchronization.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from repro.errors import ConfigError


def _load_shared_memory():
    """``multiprocessing.shared_memory``, or None on platforms without it.

    Imported on first use: only the space-parallel transport needs it,
    and it pulls most of ``multiprocessing`` into every simulator process.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - minimal platforms
        return None
    return shared_memory


def __getattr__(name: str):
    if name == "_shared_memory":
        return _load_shared_memory()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# ----------------------------------------------------------------------
# Host-level boundary rings (the space-parallel transport's data plane).
# ----------------------------------------------------------------------
class BoundaryRing:
    """SPSC ring of int64 words in one ``multiprocessing.shared_memory``
    segment.

    Layout (all slots signed 64-bit little-endian)::

        [MAGIC, VERSION, CAPACITY, HEAD, TAIL, data[CAPACITY]]

    ``HEAD``/``TAIL`` are monotonically increasing word counts (never
    wrapped), so ``TAIL - HEAD`` is the occupancy and ``counter %
    CAPACITY`` the physical slot.  :meth:`push` is all-or-nothing: a
    batch that does not fit is refused and the producer falls back to
    the driver's drain protocol (see ``parallel/spacetime.py``) —
    nothing ever blocks inside the ring, which is what makes the
    barrier protocol deadlock-free by construction.

    The creator owns the segment (``close(unlink=True)`` destroys it).
    Resource-tracker registrations stay balanced without intervention:
    the worker processes share the driver's tracker, where the cache is
    a set — the creator's registration and each attacher's
    re-registration collapse to one entry, which the owner's ``unlink``
    removes.
    """

    MAGIC = 0x504C5553_52494E47  # "PLUSRING"
    _HEADER = 5

    def __init__(self, shm, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._words = shm.buf.cast("q")
        if self._words[0] != self.MAGIC:
            raise ConfigError(
                f"shared segment {shm.name!r} is not a boundary ring"
            )
        self.version = self._words[1]
        self.capacity = self._words[2]

    # -- construction --------------------------------------------------
    @classmethod
    def create(cls, capacity_words: int, version: int) -> "BoundaryRing":
        shared_memory = _load_shared_memory()
        if shared_memory is None:  # pragma: no cover
            raise ConfigError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; run the serial space driver (jobs=1)"
            )
        if capacity_words < 8:
            raise ConfigError(
                f"ring capacity must be >= 8 words (got {capacity_words})"
            )
        shm = shared_memory.SharedMemory(
            create=True, size=8 * (cls._HEADER + capacity_words)
        )
        words = shm.buf.cast("q")
        words[1] = version
        words[2] = capacity_words
        words[3] = 0
        words[4] = 0
        words[0] = cls.MAGIC  # stamped last: an attacher sees a full header
        del words
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str, version: int) -> "BoundaryRing":
        shared_memory = _load_shared_memory()
        if shared_memory is None:  # pragma: no cover
            raise ConfigError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; run the serial space driver (jobs=1)"
            )
        shm = shared_memory.SharedMemory(name=name)
        ring = cls(shm, owner=False)
        if ring.version != version:
            spoken = ring.version
            ring.close()
            raise ConfigError(
                f"boundary ring {name!r} speaks codec version "
                f"{spoken}, this process speaks {version}"
            )
        return ring

    @property
    def name(self) -> str:
        return self._shm.name

    # -- producer side -------------------------------------------------
    @property
    def free_words(self) -> int:
        words = self._words
        return self.capacity - (words[4] - words[3])

    def push(self, records: Sequence[int]) -> bool:
        """Write ``records`` after the current tail; False if they do
        not all fit (the ring is left untouched)."""
        n = len(records)
        words = self._words
        head = words[3]
        tail = words[4]
        if n > self.capacity - (tail - head):
            return False
        cap = self.capacity
        pos = tail % cap
        base = self._HEADER
        first = min(n, cap - pos)
        words[base + pos : base + pos + first] = memoryview_list(
            records[:first]
        )
        if first < n:
            words[base : base + n - first] = memoryview_list(records[first:])
        words[4] = tail + n
        return True

    # -- consumer side -------------------------------------------------
    def drain(self) -> List[int]:
        """Remove and return every readable word, in push order."""
        words = self._words
        head = words[3]
        tail = words[4]
        n = tail - head
        if n <= 0:
            return []
        cap = self.capacity
        pos = head % cap
        base = self._HEADER
        first = min(n, cap - pos)
        out = words[base + pos : base + pos + first].tolist()
        if first < n:
            out.extend(words[base : base + n - first].tolist())
        words[3] = tail
        return out

    # -- lifecycle -----------------------------------------------------
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


def memoryview_list(values: Sequence[int]):
    """A ``memoryview``-assignable int64 view of ``values``."""
    import array

    if isinstance(values, array.array) and values.typecode == "q":
        return values
    return array.array("q", values)
