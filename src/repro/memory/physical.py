"""Per-node physical memory: word-addressed page frames in a flat arena.

Each PLUS node carries 8 or 32 Mbytes of local DRAM (Section 5).  Frame
storage is compact ``array('l')`` flat memory rather than per-page Python
lists: one machine word per simulated word, bulk page copies as C-speed
slice assignments, and no per-element object boxing — what lets a
1,024-node machine map a million pages without drowning in list headers.

Frames are *lazy-zero*: allocation only marks the frame id live; the
backing array materializes on the first write (reads of an
unmaterialized frame return 0, snapshots return zeros).  A freed frame's
storage parks on a spare pool and is re-zeroed in place when the next
frame materializes, so migration-heavy policies recycle arrays instead
of churning the allocator.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import AddressError, ConfigError
from repro.core.params import WORD_MASK

#: Flat-storage element type: platform long (8 bytes on LP64) — wide
#: enough for the 32-bit masked word values with native C indexing.
_TYPECODE = "l"
_ITEMSIZE = array(_TYPECODE).itemsize


class PageFrame:
    """One standalone physical page of 32-bit words (array-backed).

    :class:`LocalMemory` no longer builds frames from these — its pool
    is a flat arena — but the class remains the unit-sized frame
    abstraction for tests and tools that want a single page.
    """

    __slots__ = ("words",)

    def __init__(self, page_words: int) -> None:
        self.words = array(_TYPECODE, bytes(page_words * _ITEMSIZE))

    def read(self, offset: int) -> int:
        return self.words[offset]

    def write(self, offset: int, value: int) -> None:
        self.words[offset] = value & WORD_MASK

    def load(self, values: List[int]) -> None:
        """Bulk-initialise the frame (page-copy hardware path)."""
        if len(values) != len(self.words):
            raise AddressError(
                f"page copy of {len(values)} words into "
                f"{len(self.words)}-word frame"
            )
        self.words[:] = array(_TYPECODE, [v & WORD_MASK for v in values])

    def snapshot(self) -> List[int]:
        """An independent copy of the frame contents."""
        return self.words.tolist()


def zero_template(page_words: int) -> bytes:
    """An all-zeros page image: the read-only template frames are zeroed
    from.  Immutable, so one per page size can serve every node."""
    return bytes(page_words * _ITEMSIZE)


class LocalMemory:
    """The physical memory of one node: a paged arena of numbered frames.

    The arena is indexed by integer frame id: ``_live[page]`` is 1 while
    the frame is allocated, and ``_storage`` maps only *materialized*
    frames to their ``array('l')`` words.  An allocated frame absent
    from ``_storage`` is lazy-zero; a frame present in it is always live.
    """

    __slots__ = (
        "node_id",
        "page_words",
        "max_frames",
        "_storage",
        "_live",
        "_free",
        "_spare",
        "_zero",
        "_next_page",
    )

    def __init__(
        self,
        node_id: int,
        page_words: int,
        max_frames: int = 1 << 20,
        zero: Optional[bytes] = None,
    ) -> None:
        self.node_id = node_id
        self.page_words = page_words
        self.max_frames = max_frames
        #: Frame id -> backing array, for materialized frames only.
        self._storage: Dict[int, array] = {}
        #: Frame id -> 1 if allocated (dense flags, one byte per id).
        self._live = bytearray()
        self._free: List[int] = []
        #: Storage arrays recovered from freed frames, re-zeroed in
        #: place when the next frame materializes.
        self._spare: List[array] = []
        #: Read-only all-zeros page image (see :func:`zero_template`); a
        #: machine passes one template to all of its nodes.
        self._zero = zero if zero is not None else zero_template(page_words)
        self._next_page = 0

    # ------------------------------------------------------------------
    def allocate_frames(self, n: int) -> Tuple[List[int], range]:
        """Allocate ``n`` zeroed frames as ``(recycled, fresh)`` ids.

        Hands out exactly the ids ``n`` successive single allocations
        would: recycled ids from the end of the free list first (in pop
        order), then one contiguous run of never-used ids.  Lazy: no
        storage is touched until a frame's first write, so mapping a
        million pages costs a million flag bytes, not a million arrays.
        Fails without allocating anything if ``n`` is negative or the
        run would exceed ``max_frames``.
        """
        if n < 0:
            raise ConfigError(f"cannot allocate {n} frames")
        free = self._free
        k = min(n, len(free))
        start = self._next_page
        stop = start + n - k
        if stop > self.max_frames:
            raise AddressError(
                f"node {self.node_id} out of physical frames "
                f"({self.max_frames})"
            )
        live = self._live
        recycled = free[len(free) - k:]
        recycled.reverse()
        del free[len(free) - k:]
        for page in recycled:
            live[page] = 1
        live.extend(b"\x01" * (stop - start))
        self._next_page = stop
        return recycled, range(start, stop)

    def allocate_frame(self) -> int:
        """Allocate one zeroed frame; returns its local page id."""
        recycled, fresh = self.allocate_frames(1)
        return recycled[0] if recycled else fresh.start

    def free_frame(self, page: int) -> None:
        """Release a frame; its storage parks on the spare pool."""
        self._check(page)
        storage = self._storage.pop(page, None)
        if storage is not None:
            self._spare.append(storage)
        self._live[page] = 0
        self._free.append(page)

    def has_frame(self, page: int) -> bool:
        return 0 <= page < self._next_page and self._live[page] != 0

    def frames(self) -> Iterator[int]:
        """Iterate over allocated local page ids (ascending)."""
        live = self._live
        return (page for page in range(self._next_page) if live[page])

    # ------------------------------------------------------------------
    def _check(self, page: int) -> None:
        if not (0 <= page < self._next_page and self._live[page]):
            raise AddressError(
                f"node {self.node_id} has no physical page {page}"
            )

    def _zero_fill(self, storage: array) -> None:
        """Zero ``storage`` in place from the template (one memcpy)."""
        with memoryview(storage).cast("B") as raw:
            raw[:] = self._zero

    def _materialize(self, page: int) -> array:
        """Back a live frame with (zeroed) storage; reuses spares."""
        spare = self._spare
        if spare:
            storage = spare.pop()
            self._zero_fill(storage)
        else:
            storage = array(_TYPECODE, self._zero)
        self._storage[page] = storage
        return storage

    def read(self, page: int, offset: int) -> int:
        """Read one word from frame ``page`` at ``offset``."""
        storage = self._storage.get(page)
        if storage is not None:
            return storage[offset]
        self._check(page)
        pw = self.page_words
        if -pw <= offset < pw:
            return 0
        raise IndexError("array index out of range")

    def write(self, page: int, offset: int, value: int) -> None:
        """Write one word to frame ``page`` at ``offset``."""
        storage = self._storage.get(page)
        if storage is None:
            self._check(page)
            storage = self._materialize(page)
        storage[offset] = value & WORD_MASK

    def words_of(self, page: int) -> array:
        """The live word array of frame ``page`` (hot-path read access).

        Callers that make several reads against one frame (the RMW
        executor) resolve the frame once and index the array directly.
        The array is the frame's backing store — treat it as read-only.
        """
        storage = self._storage.get(page)
        if storage is None:
            self._check(page)
            storage = self._materialize(page)
        return storage

    def write_batch(self, page: int, writes) -> None:
        """Apply ``(offset, value)`` pairs to one frame, resolved once.

        The coherence manager's update path applies every message's word
        writes through here so the frame lookup happens once per message
        rather than once per word.
        """
        storage = self._storage.get(page)
        if storage is None:
            self._check(page)
            storage = self._materialize(page)
        for offset, value in writes:
            storage[offset] = value & WORD_MASK

    def write_run(self, page: int, offset: int, values: List[int]) -> None:
        """Write ``values`` to consecutive words of frame ``page`` from
        ``offset`` with one slice assignment (set-up bulk loads)."""
        end = offset + len(values)
        if not 0 <= offset <= end <= self.page_words:
            raise AddressError(
                f"run of {len(values)} words at offset {offset} overruns "
                f"the {self.page_words}-word frame"
            )
        storage = self._storage.get(page)
        if storage is None:
            self._check(page)
            storage = self._materialize(page)
        storage[offset:end] = array(_TYPECODE, [v & WORD_MASK for v in values])

    def load_page(self, page: int, values: List[int]) -> None:
        """Overwrite an entire frame (used by the page-copy engine)."""
        self._check(page)
        if len(values) != self.page_words:
            raise AddressError(
                f"page copy of {len(values)} words into "
                f"{self.page_words}-word frame"
            )
        storage = self._storage.get(page)
        if storage is None:
            # Fully overwritten below — skip the zeroing pass.
            spare = self._spare
            storage = spare.pop() if spare else array(_TYPECODE, self._zero)
            self._storage[page] = storage
        storage[:] = array(_TYPECODE, [v & WORD_MASK for v in values])

    def snapshot_page(self, page: int) -> List[int]:
        """Copy out an entire frame (used by the page-copy engine)."""
        self._check(page)
        storage = self._storage.get(page)
        if storage is None:
            return [0] * self.page_words
        return storage.tolist()

    def zero_page(self, page: int) -> None:
        """Reset a frame to all zeros in place (crash-scrub path)."""
        self._check(page)
        storage = self._storage.get(page)
        if storage is not None:
            self._zero_fill(storage)

    # -- capacity accounting -------------------------------------------
    @property
    def allocated_frames(self) -> int:
        """Currently-allocated (mapped) frames, materialized or not."""
        return self._next_page - len(self._free)

    @property
    def materialized_frames(self) -> int:
        """Frames currently backed by real storage (diagnostics)."""
        return len(self._storage)
