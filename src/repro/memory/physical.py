"""Per-node physical memory: word-addressed page frames in a flat arena.

Each PLUS node carries 8 or 32 Mbytes of local DRAM (Section 5).  Frame
storage is compact ``array('I')`` flat memory rather than per-page Python
lists: one 4-byte unsigned slot per simulated 32-bit word, so bulk page
copies are C-speed slice assignments and no word is boxed as an object —
what lets a 1,024-node machine map a million pages without drowning in
list headers.

Frames are *lazy-zero* and hold only their *written prefix*.  Allocation
only hands out a frame id, and a mapped page costs nothing per page: a
frame is live when its id is below the high-water mark and not on the
free set.  The backing array materializes empty on the first write and
holds words 0 through the highest offset written so far; a read past the
prefix returns 0 and a write past it zero-extends the array.  A freed
frame drops its array; a crash scrub truncates it.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Tuple

from repro.errors import AddressError, ConfigError
from repro.core.params import WORD_MASK

#: Flat-storage element type: C unsigned int, exactly the 32 bits of a
#: PLUS word.  Every writer masks with ``WORD_MASK``, so a value always
#: fits; a platform with a wider ``unsigned int`` would double the arena.
_TYPECODE = "I"
_ITEMSIZE = array(_TYPECODE).itemsize
if _ITEMSIZE != 4:
    raise ImportError(
        f"array({_TYPECODE!r}) has {_ITEMSIZE}-byte items; frames need 4"
    )


class LocalMemory:
    """The physical memory of one node: a paged arena of numbered frames.

    The arena is indexed by integer frame id.  Ids below ``_next_page``
    have been handed out; those in ``_free`` (an insertion-ordered dict
    used as a set, popped LIFO) are released again.  ``_storage`` maps
    only *materialized* frames to the ``array('I')`` of their written
    prefix.  An allocated frame absent from ``_storage`` is lazy-zero; a
    frame present in it is always live.
    """

    __slots__ = (
        "node_id",
        "page_words",
        "max_frames",
        "_storage",
        "_free",
        "_next_page",
    )

    def __init__(
        self, node_id: int, page_words: int, max_frames: int = 1 << 20
    ) -> None:
        self.node_id = node_id
        self.page_words = page_words
        self.max_frames = max_frames
        #: Frame id -> written-prefix array, for materialized frames only.
        self._storage: Dict[int, array] = {}
        #: Released frame ids, most recently freed last.
        self._free: Dict[int, None] = {}
        self._next_page = 0

    # ------------------------------------------------------------------
    def allocate_frames(self, n: int) -> Tuple[List[int], range]:
        """Allocate ``n`` zeroed frames as ``(recycled, fresh)`` ids.

        Hands out exactly the ids ``n`` successive single allocations
        would: the most recently freed ids first (in pop order), then
        one contiguous run of never-used ids.  Lazy: no storage is
        touched until a frame's first write, and a fresh run only moves
        the high-water mark, so mapping a million pages costs nothing
        per page.  Fails without allocating anything if ``n`` is
        negative or the run would exceed ``max_frames``.
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
        recycled = [free.popitem()[0] for _ in range(k)]
        self._next_page = stop
        return recycled, range(start, stop)

    def allocate_frame(self) -> int:
        """Allocate one zeroed frame; returns its local page id."""
        recycled, fresh = self.allocate_frames(1)
        return recycled[0] if recycled else fresh.start

    def free_frame(self, page: int) -> None:
        """Release a frame; its storage is dropped."""
        self._check(page)
        self._storage.pop(page, None)
        self._free[page] = None

    def has_frame(self, page: int) -> bool:
        return 0 <= page < self._next_page and page not in self._free

    def frames(self) -> Iterator[int]:
        """Iterate over allocated local page ids (ascending)."""
        free = self._free
        return (page for page in range(self._next_page) if page not in free)

    # ------------------------------------------------------------------
    def _check(self, page: int) -> None:
        if not (0 <= page < self._next_page and page not in self._free):
            raise AddressError(
                f"node {self.node_id} has no physical page {page}"
            )

    def _materialize(self, page: int) -> array:
        """Back a live frame with an empty written prefix (replacing an
        empty one is the same)."""
        self._check(page)
        storage = self._storage[page] = array(_TYPECODE)
        return storage

    def _extend(self, storage: array, offset: int) -> None:
        """Zero-extend ``storage`` to hold word ``offset`` of the page."""
        if not 0 <= offset < self.page_words:
            raise IndexError(
                f"offset {offset} outside the {self.page_words}-word frame"
            )
        storage.frombytes(bytes((offset + 1 - len(storage)) * _ITEMSIZE))

    def read(self, page: int, offset: int) -> int:
        """Read one word from frame ``page`` at ``offset``."""
        storage = self._storage.get(page)
        if storage is None:
            self._check(page)
        elif 0 <= offset < len(storage):
            return storage[offset]
        if 0 <= offset < self.page_words:
            return 0
        raise IndexError(
            f"offset {offset} outside the {self.page_words}-word frame"
        )

    def write(self, page: int, offset: int, value: int) -> None:
        """Write one word to frame ``page`` at ``offset``."""
        storage = self._storage.get(page) or self._materialize(page)
        if not 0 <= offset < len(storage):
            self._extend(storage, offset)
        storage[offset] = value & WORD_MASK

    def words_of(self, page: int) -> array:
        """The live word array of frame ``page`` (hot-path read access).

        Callers that make several reads against one frame (the RMW
        executor) resolve the frame once and index the array directly,
        so it is extended to all ``page_words`` words first.  The array
        is the frame's backing store — treat it as read-only.
        """
        storage = self._storage.get(page) or self._materialize(page)
        if len(storage) < self.page_words:
            self._extend(storage, self.page_words - 1)
        return storage

    def write_batch(self, page: int, writes) -> None:
        """Apply ``(offset, value)`` pairs to one frame, resolved once.

        The coherence manager's update path applies every message's word
        writes through here so the frame lookup happens once per message
        rather than once per word.
        """
        storage = self._storage.get(page) or self._materialize(page)
        for offset, value in writes:
            if not 0 <= offset < len(storage):
                self._extend(storage, offset)
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
        storage = self._storage.get(page) or self._materialize(page)
        if len(storage) < end:
            self._extend(storage, end - 1)
        storage[offset:end] = array(_TYPECODE, [v & WORD_MASK for v in values])

    def load_page(self, page: int, values: List[int]) -> None:
        """Overwrite an entire frame (used by the page-copy engine)."""
        self._check(page)
        if len(values) != self.page_words:
            raise AddressError(
                f"page copy of {len(values)} words into "
                f"{self.page_words}-word frame"
            )
        self._storage[page] = array(_TYPECODE, [v & WORD_MASK for v in values])

    def snapshot_page(self, page: int) -> List[int]:
        """Copy out an entire frame (used by the page-copy engine)."""
        self._check(page)
        storage = self._storage.get(page)
        words = [] if storage is None else storage.tolist()
        words += [0] * (self.page_words - len(words))
        return words

    def zero_page(self, page: int) -> None:
        """Reset a frame to all zeros in place (crash-scrub path)."""
        self._check(page)
        storage = self._storage.get(page)
        if storage is not None:
            del storage[:]

    # -- capacity accounting -------------------------------------------
    @property
    def allocated_frames(self) -> int:
        """Currently-allocated (mapped) frames, materialized or not."""
        return self._next_page - len(self._free)

    @property
    def materialized_frames(self) -> int:
        """Frames currently backed by real storage (diagnostics)."""
        return len(self._storage)
