"""The processor cache of one PLUS node.

Each node's 88000 carries 32 Kbytes of cache (Section 5).  Only *local*
memory is cached — remote reads always go through the coherence manager —
and replicated pages are cached write-through so every write is visible
to the coherence manager (Section 2.3).  A snooping protocol on the node
bus keeps cache and memory coherent when the coherence manager writes
local memory: with the default ``update`` policy the cached word is
updated in place; the ``invalidate`` policy (available for ablations)
drops the line instead.

Because memory is always authoritative in a write-through design, the
model tracks only line presence for timing; no data is duplicated.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.params import TimingParams
from repro.errors import ConfigError


class DirectMappedCache:
    """Direct-mapped, write-through, no-allocate-on-write cache model."""

    def __init__(self, params: TimingParams, snoop_policy: str = "update") -> None:
        if snoop_policy not in ("update", "invalidate"):
            raise ConfigError(f"unknown snoop policy {snoop_policy!r}")
        self.params = params
        self.snoop_policy = snoop_policy
        self.line_words = params.cache_line_words
        self.n_lines = params.cache_size_words // params.cache_line_words
        if self.n_lines < 1:
            raise ConfigError("cache smaller than one line")
        # Hoisted copies for the per-access line computation (snoop runs
        # once per coherence write to local memory, read_cycles once per
        # local load; the frozen-dataclass attribute chain is measurable
        # there).
        self._page_words = params.page_words
        self._line_words = self.line_words
        self._n_lines = self.n_lines
        self._update_policy = snoop_policy == "update"
        #: Per-set tag: the global line number cached there, or None.
        #: The list itself is allocated on the first fill: most nodes of
        #: a large machine never load from local memory.
        self._tags: Optional[List[Optional[int]]] = None
        self.hits = 0
        self.misses = 0
        self.snoop_updates = 0
        self.snoop_invalidates = 0

    # ------------------------------------------------------------------
    def _line_of(self, page: int, offset: int) -> Tuple[int, int]:
        line = (page * self.params.page_words + offset) // self.line_words
        return line, line % self.n_lines

    def read_cycles(self, page: int, offset: int) -> int:
        """Access cost of a load from local memory; fills on miss."""
        line = (page * self._page_words + offset) // self._line_words
        index = line % self._n_lines
        tags = self._tags
        if tags is None:
            tags = self._tags = [None] * self._n_lines
        elif tags[index] == line:
            self.hits += 1
            return self.params.cache_hit_cycles
        self.misses += 1
        tags[index] = line
        return self.params.line_fill_cycles

    def note_write(self, page: int, offset: int) -> None:
        """Processor write: write-through, update-in-place if present."""
        # No state change needed: presence is unchanged (write hit updates
        # the word; write miss does not allocate).
        del page, offset

    def contains(self, page: int, offset: int) -> bool:
        line, index = self._line_of(page, offset)
        return self._tags is not None and self._tags[index] == line

    # ------------------------------------------------------------------
    def snoop(self, page: int, offset: int, value: int) -> None:
        """Bus snoop for a coherence-manager write to local memory."""
        del value
        tags = self._tags
        if tags is None:
            return
        line = (page * self._page_words + offset) // self._line_words
        index = line % self._n_lines
        if tags[index] != line:
            return
        if self._update_policy:
            self.snoop_updates += 1
        else:
            tags[index] = None
            self.snoop_invalidates += 1

    def snoop_run(self, page: int, offset: int, count: int) -> None:
        """:meth:`snoop` each of ``count`` words from ``offset``, in order."""
        if self._tags is not None:
            for i in range(offset, offset + count):
                self.snoop(page, i, 0)

    def flush(self) -> None:
        """Invalidate the whole cache."""
        self._tags = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
