"""The memoizing result cache: canonical config hash → finished result.

Determinism makes caching free (the replicated read-mostly sharing
argument from PAPERS.md applied to our own runs): every op the daemon
serves is a deterministic function of its canonical params, so the
sha256 of ``{"v": PROTOCOL_VERSION, "op": ..., "params": ...}`` with
sorted keys *is* the result's identity.  Same hash ⇒ the cached answer
is byte-identical to a fresh run; different params ⇒ different JSON ⇒
no collision (up to sha256).

:class:`ResultCache` is a thread-safe LRU over those keys with hit/miss
counters — the numbers surfaced in every response envelope's ``cache``
section and asserted on by the CI serve-smoke job.

With ``persist_path`` the cache is also disk-backed: loaded at boot and
rewritten atomically (temp file + ``os.replace``) after every insert, so
a daemon restart starts warm and a crash mid-write can never leave a
torn file.  The file embeds ``PROTOCOL_VERSION``; a cache written by a
daemon speaking another schema is ignored wholesale rather than
replayed into wrong-shaped responses.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.server.protocol import PROTOCOL_VERSION


def canonical_key(op: str, params: Dict[str, Any]) -> str:
    """The cache key: sha256 over the sorted-key JSON of the request.

    ``params`` must already be canonical (defaults filled, aliases
    folded — see :meth:`OpSpec.canonicalize`), so key order, alias
    spelling, and defaulted-vs-explicit values cannot produce distinct
    hashes for the same run.
    """
    blob = json.dumps(
        {"v": PROTOCOL_VERSION, "op": op, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Thread-safe LRU mapping canonical keys to finished results.

    ``persist_path`` makes it disk-backed: entries survive daemon
    restarts (see the module docstring for the file discipline).
    Values must then be JSON-serializable — which every daemon result
    already is, having travelled the JSON-lines protocol.
    """

    def __init__(
        self, capacity: int = 128, persist_path: Optional[str] = None
    ) -> None:
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.persist_path = persist_path
        #: Entries recovered from disk at construction time.
        self.loaded = 0
        if persist_path:
            self._load()

    def _load(self) -> None:
        """Warm the LRU from disk; anything unusable means cold start.

        A missing file, torn JSON (pre-``os.replace`` crashes cannot
        produce one, but other writers can), JSON nested too deep for
        the parser's recursion, a foreign schema version, or a malformed
        shape all silently yield an empty cache — a persistent cache
        must never be able to keep the daemon from booting.
        """
        try:
            with open(self.persist_path, "r", encoding="utf-8") as fh:
                blob = json.load(fh)
        except (OSError, ValueError, RecursionError):
            return
        if not isinstance(blob, dict) or blob.get("schema") != PROTOCOL_VERSION:
            return
        entries = blob.get("entries")
        if not isinstance(entries, list):
            return
        for item in entries[-self.capacity :]:
            if (
                isinstance(item, list)
                and len(item) == 2
                and isinstance(item[0], str)
            ):
                self._entries[item[0]] = item[1]
        self.loaded = len(self._entries)

    def _write_locked(self) -> None:
        """Atomically rewrite the disk image of the current entries.

        Runs under ``self._lock`` (insertions are rare next to the
        simulations that produce them, so holding the lock across the
        small JSON write is cheaper than racing snapshots).  The temp
        file lands in the same directory as the target so ``os.replace``
        stays a same-filesystem atomic rename.
        """
        blob = json.dumps(
            {
                "schema": PROTOCOL_VERSION,
                "entries": [[k, v] for k, v in self._entries.items()],
            },
            separators=(",", ":"),
        )
        tmp = f"{self.persist_path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.persist_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; a hit refreshes the entry's recency."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return True, self._entries[key]
            self.misses += 1
            return False, None

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            if self.persist_path:
                self._write_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> Dict[str, int]:
        """Counters for the response envelope's ``cache`` section."""
        with self._lock:
            snap = {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
            if self.persist_path:
                snap["loaded"] = self.loaded
            return snap
