"""Memory substrates: physical frames, mapping, replication.

Import :class:`ReplicationManager` / :class:`CompetitiveReplicator` from
their modules (``repro.memory.replication`` / ``.competitive``); they sit
above the coherence core and are not re-exported here to keep the import
graph acyclic.
"""

from repro import _lazy

__all__ = [
    "LocalMemory",
    "PageTable",
    "PhysAddr",
    "PhysPage",
    "TLB",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "address": ["PhysAddr", "PhysPage"],
    "mapping": ["TLB", "PageTable"],
    "physical": ["LocalMemory"],
})
