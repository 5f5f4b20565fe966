"""Mesh interconnect: topology, link timing, message delivery — and,
optionally, seeded fault injection making all of it unreliable."""

from repro import _lazy

__all__ = ["Fabric", "FabricStats", "FaultPlan", "Message", "MsgKind", "Mesh"]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "fabric": ["Fabric", "FabricStats"],
    "faults": ["FaultPlan"],
    "message": ["Message", "MsgKind"],
    "topology": ["Mesh"],
})
