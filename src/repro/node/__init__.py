"""Node model: processor, cache, and their wiring."""

from repro import _lazy

__all__ = ["CPU", "DirectMappedCache", "Node", "SimThread", "ThreadStatus"]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "cache": ["DirectMappedCache"],
    "cpu": ["CPU", "SimThread", "ThreadStatus"],
    "node": ["Node"],
})
