"""Discrete-event simulation kernel underlying the PLUS machine model."""

from repro import _lazy

__all__ = ["Engine", "WaitQueue"]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "engine": ["Engine"],
    "process": ["WaitQueue"],
})
