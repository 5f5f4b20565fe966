"""Baselines the paper argues against, for the comparison benchmarks."""

from repro import _lazy

__all__ = ["GottliebQueue"]

__getattr__, __dir__ = _lazy.exports(__name__, {"gottlieb": ["GottliebQueue"]})
