"""Parallel sweep execution: multiprocess fan-out over independent runs.

Every sweep-shaped workload in this repo — stress seeds, fault seeds,
benchmark matrices, figure parameter grids — is a list of independent,
deterministic, single-threaded simulations.  This package fans such a
list out across worker processes and merges the results so the output
is byte-identical to the serial run:

* :mod:`repro.parallel.tasks` — the picklable :class:`SweepTask` /
  :class:`TaskResult` model, shared execution semantics, and
  ``--shard i/N`` slicing.
* :mod:`repro.parallel.executor` — :class:`WorkerPool`: the one warm
  worker fleet, with crash isolation and interrupt-safe teardown, that
  sweeps, the ``repro serve`` daemon and the space-parallel fleet all
  dispatch through; :func:`run_sweep`: ordered delivery over a private
  pool (or inline for ``jobs=1``) with a live progress line;
  :func:`effective_jobs`: ``--jobs`` resolution against the visible
  CPU count.
* :mod:`repro.parallel.grid` — module-level grid-point targets for
  ``python -m repro sweep`` and the figure fan-outs.
* :mod:`repro.parallel.spacetime` — space-parallel simulation of ONE
  machine: the mesh is partitioned into per-worker regions that advance
  in conservative lookahead windows and exchange boundary messages at
  window barriers, bit-identical to the serial space driver.
"""

from repro import _lazy

__all__ = [
    "PoolFuture",
    "ProgressLine",
    "RegionState",
    "SpaceFabric",
    "SpaceMachine",
    "SpaceRun",
    "SpaceSpec",
    "SweepTask",
    "TaskResult",
    "WorkerPool",
    "default_context",
    "default_window",
    "effective_jobs",
    "effective_regions",
    "execute",
    "expand_grid",
    "lookahead_bound",
    "memory_checksum",
    "parse_shard",
    "run_checksums",
    "run_space",
    "run_sweep",
    "shard_tasks",
    "trace_checksum",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "executor": [
        "PoolFuture", "ProgressLine", "WorkerPool", "default_context",
        "effective_jobs", "run_sweep",
    ],
    "grid": ["expand_grid"],
    "spacetime": [
        "RegionState", "SpaceFabric", "SpaceMachine", "SpaceRun",
        "SpaceSpec", "default_window", "effective_regions",
        "lookahead_bound", "memory_checksum", "run_checksums", "run_space",
        "trace_checksum",
    ],
    "tasks": [
        "SweepTask", "TaskResult", "execute", "parse_shard", "shard_tasks",
    ],
})
