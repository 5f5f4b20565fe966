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
  sweeps and the ``repro serve`` daemon dispatch through;
  :func:`run_sweep`: ordered delivery over a private pool (or inline for
  ``jobs=1``) with a live progress line;
  :func:`effective_jobs`: ``--jobs`` resolution against the visible
  CPU count.
* :mod:`repro.parallel.grid` — module-level grid-point targets for
  ``python -m repro sweep`` and the figure fan-outs.
"""

from repro import _lazy

__all__ = [
    "PoolFuture",
    "ProgressLine",
    "SweepTask",
    "TaskResult",
    "WorkerPool",
    "default_context",
    "effective_jobs",
    "execute",
    "expand_grid",
    "parse_shard",
    "run_sweep",
    "shard_tasks",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "executor": [
        "PoolFuture", "ProgressLine", "WorkerPool", "default_context",
        "effective_jobs", "run_sweep",
    ],
    "grid": ["expand_grid"],
    "tasks": [
        "SweepTask", "TaskResult", "execute", "parse_shard", "shard_tasks",
    ],
})
