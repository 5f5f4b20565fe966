"""repro — a reproduction of PLUS: A Distributed Shared-Memory System.

PLUS (Bisiani & Ravishankar, ISCA 1990) is a NUMA multiprocessor built
around two ideas: software-controlled, non-demand page replication with a
hardware write-update coherence protocol, and delayed (split-phase)
read-modify-write synchronization operations.  This package is a
cycle-approximate functional simulator of the machine, the paper's
runtime library, its two evaluation applications, and the benchmark
harness that regenerates every table and figure of the paper.

Quickstart::

    from repro import PlusMachine

    machine = PlusMachine(n_nodes=4)
    flag = machine.shm.alloc(1, home=0, replicas=[1, 2, 3])

    def worker(ctx, addr):
        yield from ctx.write(addr, 42)
        yield from ctx.fence()

    machine.spawn(0, worker, flag.base)
    report = machine.run()
"""

from repro import _lazy

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "DeadlockError",
    "OpCode",
    "PAPER_PARAMS",
    "PlusError",
    "PlusMachine",
    "ProtocolError",
    "QueueHandle",
    "RunReport",
    "Segment",
    "SimulationError",
    "ThreadCtx",
    "TimingParams",
    "format_table",
    "__version__",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "core.params": ["PAPER_PARAMS", "OpCode", "TimingParams"],
    "errors": [
        "ConfigError", "DeadlockError", "PlusError", "ProtocolError",
        "SimulationError",
    ],
    "machine": ["PlusMachine"],
    "runtime.shm": ["QueueHandle", "Segment"],
    "runtime.thread": ["ThreadCtx"],
    "stats.report": ["RunReport", "format_table"],
})
