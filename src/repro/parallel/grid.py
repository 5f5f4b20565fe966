"""The paper's experiments, each declared once, and their points.

An :class:`Experiment` declares Table 2-1, Figure 2-1 (efficiency),
Table 3-1, Figure 3-1 or the §3.1 budget (:data:`EXPERIMENTS`), or a
``python -m repro sweep`` grid (:data:`SWEEPS`).  The CLI builds its
experiment subcommands from them, the daemon's ``sweep`` op serves
:data:`SWEEPS`, and ``benchmarks/bench_*.py`` call the same points.

A point is a :class:`~repro.parallel.tasks.SweepTask` target: picklable
kwargs in, a plain dict out, runnable in any worker.  It rebuilds its
workload from fixed seeds, which is cheap next to the simulation.  The
module imports no simulator code until a point runs.
"""

from __future__ import annotations

from argparse import ArgumentTypeError
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.server.protocol import Param, ProtocolError

def expand_grid(axes: Dict[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of ``axes`` in deterministic order.

    Axis order is the dict's insertion order; the last axis varies
    fastest, like nested for-loops written in the same order.
    """
    names = list(axes)
    combos = product(*(axes[name] for name in names))
    return [dict(zip(names, values)) for values in combos]


@dataclass(frozen=True)
class Experiment:
    """One paper result or sweep grid, declared once.

    ``tasks(params)`` expands canonical params into ``(label, kwargs)``
    pairs for ``point``, in output order.  ``progress(label, value)`` is
    the line printed per verified point (None: no line).  The table has
    the headers ``columns``; its rows are ``rows(params, values)`` over
    the point values in task order, or else each value's ``keys``
    (default: the columns).  ``title`` is formatted with the params.
    ``jobs`` says whether the CLI command takes ``--jobs``.
    """

    name: str
    point: Callable[..., Dict[str, Any]]
    tasks: Callable[[Dict[str, Any]], List[tuple]]
    title: str
    columns: Tuple[str, ...]
    keys: Tuple[str, ...] = ()
    rows: Optional[Callable[[Dict[str, Any], List[Dict]], List[list]]] = None
    params: Tuple[Param, ...] = ()
    help: str = ""
    progress: Optional[Callable[[str, Dict[str, Any]], Optional[str]]] = None
    jobs: bool = False
    #: What the paper reports, for a benchmark to print beside ours.
    paper: Any = None

    @property
    def target(self) -> str:
        """``point`` as the ``module:callable`` path a task names."""
        return f"{__name__}:{self.point.__name__}"

    def sweep_tasks(self, params: Dict[str, Any]) -> list:
        """``tasks(params)`` as :class:`SweepTask` s, in order."""
        from repro.parallel.tasks import SweepTask

        return [
            SweepTask.make(i, self.target, kwargs, label=label)
            for i, (label, kwargs) in enumerate(self.tasks(params))
        ]

    def table_rows(self, params: Dict[str, Any], values: List[Dict]) -> list:
        """The table's rows for the point ``values``, in task order."""
        if self.rows is not None:
            return self.rows(params, values)
        return [[v[k] for k in self.keys or self.columns] for v in values]

    def table(self, params: Dict[str, Any], values: List[Dict]) -> str:
        """The paper-style table of ``values``."""
        from repro.stats.report import format_table

        rows = self.table_rows(params, values)
        title = self.title.format(**params)
        return format_table(list(self.columns), rows, title=title)


def _verified(label: str, value: Dict[str, Any]) -> str:
    return f"{label}: verified"


# ----------------------------------------------------------------------
# SSSP points (Table 2-1 / Figure 2-1 family).
# ----------------------------------------------------------------------
def sssp_point(
    nodes: int,
    copies: int = 1,
    vertices: int = 800,
    steal: bool = False,
    replicate_queues: bool = True,
) -> Dict[str, Any]:
    """One SSSP configuration, verified against Dijkstra."""
    from repro.apps.graphs import dijkstra, geometric_graph
    from repro.apps.sssp import SSSPConfig, run_sssp

    graph = geometric_graph(
        vertices, degree=5, long_edge_fraction=0.08, seed=7
    )
    result = run_sssp(
        nodes,
        graph,
        SSSPConfig(
            copies=copies, replicate_queues=replicate_queues, steal=steal
        ),
    )
    if result.distances != dijkstra(graph, 0):
        raise AssertionError(
            f"SSSP diverged from Dijkstra (nodes={nodes}, copies={copies})"
        )
    row = result.report.table_2_1_row()
    return {
        "nodes": nodes,
        "copies": copies,
        "cycles": result.cycles,
        "messages": result.report.fabric.total_messages,
        "utilization": result.report.utilization(),
        "reads_local_over_remote": row["reads_local_over_remote"],
        "writes_local_over_remote": row["writes_local_over_remote"],
        "total_over_update": row["total_over_update"],
    }


def fig21_point(nodes: int, vertices: int = 800) -> Dict[str, Any]:
    """One Figure 2-1 x-axis point: the unreplicated run and the
    replicated, work-stealing run on ``nodes`` processors."""
    none = sssp_point(nodes, 1, vertices, replicate_queues=False)
    repl = sssp_point(
        nodes, min(4, nodes), vertices, steal=True, replicate_queues=False
    )
    return {
        "nodes": nodes,
        "none_cycles": none["cycles"],
        "none_util": none["utilization"],
        "repl_cycles": repl["cycles"],
        "repl_util": repl["utilization"],
    }


TABLE_2_1 = Experiment(
    name="table-2-1",
    help="Table 2-1: replication vs messages",
    params=(
        Param("nodes", int, 16, help="processors"),
        Param("vertices", int, 800, help="SSSP graph size"),
    ),
    point=sssp_point,
    # The paper replicated "the queues and vertices" (Section 2.5), and
    # its processors steal work from each other's queues.
    tasks=lambda params: [
        (f"copies={c}", {**params, "copies": c, "steal": True})
        for c in range(1, min(5, params["nodes"]) + 1)
    ],
    progress=lambda label, v: f"{label}: verified ({v['cycles']:,} cycles)",
    title="Table 2-1 (SSSP, {nodes} processors)",
    columns=("copies", "reads L/R", "writes L/R", "total/update"),
    keys=("copies", "reads_local_over_remote", "writes_local_over_remote",
          "total_over_update"),
    # copies -> (reads L/R, writes L/R, total/update), 16 processors.
    paper={
        1: (1.25, 3.40, 6.18),
        2: (1.70, 1.18, 2.91),
        3: (1.64, 0.70, 2.24),
        4: (2.14, 0.45, 1.89),
        5: (2.32, 0.36, 1.68),
    },
)


def _fig_2_1_rows(params: Dict[str, Any], values: List[Dict]) -> List[list]:
    # Efficiency = T(1) / (n * T(n)), against the unreplicated 1-node run.
    base = values[0]["none_cycles"]
    return [
        [
            v["nodes"],
            base / (v["nodes"] * v["none_cycles"]),
            v["none_util"],
            base / (v["nodes"] * v["repl_cycles"]),
            v["repl_util"],
        ]
        for v in values
    ]


FIG_2_1 = Experiment(
    name="fig-2-1",
    help="Figure 2-1: SSSP efficiency/utilization",
    params=(
        Param("max_nodes", int, 32, help="largest processor count"),
        Param("vertices", int, 800, help="SSSP graph size"),
    ),
    point=fig21_point,
    tasks=lambda params: [
        (f"{n} node(s)", {"nodes": n, "vertices": params["vertices"]})
        for n in (1, 2, 4, 8, 16, 32, 64)
        if n <= params["max_nodes"]
    ],
    progress=_verified,
    title="Figure 2-1 (efficiency): SSSP vs processors",
    columns=("nodes", "eff none", "util none", "eff repl", "util repl"),
    rows=_fig_2_1_rows,
    jobs=True,
)


# ----------------------------------------------------------------------
# Delayed-operation and latency points (Table 3-1 / Section 3.1).
# ----------------------------------------------------------------------
def _timed(machine, warm, body) -> int:
    """Cycles node 0 spends in ``body(ctx)`` once ``warm(ctx)`` has
    warmed the translation (both return generators)."""

    def worker(ctx):
        yield from warm(ctx)
        start = machine.engine.now
        yield from body(ctx)
        return machine.engine.now - start

    thread = machine.spawn(0, worker)
    machine.run()
    return thread.result


def delayed_op_point(op: str, operand: int = 0, home: int = 1) -> Dict:
    """One delayed op on a 2-node machine, timed from issue to result
    read, on a word mastered on node ``home`` (1: adjacent).  The CM
    execution is what is left after the documented fixed costs: issue,
    request formation, the round trip, result read."""
    from repro.core.params import PAPER_PARAMS, OpCode
    from repro.machine import PlusMachine

    code = OpCode(op)
    machine = PlusMachine(n_nodes=2)
    if code in (OpCode.QUEUE, OpCode.DEQUEUE):
        queue = machine.shm.alloc_queue(home=home)
        va = queue.tail_va if code is OpCode.QUEUE else queue.head_va
    else:
        va = machine.shm.alloc(1, home=home).base

    def body(ctx):
        yield from ctx.result((yield from ctx.issue(code, va, operand)))

    cycles = _timed(machine, lambda ctx: ctx.delayed_read(va), body)
    p = PAPER_PARAMS
    fixed = p.issue_delayed_cycles + p.read_result_cycles
    fixed += 2 * p.one_way_latency(home) + p.cm_forward_cycles
    return {
        "operation": op,
        "end_to_end": cycles,
        "cm_execution": cycles - fixed,
        "paper": p.op_cycles[code],
    }


def remote_read_point(hops: int) -> Dict[str, Any]:
    """A blocking read of a word mastered ``hops`` links away on a 4x1
    mesh, timed after a first read warms the translation."""
    from repro.machine import PlusMachine

    machine = PlusMachine(n_nodes=4, width=4, height=1)
    seg = machine.shm.alloc(1, home=hops)

    def read(ctx):
        return ctx.read(seg.base)

    return {"hops": hops, "cycles": _timed(machine, read, read)}


def pipelined_fetch_add_point(ops: int = 8) -> Dict[str, Any]:
    """``ops`` fetch-and-adds to an adjacent master, all issued before
    any result is read: cycles from first issue to last result."""
    from repro.machine import PlusMachine

    machine = PlusMachine(n_nodes=2)
    seg = machine.shm.alloc(ops, home=1)

    def body(ctx):
        tokens = []
        for i in range(ops):
            tokens.append((yield from ctx.issue_fetch_add(seg.base + i, 1)))
        for token in tokens:
            yield from ctx.result(token)

    cycles = _timed(machine, lambda ctx: ctx.delayed_read(seg.base), body)
    return {"ops": ops, "cycles": cycles}


#: Table 3-1's rows: each delayed op and the operand it is issued with.
TABLE_3_1_CASES = (
    ("xchng", 5), ("cond-xchng", 5), ("fetch-and-add", 1),
    ("fetch-and-set", 0), ("queue", 1), ("dequeue", 0), ("min-xchng", 3),
    ("delayed-read", 0),
)

TABLE_3_1 = Experiment(
    name="table-3-1",
    help="Table 3-1: delayed-operation costs",
    point=delayed_op_point,
    tasks=lambda params: [
        (op, {"op": op, "operand": operand})
        for op, operand in TABLE_3_1_CASES
    ],
    title="Table 3-1: delayed operations (adjacent node)",
    columns=("operation", "end-to-end", "CM execution", "paper"),
    keys=("operation", "end_to_end", "cm_execution", "paper"),
)


def _costs_rows(params: Dict[str, Any], values: List[Dict]) -> List[list]:
    from repro.core.params import PAPER_PARAMS as p

    round_trip = 2 * p.one_way_latency(1)
    return [
        ["remote read, adjacent", values[0]["cycles"], "32 + 24 round trip"],
        ["adjacent round trip", round_trip, "24 (measured on the router)"],
        ["extra hop", p.net_hop_cycles, "4 cycles each way"],
        ["delayed-op issue", p.issue_delayed_cycles, "~25 cycles"],
        ["result read", p.read_result_cycles, "~10 cycles"],
    ]


COSTS = Experiment(
    name="costs",
    help="Section 3.1 latency budget",
    point=remote_read_point,
    tasks=lambda params: [("remote read", {"hops": 1})],
    title="Section 3.1 cost model",
    columns=("quantity", "cycles", "paper"),
    rows=_costs_rows,
)


# ----------------------------------------------------------------------
# Placement-policy points (Section 2.4 celebrity-page benchmark).
# ----------------------------------------------------------------------
def placement_point(
    policy: str,
    topology: str,
    nodes: int,
    pages: int = 128,
    requests: int = 120,
    seed: int = 0,
) -> Dict[str, Any]:
    """One placement-policy configuration under zipfian skew."""
    from repro.apps.placement import PlacementConfig, run_placement

    result = run_placement(
        nodes,
        PlacementConfig(
            policy=policy, pages=pages, requests=requests, seed=seed
        ),
        topology=topology,
    )
    fabric = result.report.fabric
    return {
        "policy": policy,
        "topology": topology,
        "nodes": nodes,
        "cycles": result.cycles,
        "messages": fabric.total_messages,
        "mean_hops": round(fabric.mean_hops, 3),
        "replications": result.replications,
        "migrations": result.migrations,
        "checksum": result.checksum,
    }


# ----------------------------------------------------------------------
# Beam-search points (Figure 3-1 family).
# ----------------------------------------------------------------------
#: Figure 3-1's named synchronization styles.
BEAM_MODES = ("blocking", "delayed", "ctx16", "ctx40", "ctx140")


def _beam_config(mode: str, beam: int):
    from repro.apps.beam import BeamConfig

    if mode in ("blocking", "delayed"):
        return BeamConfig(sync_mode=mode, beam=beam)
    if mode.startswith("ctx"):
        return BeamConfig(
            sync_mode="context",
            threads_per_node=2,
            context_switch_cycles=int(mode[3:]),
            beam=beam,
        )
    raise ValueError(f"unknown beam sync mode {mode!r}")


def beam_point(mode: str, nodes: int = 8, beam: int = 60) -> Dict[str, Any]:
    """One Figure 3-1 row: ``mode`` on ``nodes`` processors, verified
    against the sequential beam-search reference: every state it keeps
    has the reference score, and the best final cost is the
    reference's."""
    from repro.apps.beam import run_beam
    from repro.apps.graphs import (
        beam_search_reference,
        initial_costs,
        layered_lattice,
    )

    lattice = layered_lattice(
        n_layers=12, width=128, branching=3, seed=5, hot_fraction=0.6
    )
    initial = initial_costs(lattice, seed=1)
    reference = beam_search_reference(lattice, beam=beam, initial=initial)
    result = run_beam(nodes, lattice, _beam_config(mode, beam))
    for state, cost in reference.items():
        if result.scores.get(state) != cost:
            raise AssertionError(
                f"beam search diverged from reference ({mode}, "
                f"nodes={nodes}, state={state})"
            )
    last = lattice.n_layers - 1
    best = min(
        reference[s]
        for s in (lattice.state_id(last, i) for i in range(lattice.width))
        if s in reference
    )
    if result.best_final_cost != best:
        raise AssertionError(
            f"beam search best final cost {result.best_final_cost} != "
            f"reference {best} ({mode}, nodes={nodes})"
        )
    return {
        "mode": mode,
        "nodes": nodes,
        "cycles": result.cycles,
        "utilization": result.report.utilization(),
    }


FIG_3_1 = Experiment(
    name="fig-3-1",
    help="Figure 3-1: beam-search sync styles",
    params=(Param("nodes", int, 8, help="processors"),),
    point=beam_point,
    # Task 0 is the single-node blocking baseline the efficiency column
    # divides by; the paper's five sync styles follow.
    tasks=lambda params: [
        ("base", {"mode": "blocking", "nodes": 1, "beam": 60}),
        *(
            (mode, {"mode": mode, "nodes": params["nodes"], "beam": 60})
            for mode in BEAM_MODES
        ),
    ],
    progress=lambda label, v: None if label == "base" else _verified(label, v),
    title="Figure 3-1: beam search on {nodes} nodes",
    columns=("sync style", "cycles", "efficiency", "utilization"),
    rows=lambda params, values: [
        [
            v["mode"],
            v["cycles"],
            values[0]["cycles"] / (params["nodes"] * v["cycles"]),
            v["utilization"],
        ]
        for v in values[1:]
    ],
    jobs=True,
)


# ----------------------------------------------------------------------
# The sweep grids: comma-separated axes, crossed in declaration order.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ListParam(Param):
    """A sweep's comma-list param: ints, or else words from ``items``.
    A served request's words reach the points unchecked (a bad one
    fails its point); :meth:`check`, the CLI flag's type, refuses them."""

    type: type = str
    items: Tuple[str, ...] = ()

    def parse(self, text: str) -> list:
        values = [v for v in text.split(",") if v]
        try:
            return values if self.items else [int(v) for v in values]
        except ValueError:
            raise ProtocolError(
                "bad_params", f"expected comma-separated ints: {text!r}"
            )

    def check(self, text: str) -> str:
        """``text`` unchanged; a usage error unless it lists at least
        one item and every item is good."""
        try:
            values = self.parse(text)
        except ProtocolError:
            values = None
        if not values or not set(values) <= set(self.items or values):
            kind = "{%s}" % ",".join(self.items) if self.items else "ints"
            raise ArgumentTypeError(f"expected {kind}, comma-separated")
        return text


def _grid(**axes: ListParam):
    """A sweep's task expansion: each point kwarg in ``axes`` ranges
    over the items of a comma-list param; the other params pass through
    to every point."""

    def tasks(params: Dict[str, Any]) -> List[tuple]:
        ranged = {param.name for param in axes.values()}
        fixed = {k: v for k, v in params.items() if k not in ranged}
        points = expand_grid(
            {kw: param.parse(params[param.name]) for kw, param in axes.items()}
        )
        return [
            (", ".join(f"{k}={v}" for k, v in point.items()),
             {**point, **fixed})
            for point in points
        ]

    return tasks


_NODES = ListParam("nodes", str, "2,4,8",
                   help="comma-separated processor counts")
_COPIES = ListParam("copies", str, "1,2", help="sssp: replication degrees")
_MODES = ListParam("modes", str, ",".join(BEAM_MODES), items=BEAM_MODES,
                   help="beam: comma-separated sync styles")
#: ``repro.apps.placement.POLICIES`` and the topology registry's names,
#: spelled out so that parsing a flag loads no simulator module.
_POLICIES = ListParam("policies", str, "static,replicate,migrate",
                      items=("static", "replicate", "migrate"),
                      help="placement: comma-separated policies")
_TOPOLOGIES = ListParam("topologies", str, "mesh,torus",
                        items=("mesh", "torus"),
                        help="placement: comma-separated topologies")

SWEEPS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            name="sssp",
            params=(
                _NODES,
                _COPIES,
                Param("vertices", int, 800, help="sssp: graph size"),
            ),
            point=sssp_point,
            tasks=_grid(nodes=_NODES, copies=_COPIES),
            title="SSSP sweep ({vertices} vertices)",
            columns=(
                "nodes", "copies", "cycles", "messages", "utilization",
                "total_over_update",
            ),
        ),
        Experiment(
            name="beam",
            params=(
                _NODES,
                _MODES,
                Param("beam", int, 60, help="beam: beam width"),
            ),
            point=beam_point,
            tasks=_grid(nodes=_NODES, mode=_MODES),
            title="Beam-search sweep (beam {beam})",
            columns=("nodes", "mode", "cycles", "utilization"),
        ),
        Experiment(
            name="placement",
            params=(
                _POLICIES,
                _TOPOLOGIES,
                _NODES,
                Param("pages", int, 128,
                      help="placement: hot (celebrity) page pool size"),
                Param("requests", int, 120,
                      help="placement: accesses issued per node"),
                Param("seed", int, 0, help="placement: access-stream seed"),
            ),
            point=placement_point,
            tasks=_grid(policy=_POLICIES, topology=_TOPOLOGIES, nodes=_NODES),
            title="Placement-policy sweep ({pages} hot pages, zipfian skew)",
            columns=(
                "policy", "topology", "nodes", "cycles", "messages",
                "mean_hops", "replications", "migrations",
            ),
        ),
    )
}

#: The paper's results, in the order ``python -m repro list`` shows.
EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (TABLE_2_1, FIG_2_1, TABLE_3_1, FIG_3_1, COSTS)
}
