"""Repository-quality guards: determinism, docstrings, small-page edges,
hot-path rules."""

import ast
import enum
import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.core.params import TimingParams
from repro.machine import PlusMachine

from tests.conftest import SMALL_PAGES
from tests.helpers import run_threads


class TestDeterminism:
    """The simulator is an experiment platform: identical inputs must
    produce identical measurements, bit for bit."""

    @staticmethod
    def _workload():
        machine = PlusMachine(n_nodes=4)
        seg = machine.shm.alloc(8, home=1, replicas=[2])
        queue = machine.shm.alloc_queue(home=0)

        def worker(ctx, who):
            for i in range(10):
                yield from ctx.write(seg.base + (who + i) % 8, i)
                yield from ctx.fetch_add(seg.base, 1)
                yield from ctx.enqueue(queue, who * 100 + i)
                yield from ctx.compute(17 * who + 3)
            yield from ctx.fence()

        for node in range(4):
            machine.spawn(node, worker, node)
        report = machine.run()
        return (
            report.cycles,
            report.fabric.total_messages,
            report.counters.busy_cycles,
            [machine.peek(seg.base + i) for i in range(8)],
        )

    def test_identical_runs_identical_results(self):
        assert self._workload() == self._workload()

    def test_sssp_is_deterministic(self):
        from repro.apps.graphs import geometric_graph
        from repro.apps.sssp import SSSPConfig, run_sssp

        graph = geometric_graph(80, seed=2)
        a = run_sssp(4, graph, SSSPConfig(copies=2))
        b = run_sssp(4, graph, SSSPConfig(copies=2))
        assert a.cycles == b.cycles
        assert a.distances == b.distances
        assert a.relaxations == b.relaxations


def _public_members():
    """Yield (qualified name, object) for the public API surface."""
    package = repro
    for module_info in pkgutil.walk_packages(
        package.__path__, prefix="repro."
    ):
        if module_info.name == "repro.__main__":
            continue  # importing it would run the CLI
        module = importlib.import_module(module_info.name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj


class TestDocumentation:
    def test_every_public_item_has_a_docstring(self):
        missing = [
            name
            for name, obj in _public_members()
            if not (obj.__doc__ or "").strip()
        ]
        assert not missing, f"undocumented public items: {missing}"

    def test_every_module_has_a_docstring(self):
        missing = []
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            if module_info.name == "repro.__main__":
                continue
            module = importlib.import_module(module_info.name)
            if not (module.__doc__ or "").strip():
                missing.append(module.__name__)
        assert not missing, f"undocumented modules: {missing}"


#: Modules the event loop runs on every simulated message or step.
PER_EVENT_MODULES = (
    "repro.node.cpu",
    "repro.runtime.thread",
    "repro.core.coherence",
    "repro.core.crash",
    "repro.core.delayed",
    "repro.core.ops",
    "repro.core.reliable",
    "repro.network.fabric",
    "repro.network.message",
    "repro.check.invariants",
    "repro.check.oracle",
    "repro.apps.sssp",
    "repro.apps.beam",
)


def _enum_member_loads(source: str, namespace: dict) -> list:
    """``Name.ATTR`` loads inside function bodies whose ``Name`` is an
    ``enum.Enum`` subclass in ``namespace``, as ``"line: Name.ATTR"``."""
    found = []

    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function = True
        elif (
            in_function
            and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
        ):
            obj = namespace.get(node.value.id)
            if isinstance(obj, type) and issubclass(obj, enum.Enum):
                found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return found


class TestHotPathRules:
    """DESIGN.md, "Hot-path rules": a function body on the per-event path
    never loads ``Enum.MEMBER`` (EnumType's slow attribute hook) but a
    module alias bound at import."""

    @pytest.mark.parametrize("name", PER_EVENT_MODULES)
    def test_no_enum_member_loads_in_function_bodies(self, name):
        module = importlib.import_module(name)
        source = inspect.getsource(module)
        assert _enum_member_loads(source, vars(module)) == []

    def test_the_guard_sees_a_member_load(self):
        source = (
            "_A = Colour.RED\n"
            "def f(c):\n"
            "    return c is Colour.RED or c is _A or (lambda: Colour.BLUE)\n"
        )
        colour = enum.Enum("Colour", "RED BLUE")
        assert _enum_member_loads(source, {"Colour": colour}) == [
            "3: Colour.RED", "3: Colour.BLUE",
        ]


#: Crash-extension names besides those containing "crash" (DESIGN.md
#: §12): state and hooks of :class:`repro.core.crash.CrashTolerantCM`.
CRASH_NAMES = {
    "down", "_remote_reqs", "on_restart", "on_promoted_master",
    "on_reliable_flush", "on_peer_restart",
}


def _crash_names(source: str) -> list:
    """Crash-extension names (attributes, variables, arguments and
    methods) the ``CoherenceManager`` class body in ``source`` uses, as
    ``"line: name"``."""
    tree = ast.parse(source)
    cls = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CoherenceManager"
    )
    found = []
    for node in ast.walk(cls):
        name = (
            getattr(node, "attr", None) or getattr(node, "id", None)
            or getattr(node, "arg", None)
            or (node.name if isinstance(node, ast.FunctionDef) else None)
        )
        if name and ("crash" in name or name in CRASH_NAMES):
            found.append(f"{node.lineno}: {name}")
    return sorted(found, key=lambda line: int(line.split(":")[0]))


class TestCrashFreeProtocol:
    """DESIGN.md §12: crash tolerance lives in one subclass, so the
    paper's coherence manager names none of its state or hooks."""

    def test_base_coherence_manager_names_no_crash_state(self):
        module = importlib.import_module("repro.core.coherence")
        assert _crash_names(inspect.getsource(module)) == []

    def test_the_guard_sees_a_crash_branch(self):
        source = (
            "class CoherenceManager:\n"
            "    def receive(self, msg, crash_gen=0):\n"
            "        if self.down or self._crashable:\n"
            "            self._remote_reqs.pop(msg.xid)\n"
            "    def on_crash(self):\n"
            "        pass\n"
        )
        assert _crash_names(source) == [
            "2: crash_gen", "3: down", "3: _crashable", "4: _remote_reqs",
            "5: on_crash",
        ]


class TestSmallPageMachines:
    """The 64-word-page configuration exercises wrap-around and
    multi-page behaviour that 1024-word pages rarely reach."""

    def test_queue_wraps_ring_across_nodes(self, machine4_small):
        machine = machine4_small
        queue = machine.shm.alloc_queue(home=0)
        capacity = machine.params.queue_capacity
        assert capacity == 56
        received = []

        def producer(ctx):
            for i in range(130):  # > 2 full ring laps
                while True:
                    ret = yield from ctx.enqueue(queue, i)
                    if not ret & 0x80000000:
                        break
                    yield from ctx.spin(20)

        def consumer(ctx):
            while len(received) < 130:
                word = yield from ctx.dequeue(queue)
                if word & 0x80000000:
                    received.append(word & 0x7FFFFFFF)
                else:
                    yield from ctx.spin(15)

        run_threads(machine, (1, producer), (2, consumer))
        assert received == list(range(130))

    def test_multi_page_segment_spans_pages(self, machine4_small):
        machine = machine4_small
        seg = machine.shm.alloc(200, home=0, replicas=[3])  # 4 pages
        assert len(seg.vpages) == 4

        def writer(ctx):
            for i in range(0, 200, 13):
                yield from ctx.write(seg.addr(i), i)
            yield from ctx.fence()

        run_threads(machine, (1, writer))
        for i in range(0, 200, 13):
            assert machine.peek_copy(seg.addr(i), 3) == i

    def test_sssp_works_with_small_pages(self):
        from repro.apps.graphs import dijkstra, geometric_graph
        from repro.apps.sssp import SSSPApp, SSSPConfig

        machine = PlusMachine(n_nodes=4, params=SMALL_PAGES)
        graph = geometric_graph(60, seed=9)
        app = SSSPApp(machine, graph, SSSPConfig(copies=2))
        app.spawn_workers()
        machine.run()
        assert app.distances() == dijkstra(graph, 0)

    def test_tiny_tlb_thrashes_but_stays_correct(self):
        params = TimingParams(page_words=64, queue_ring_base=8, tlb_entries=2)
        machine = PlusMachine(n_nodes=2, params=params)
        segs = [machine.shm.alloc(4, home=0) for _ in range(6)]
        for i, seg in enumerate(segs):
            machine.poke(seg.base, i * 11)

        def reader(ctx):
            total = 0
            for _ in range(3):
                for seg in segs:
                    total += yield from ctx.read(seg.base)
            return total

        _, threads = run_threads(machine, (0, reader))
        assert threads[0].result == 3 * sum(i * 11 for i in range(6))
        table = machine.nodes[0].page_table
        assert table.tlb.misses > 6  # eviction thrash really happened
