"""Import-closure guards: each process compiles only what it runs.

Every ``repro`` process compiles the modules it imports, so the import
graph is set-up time (DESIGN.md, "Cold start").  Each test imports in a
fresh interpreter and compares module *sets*, never timings.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"

_REPORT = """
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules if m == "repro" or m.startswith("repro.")
)))
"""


def json_lines(code: str, *path: Path) -> list:
    """Each JSON line ``code`` prints, then the ``repro`` modules loaded
    after it, from a fresh interpreter with ``src`` (and ``path``)
    importable."""
    paths = [str(p) for p in (SRC, *path)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def modules_after(code: str, *path: Path) -> list:
    """The ``repro`` modules loaded after running ``code``."""
    return json_lines(code, *path)[-1]


#: The machine and every layer it is built from.
SIMULATOR = (
    "repro.machine", "repro.core", "repro.node", "repro.network",
    "repro.memory", "repro.runtime", "repro.sim", "repro.apps",
    "repro.check",
)


def simulator(modules: list) -> list:
    """The simulator modules among ``modules``."""
    return [m for m in modules if m.startswith(SIMULATOR)]


class TestImportClosure:
    def test_client_import_loads_no_daemon_or_parallel(self):
        loaded = modules_after("from repro.server import ReproClient")
        assert "repro.server.daemon" not in loaded
        assert [m for m in loaded if m.startswith("repro.parallel")] == []

    def test_one_app_loads_no_other_app(self):
        loaded = modules_after("import repro.apps.sssp")
        assert "repro.apps.ledger" not in loaded

    def test_cli_and_daemon_load_no_simulator(self):
        loaded = modules_after(
            "import repro.cli, repro.server.daemon\n"
            "repro.cli.build_parser().format_help()\n"
        )
        assert simulator(loaded) == []

    def test_daemon_loads_no_simulator(self):
        loaded = modules_after(
            "import os\n"
            "from repro.server import ReproDaemon\n"
            "daemon = ReproDaemon(port=0, jobs=1, log=open(os.devnull, 'w'))\n"
            "daemon.start()\n"
            "daemon.shutdown()\n"
        )
        assert simulator(loaded) == []

    def test_stress_harness_loads_no_multiprocessing(self):
        # Only sweeps and the daemon fan out across processes.
        host, _ = json_lines(
            "import json, sys\n"
            "import repro.check.stress, repro.runtime.collections\n"
            "print(json.dumps(\n"
            "    [m for m in sys.modules if m.startswith('multiprocessing')]\n"
            "))\n"
        )
        assert host == []

    def test_pool_worker_compiles_the_simulator_before_its_first_task(self):
        # The daemon forks its workers from a process that never
        # imported the simulator.  Each worker must compile it before
        # taking a task, not inside a client's timed request.
        seen, loaded = json_lines(
            "import json, sys\n"
            "from repro.parallel.executor import WorkerPool\n"
            "from repro.parallel.tasks import SweepTask\n"
            "def loaded():\n"
            "    return sorted(sys.modules)\n"
            "with WorkerPool(1) as pool:\n"
            "    task = SweepTask.make(0, '__main__:loaded')\n"
            "    print(json.dumps(pool.submit(task).result(60).value))\n"
        )
        assert simulator(loaded) == []
        assert {"repro.machine", "repro.runtime.collections"} <= set(seen)

    def test_first_check_op_imports_nothing(self):
        # The e2e ``check`` op: set-up imports what the workload module
        # imports, so the timed run_stress must compile no new module.
        setup = "import workloads\n"
        op = "workloads.run_stress(workloads.stress_seed(0, 0), faults=True)\n"
        assert modules_after(setup + op, E2E) == modules_after(setup, E2E)

    def test_crash_free_run_loads_no_crash_extension(self):
        # Only a plan that schedules crashes arms the crash-tolerant CM.
        loaded = modules_after(
            "from repro.check.stress import run_stress\n"
            "run_stress(0, faults=True)\n"
        )
        assert "repro.core.crash" not in loaded


class TestPackageInits:
    """DESIGN.md, "Cold start": a package ``__init__`` imports nothing
    eagerly; its exports resolve on first use."""

    INITS = sorted((SRC / "repro").rglob("__init__.py"))

    @pytest.mark.parametrize(
        "init", INITS,
        ids=[".".join(p.parent.relative_to(SRC).parts) for p in INITS],
    )
    def test_init_imports_only_the_lazy_helper(self, init):
        imports = [
            ast.unparse(node) for node in ast.parse(init.read_text()).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == ["from repro import _lazy"]

    def test_dir_lists_every_export(self):
        import repro.core

        assert set(repro.core.__all__) <= set(dir(repro.core))
