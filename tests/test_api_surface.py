"""API-surface and fault-injection tests."""

import pytest

import repro
import repro.apps
import repro.baselines
import repro.check
import repro.core
import repro.memory
import repro.network
import repro.node
import repro.parallel
import repro.runtime
import repro.server
import repro.sim
import repro.stats
from repro.errors import PlusError, ProtocolError
from repro.machine import PlusMachine

from tests.helpers import run_threads


class TestExports:
    @pytest.mark.parametrize(
        "module",
        [
            repro,
            repro.apps,
            repro.runtime,
            repro.stats,
            repro.core,
            repro.node,
            repro.network,
            repro.memory,
            repro.sim,
            repro.check,
            repro.parallel,
            repro.server,
            repro.baselines,
        ],
    )
    def test_all_names_resolve(self, module):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_top_level_convenience(self):
        machine = repro.PlusMachine(n_nodes=2)
        assert machine.n_nodes == 2
        assert repro.PAPER_PARAMS.cycle_ns == 40.0
        assert repro.__version__

    def test_exception_hierarchy(self):
        from repro.errors import (
            AddressError,
            ConfigError,
            DeadlockError,
            MappingError,
            ProtocolError,
            ReplicationError,
            SimulationError,
            ThreadError,
        )

        for exc in (
            AddressError,
            ConfigError,
            DeadlockError,
            MappingError,
            ProtocolError,
            ReplicationError,
            SimulationError,
            ThreadError,
        ):
            assert issubclass(exc, PlusError)


class TestFaultInjection:
    def test_corrupted_queue_offset_is_caught(self):
        """Software scribbling over a queue's tail-offset word makes the
        next hardware queue op fail loudly, not silently corrupt."""
        machine = PlusMachine(n_nodes=2)
        queue = machine.shm.alloc_queue(home=0)
        machine.poke(queue.tail_va, 3)  # inside the header, not the ring

        def worker(ctx):
            yield from ctx.enqueue(queue, 1)

        machine.spawn(0, worker)
        with pytest.raises(ProtocolError):
            machine.run()

    def test_double_result_read_is_caught(self):
        from repro.errors import ThreadError

        machine = PlusMachine(n_nodes=2)
        seg = machine.shm.alloc(1, home=1)

        def worker(ctx):
            token = yield from ctx.issue_fetch_add(seg.base, 1)
            yield from ctx.result(token)
            yield from ctx.result(token)  # slot already freed

        machine.spawn(0, worker)
        with pytest.raises(ThreadError):
            machine.run()

    def test_access_to_unmapped_address_is_caught(self):
        from repro.errors import MappingError

        machine = PlusMachine(n_nodes=2)

        def worker(ctx):
            yield from ctx.read(10_000_000)  # no such page

        machine.spawn(0, worker)
        with pytest.raises(MappingError):
            machine.run()

    def test_write_to_unmapped_address_is_caught(self):
        from repro.errors import MappingError

        machine = PlusMachine(n_nodes=2)

        def worker(ctx):
            yield from ctx.write(10_000_000, 1)

        machine.spawn(0, worker)
        with pytest.raises(MappingError):
            machine.run()
