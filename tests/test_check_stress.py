"""The seeded stress harness and its CLI entry point."""

import random

import pytest

from repro.check import (
    JitteredLinkModel,
    StressConfig,
    run_seeds,
    run_stress,
)
from repro.cli import main
from repro.core.params import TimingParams


# ----------------------------------------------------------------------
# Determinism: a seed is a complete, reproducible experiment.
# ----------------------------------------------------------------------
def test_config_derivation_is_deterministic():
    a = StressConfig.from_seed(17)
    b = StressConfig.from_seed(17)
    assert a == b
    assert StressConfig.from_seed(18) != a


def test_same_seed_reproduces_exactly():
    a = run_stress(12)
    b = run_stress(12)
    assert a.ok and b.ok
    assert (a.cycles, a.messages) == (b.cycles, b.messages)
    assert a.report.chains_checked == b.report.chains_checked
    assert a.report.words_replayed == b.report.words_replayed


def test_seed_range_passes_clean():
    results = run_seeds(10)
    assert len(results) == 10
    assert all(r.ok for r in results), [
        r.describe() for r in results if not r.ok
    ]
    # The generator actually exercises the machine: traffic flowed.
    assert all(r.messages > 0 for r in results)
    assert sum(r.report.chains_checked for r in results) > 50


@pytest.mark.xfail(
    strict=True,
    reason="open defect: a retransmission storm exhausts the retry "
    "budget and these faulty seeds end in NodeUnreachable",
)
@pytest.mark.parametrize("seed", [485, 2363, 9779])
def test_retransmission_storm_seeds_pass(seed):
    assert run_stress(seed, faults=True).ok


def test_configs_vary_across_seeds():
    configs = [StressConfig.from_seed(s) for s in range(30)]
    assert len({(c.width, c.height) for c in configs}) > 1
    assert len({c.page_words for c in configs}) > 1
    assert {c.protocol for c in configs} == {"update", "invalidate"}
    assert any(c.jitter for c in configs)
    assert any(not c.jitter for c in configs)


# ----------------------------------------------------------------------
# Fault injection: every mutated run must be caught.
# ----------------------------------------------------------------------
def test_injected_bug_is_caught_across_seeds():
    results = run_seeds(6, inject_bug=True, keep_going=True)
    assert all(r.caught for r in results), [
        r.describe() for r in results if not r.caught
    ]


def test_injected_bug_report_is_cycle_stamped():
    result = run_stress(0, inject_bug=True)
    assert result.caught
    assert result.report is not None and not result.report.ok
    violation = result.report.violations[0]
    assert violation.cycle is not None and violation.cycle > 0
    assert violation.node is not None


# ----------------------------------------------------------------------
# Jittered links keep the fabric's FIFO ordering guarantee.
# ----------------------------------------------------------------------
def test_jittered_link_model_respects_fifo_floor():
    from repro.network.topology import Mesh

    mesh = Mesh(4)
    model = JitteredLinkModel(
        TimingParams(), random.Random(3), amplitude=9, topology=mesh
    )
    steps = mesh.route_steps(0, 3)
    floor = 0
    for depart in range(0, 200, 7):
        arrive = model.traverse_steps(0, steps, depart, 16, not_before=floor)
        assert arrive >= floor
        floor = arrive + 1


# ----------------------------------------------------------------------
# CLI wiring.
# ----------------------------------------------------------------------
def test_cli_check_passes(capsys):
    assert main(["check", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 seed(s) checked, 0 failure(s)" in out


def test_cli_check_single_seed(capsys):
    assert main(["check", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "seed 5: ok" in out
    assert "oracle: ok" in out


def test_cli_check_inject_bug_catches(capsys):
    assert main(["check", "--seeds", "2", "--inject-bug"]) == 0
    out = capsys.readouterr().out
    assert "2/2 mutated runs caught" in out


def test_cli_check_is_listed(capsys):
    assert main(["list"]) == 0
    assert "check" in capsys.readouterr().out
