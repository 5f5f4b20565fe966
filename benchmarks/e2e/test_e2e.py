"""Checks of the end-to-end benchmark itself, at reduced sizes.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e
"""

from __future__ import annotations

import io
import itertools
import json
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import measure
import workloads as wl
from layers import Spans

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(autouse=True)
def small(monkeypatch):
    """Shrink every workload so one op takes well under a second."""
    monkeypatch.setattr(wl, "INPUT_POOL", 3)
    monkeypatch.setattr(wl.SSSP, "vertices", 120)
    monkeypatch.setattr(wl.SSSP, "fixed_ops", 2)
    monkeypatch.setattr(wl.Beam, "layers", 4)
    monkeypatch.setattr(wl.Beam, "width", 24)
    monkeypatch.setattr(wl.Beam, "fixed_ops", 2)
    monkeypatch.setattr(wl.Scale, "nodes", 64)
    monkeypatch.setattr(wl.Scale, "requests", 10)
    monkeypatch.setattr(wl.Scale, "backing_pages", 4096)
    monkeypatch.setattr(wl.Check, "fixed_ops", 3)


def args(workload: str, trace: int = 0, seed: int = 1) -> Namespace:
    return Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace,
                     child="measure", spans=None)


def run_in_process(name: str, trace: int = 0, seed: int = 1):
    spans = Spans()
    workload = wl.IN_PROCESS[name](seed, spans)
    names = PER_LAYER if trace else E2E
    return measure.run_in_process(args(name, trace, seed), workload, names, spans)


def test_spec_names_use_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]] + sorted(E2E) + sorted(PER_LAYER)
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", sorted(wl.IN_PROCESS))
@pytest.mark.parametrize("trace", [0, 1])
def test_in_process_metric_names_match_spec(name, trace):
    result = run_in_process(name, trace)
    expected = PER_LAYER if trace else E2E - {"setup_s"}  # the parent adds setup_s
    assert set(result["metrics"]) == expected
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == wl.IN_PROCESS[name].fixed_ops


@pytest.mark.parametrize("name", ["sssp", "beam"])
def test_planted_wrong_reference_counts_as_failed(name, monkeypatch):
    monkeypatch.setattr(wl.IN_PROCESS[name], "reference", lambda self, i: {0: -1})
    result = run_in_process(name)
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]


def test_checksum_mismatch_on_default_seed_is_incorrect(monkeypatch):
    monkeypatch.setitem(wl.REFERENCE, "check", {"cycles": 1, "messages": 1})
    result = run_in_process("check", seed=0)
    assert result["failed"] == 0
    assert not result["correct"]


@pytest.mark.parametrize("name", sorted(wl.IN_PROCESS))
def test_sim_cycles_repeat_exactly(name):
    first = run_in_process(name, trace=1)["metrics"]
    second = run_in_process(name, trace=1)["metrics"]
    for key in ("sim.cycles", "sim.events", "network.messages"):
        assert first[key] == second[key]
    assert first["sim.cycles"] > 0


@pytest.mark.parametrize("seed", [0, 7])
def test_serve_schedule_mix_is_exact_in_every_block(seed):
    for client in range(wl.SERVE_CLIENTS):
        keys = list(itertools.islice(wl.client_schedule(seed, client), 100))
        own = {wl.serve_key(seed, client, i) for i in range(31)}
        seen = set()
        for start in range(0, 100, 10):
            fresh = 0
            for key in keys[start:start + 10]:
                fresh += key in own and key not in seen
                seen.add(key)
            assert fresh == 3
        assert keys == list(itertools.islice(wl.client_schedule(seed, client), 100))


@pytest.mark.parametrize("trace", [0, 1])
def test_serve_metrics_and_no_process_left_behind(trace, monkeypatch):
    started = []

    class Recorded(wl.Serve):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            started.append(list(self.pids))

    monkeypatch.setattr(wl, "Serve", Recorded)
    monkeypatch.setattr(wl, "SERVE_VERIFY", 4)
    ns = args("serve", trace)
    ns.seconds = 1.0
    result = measure.run_serve(ns, io.StringIO(), PER_LAYER if trace else E2E, Spans())
    expected = PER_LAYER if trace else E2E - {"setup_s"}
    assert set(result["metrics"]) == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    (pids,) = started
    assert len(pids) >= 2  # the daemon and its pool worker
    assert not any(wl._alive(pid) for pid in pids)


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bench / "bench.py"), "--workload", "sssp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
