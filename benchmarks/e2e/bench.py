"""End-to-end benchmark of the PLUS simulator: five workloads, one command.

    python3 benchmarks/e2e/bench.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--spans PATH]

Each workload runs in fresh child processes, one after another: two
that only set up and one that sets up and then measures, so ``setup_s``
is the median of three fresh set-ups and ``peak_rss_mb`` belongs to that
workload alone.  Inputs come from ``--seed`` (default 0); sizes are fixed
in ``workloads.py``.  Every op's output is checked; a wrong one counts
as failed.  On the default seed the fixed ops must also reproduce the
reference checksums.

``--trace 0`` (default) prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics from a run
that profiles each op with cProfile (``--spans PATH`` also writes the op
spans).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The command exits
non-zero without that line if the simulator sources are missing or a
child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
#: Seconds allowed for one child set-up (scale builds 1M pages; serve
#: boots a daemon).
SETUP_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# Parent: child processes, set-up timing, output.
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read_message(proc: subprocess.Popen, timeout: float) -> Dict[str, Any]:
    """The next JSON line the child writes to its protocol pipe."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError(f"child gave no answer within {timeout:.0f} s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"child exited with code {proc.wait()}")
    return json.loads(line)


def _stop(proc: subprocess.Popen) -> None:
    """Ask a child to stop, then make sure its whole group is gone."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # a daemon the child left behind
    except ProcessLookupError:
        pass


def run_child(role: str, args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    """One fresh child process: set-up time plus, for ``measure``, its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans and role == "measure":
        cmd += ["--spans", str(Path(args.spans).resolve())]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        _read_message(proc, SETUP_TIMEOUT)
        out: Dict[str, Any] = {"setup_s": time.perf_counter() - t0}
        if role == "measure":
            out.update(_read_message(proc, 4 * args.seconds + 120)["result"])
        code = proc.wait(timeout=60)
        if code != 0:
            raise RuntimeError(f"{workload} {role} child exited with code {code}")
        return out
    finally:
        _stop(proc)
        proc.stdout.close()


def run_workload(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    setups = [run_child("setup", args, workload)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    result = run_child("measure", args, workload)
    setups.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["samples"]["setup_s"] = len(setups)
    return result


def report(spec: Dict[str, Any], workload: str, result: Dict[str, Any], trace: int) -> str:
    """Print one workload's metrics; return its contract JSON line."""
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in listed:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        n = result["samples"].get(m["name"])
        print(f"{workload:>6} {m['name']:<28} {value:>14.6g} {m['unit']:<8} "
              + (f"n={n} " if n else "")
              + f"ops={result['attempted']} failed_ops={result['failed']}")
    for line in result.get("notes", []):
        print(f"{workload:>6} note: {line}")
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1: write op spans here")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.spans and not (args.trace and args.workload):
        parser.error("--spans needs --trace 1 and one --workload")
    if args.child:
        return child_main(args, spec)

    lines = []
    for workload in [args.workload] if args.workload else names:
        try:
            result = run_workload(args, workload)
        except (RuntimeError, OSError, ValueError, KeyError,
                subprocess.SubprocessError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        lines.append(report(spec, workload, result, args.trace))
    for line in lines:
        print(line)
    return 0


# ----------------------------------------------------------------------
# Child: set up, then (role ``measure``) run the timed phase.
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    # Keep stdout for the protocol; anything the simulator prints goes
    # to stderr instead.
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import measure  # imports repro: part of set-up

    names = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = measure.run(args, proto, names)
    if result is not None:
        proto.write(json.dumps({"result": result}) + "\n")
    proto.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
