"""Command-line interface: run the paper's experiments directly.

Usage::

    python -m repro list
    python -m repro table-2-1 [--nodes 16] [--vertices 800]
    python -m repro fig-2-1   [--max-nodes 32] [--jobs N]
    python -m repro table-3-1
    python -m repro fig-3-1   [--nodes 8] [--jobs N]
    python -m repro costs
    python -m repro check     [--seeds 50] [--jobs N] [--shard i/N]
    python -m repro check     --chaos [--seeds 100] [--transcript PATH]
    python -m repro ledger    [--seeds 50] [--jobs N]
    python -m repro sweep sssp --nodes 4,8,16 --copies 1,2,4 [--jobs N]
    python -m repro sweep beam --nodes 8 --modes blocking,delayed [--jobs N]
    python -m repro sweep --placement --nodes 256 [--jobs N]

The five paper experiments and the three sweep grids are declared in
:mod:`repro.parallel.grid`; their flags, ``list`` lines and runs all
derive from those declarations, which the ``repro serve`` daemon's
``sweep`` op and the paper benchmarks share.  Every run is verified
against its sequential reference.  ``--jobs N`` fans independent runs
out across worker processes (``0`` = all cores); stdout is
byte-identical for every job count.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.parallel.grid import EXPERIMENTS, SWEEPS, ListParam


def _resolve_jobs(args) -> int:
    """``--jobs 0`` means one worker per core; positive requests are
    clamped to the visible CPU count unless ``--oversubscribe``."""
    from repro.parallel import effective_jobs

    return effective_jobs(
        args.jobs, oversubscribe=getattr(args, "oversubscribe", False)
    )


def _fault_args(args):
    """(faults_enabled, overrides) from the check command's fault flags.

    Any explicit knob implies fault mode; ``--faults`` alone derives all
    knobs per seed from the seed's own fault stream.
    """
    overrides = {
        field: value
        for field, value in (
            ("drop_prob", args.drop_prob),
            ("dup_prob", args.dup_prob),
            ("fault_jitter", args.fault_jitter),
            ("outage_rate", args.outage_rate),
            ("outage_cycles", args.outage_cycles),
            ("crash_rate", getattr(args, "crash_rate", None)),
        )
        if value is not None
    }
    return bool(args.faults or overrides), overrides


def _cmd_check(args) -> int:
    from repro.check import run_seeds, run_stress

    faults, overrides = _fault_args(args)
    if args.seed is not None:
        # Reproduce one seed with a full transcript of any failure.
        result = run_stress(
            args.seed,
            inject_bug=args.inject_bug,
            faults=faults,
            fault_overrides=overrides,
            chaos=args.chaos,
        )
        print(result.describe())
        for cycle, node, kind, epoch in result.crash_events:
            print(f"  [crash] cycle {cycle}: node {node} {kind} (epoch {epoch})")
        if result.report is not None:
            print(result.report.summary())
        if args.inject_bug:
            return 0 if result.caught else 1
        return 0 if result.ok else 1

    failures = 0

    def show(result) -> None:
        nonlocal failures
        bad = not result.caught if args.inject_bug else not result.ok
        if bad:
            failures += 1
        if args.verbose or bad:
            print(result.describe())

    results = run_seeds(
        args.seeds,
        base_seed=args.base_seed,
        inject_bug=args.inject_bug,
        keep_going=args.keep_going,
        on_result=show,
        faults=faults,
        fault_overrides=overrides,
        chaos=args.chaos,
        jobs=_resolve_jobs(args),
        shard=args.shard,
    )
    cycles = sum(r.cycles for r in results)
    messages = sum(r.messages for r in results)
    if args.inject_bug:
        caught = sum(1 for r in results if r.caught)
        print(
            f"fault injection: {caught}/{len(results)} mutated runs "
            f"caught by the checkers ({cycles:,} cycles, "
            f"{messages:,} messages simulated)"
        )
    else:
        print(
            f"{len(results)} seed(s) checked, {failures} failure(s) "
            f"({cycles:,} cycles, {messages:,} messages simulated)"
        )
    if faults or args.chaos:
        drops = sum(r.drops for r in results)
        dups = sum(r.dups for r in results)
        retransmits = sum(r.retransmits for r in results)
        recovered = sum(r.recovered for r in results)
        print(
            f"wire faults: {drops:,} drops, {dups:,} dups, "
            f"{retransmits:,} retransmits, {recovered:,} messages "
            f"recovered after loss"
        )
        if retransmits == 0:
            # A fault sweep where nothing was ever retransmitted did not
            # actually exercise the recovery layer — treat it as a
            # harness failure, not a pass.
            print("fault sweep exercised no retransmissions; failing")
            failures += 1
    if args.chaos:
        print(_crash_totals(results))
        if not any(r.recoveries for r in results):
            # Same reasoning as the retransmit floor: a chaos sweep
            # where no node ever came back did not exercise recovery.
            print("chaos sweep exercised no crash recovery; failing")
            failures += 1
    bad_seeds = [
        r.seed
        for r in results
        if (not r.caught if args.inject_bug else not r.ok)
    ]
    if args.transcript and bad_seeds:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            for r in results:
                if r.seed in bad_seeds:
                    fh.write(r.describe() + "\n")
                    for cycle, node, kind, epoch in r.crash_events:
                        fh.write(
                            f"  [crash] cycle {cycle}: node {node} "
                            f"{kind} (epoch {epoch})\n"
                        )
                    fh.write("\n")
        print(f"failing-seed transcript written to {args.transcript}")
    if failures:
        if bad_seeds:
            flags = " --faults" if args.faults else ""
            if args.chaos:
                flags += " --chaos"
            print(
                f"reproduce with: python -m repro check{flags} --seed "
                + f" / --seed ".join(str(s) for s in bad_seeds[:5])
            )
        return 1
    return 0


def _crash_totals(results) -> str:
    """The ``node crashes:`` summary line of a chaos or ledger sweep."""
    crashes = sum(r.crashes for r in results)
    recoveries = sum(r.recoveries for r in results)
    flushes = sum(r.crash_flushes for r in results)
    redrives = sum(r.crash_redrives for r in results)
    strays = sum(r.crash_strays for r in results)
    return (
        f"node crashes: {crashes:,} crashes, {recoveries:,} "
        f"recoveries, {flushes:,} flushed messages, {redrives:,} "
        f"re-driven requests, {strays:,} strays absorbed"
    )


def _cmd_ledger(args) -> int:
    """Seeded 2PC bank-ledger crash/recovery sweep (conservation oracle).

    Each seed derives a crash schedule (coordinator and participant
    crashes both occur across the sweep), runs the two-phase-commit
    ledger on top of the paper's delayed operations, and verifies the
    end-to-end money-conservation invariant after recovery.  A seed
    whose schedule produced no actual recovery fails: the sweep must
    exercise the machinery, not time out around it.
    """
    from repro.apps.ledger import run_ledger, run_ledger_sweep

    if args.seed is not None:
        result = run_ledger(
            args.seed,
            n_participants=args.participants,
            n_txns=args.txns,
        )
        print(result.describe())
        for cycle, node, kind, epoch in result.crash_events:
            print(f"  [crash] cycle {cycle}: node {node} {kind} (epoch {epoch})")
        return 0 if result.ok and result.recoveries >= 1 else 1

    failures = 0

    def show(result) -> None:
        nonlocal failures
        bad = not result.ok or result.recoveries < 1
        if bad:
            failures += 1
        if args.verbose or bad:
            print(result.describe())

    results = run_ledger_sweep(
        args.seeds,
        base_seed=args.base_seed,
        n_participants=args.participants,
        n_txns=args.txns,
        jobs=_resolve_jobs(args),
        keep_going=args.keep_going,
        on_result=show,
    )
    crashes = sum(r.crashes for r in results)
    recoveries = sum(r.recoveries for r in results)
    coord = sum(
        1
        for r in results
        if any(n == 0 and k == "crash" for _c, n, k, _e in r.crash_events)
    )
    part = sum(
        1
        for r in results
        if any(n != 0 and k == "crash" for _c, n, k, _e in r.crash_events)
    )
    print(
        f"{len(results)} ledger seed(s), {failures} failure(s); "
        f"{crashes} crashes / {recoveries} recoveries "
        f"(coordinator-crash seeds: {coord}, participant-crash "
        f"seeds: {part})"
    )
    print(_crash_totals(results))
    bad_seeds = [
        r.seed for r in results if not r.ok or r.recoveries < 1
    ]
    if args.transcript and bad_seeds:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            for r in results:
                if r.seed in bad_seeds:
                    fh.write(r.describe() + "\n")
                    for cycle, node, kind, epoch in r.crash_events:
                        fh.write(
                            f"  [crash] cycle {cycle}: node {node} "
                            f"{kind} (epoch {epoch})\n"
                        )
                    fh.write("\n")
        print(f"failing-seed transcript written to {args.transcript}")
    if failures and bad_seeds:
        print(
            "reproduce with: python -m repro ledger --seed "
            + " / --seed ".join(str(s) for s in bad_seeds[:5])
        )
    return 1 if failures else 0


def _cmd_experiment(args) -> int:
    """Run one paper experiment: a progress line per verified point,
    then its table; any failed point fails the command."""
    from repro.parallel import run_sweep

    exp = EXPERIMENTS[args.command]
    params = {p.name: getattr(args, p.name) for p in exp.params}

    def show(r) -> None:
        if not r.ok or exp.progress is not None:
            line = exp.progress(r.label, r.value) if r.ok else r.describe()
            if line is not None:
                print(f"  {line}")

    outcomes = run_sweep(
        exp.sweep_tasks(params),
        jobs=_resolve_jobs(args) if exp.jobs else 1,
        on_result=show,
        label=exp.name,
    )
    if not all(r.ok for r in outcomes):
        return 1
    if exp.progress is not None:
        print()
    print(exp.table(params, [r.value for r in outcomes]))
    return 0


def _cmd_sweep(args) -> int:
    """Run a parameter grid across worker processes, print one table."""
    from repro.parallel import run_sweep, shard_tasks

    if args.placement:
        args.experiment = "placement"
    if args.experiment is None:
        raise SystemExit(
            "repro sweep: name an experiment (sssp, beam, placement) "
            "or pass --placement"
        )
    exp = SWEEPS[args.experiment]
    params = {p.name: getattr(args, p.name) for p in exp.params}
    tasks = shard_tasks(exp.sweep_tasks(params), args.shard)
    jobs_effective = _resolve_jobs(args)
    outcomes = run_sweep(tasks, jobs=jobs_effective, label="sweep")
    failures = [r for r in outcomes if not r.ok]
    print(exp.table(params, [r.value for r in outcomes if r.ok]))
    print(
        f"{len(outcomes)} configuration(s) swept, {len(failures)} failure(s)"
    )
    # Provenance goes to stderr like the progress line: stdout must stay
    # byte-identical across job counts.
    print(
        f"[sweep] jobs_requested={args.jobs} jobs_effective={jobs_effective}",
        file=sys.stderr,
    )
    for r in failures:
        print(f"  {r.describe()}")
        if r.error_tb:
            print("    " + "\n    ".join(r.error_tb.rstrip().splitlines()))
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    """Run the simulation daemon in the foreground until SIGINT/SIGTERM."""
    import signal

    from repro.server import ReproDaemon

    log_stream = open(args.log, "a") if args.log else sys.stderr
    daemon = ReproDaemon(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        jobs=args.jobs,
        cache_size=args.cache_size,
        cache_file=args.cache_file,
        max_pending=args.max_pending,
        quota=args.quota,
        log=log_stream,
    )
    daemon.start()
    print(f"repro serve: listening on {daemon.address_str()}", flush=True)

    def _stop(signum, frame):
        del signum, frame
        daemon.shutdown()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    try:
        daemon.serve_forever()
    finally:
        daemon.shutdown()
        if args.log:
            log_stream.close()
    return 0


def _parse_param(text: str):
    """``key=value`` with JSON-typed values; bare words are strings."""
    if "=" not in text:
        raise SystemExit(f"--param needs key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return key, value


def _cmd_submit(args) -> int:
    """Submit one request to a running daemon; print the envelope."""
    from repro.server import DaemonUnavailable, ReproClient

    params = dict(_parse_param(p) for p in args.param or [])

    def show_progress(event):
        print(
            f"[progress] {event['done']}/{event['total']}", file=sys.stderr
        )

    try:
        with ReproClient(
            host=args.host, port=args.port, socket_path=args.socket
        ) as client:
            envelope = client.request(
                args.op, params, on_progress=show_progress
            )
    except (DaemonUnavailable, ConnectionError, OSError) as exc:
        print(f"repro submit: cannot reach daemon: {exc}", file=sys.stderr)
        return 2
    if args.result_only:
        # Just the payload, canonical form: byte-comparable across
        # submits (the full envelope carries timings and counters).
        print(json.dumps(envelope.get("result"), sort_keys=True))
    else:
        print(json.dumps(envelope, sort_keys=True, indent=2))
    return 0 if envelope.get("ok") else 1


COMMANDS = {
    **{n: (_cmd_experiment, e.help) for n, e in EXPERIMENTS.items()},
    "check": (_cmd_check, "coherence oracle over seeded stress runs"),
    "ledger": (_cmd_ledger, "2PC bank-ledger crash/recovery sweep"),
    "sweep": (_cmd_sweep, "parameter-grid sweep across worker processes"),
    "serve": (_cmd_serve, "run the simulation daemon (JSON lines/socket)"),
    "submit": (_cmd_submit, "submit one request to a running daemon"),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the PLUS paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")

    def add_params(p, params):
        for param in params:
            p.add_argument(
                "--" + param.name.replace("_", "-"),
                type=param.check
                if isinstance(param, ListParam)
                else param.type,
                default=param.default,
                choices=param.choices,
                help=f"{param.help} (default %(default)s)",
            )

    def add_jobs(p, shard=False):
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for independent runs "
            "(default 1 = in-process; 0 = one per core; requests above "
            "the visible CPU count are clamped)",
        )
        p.add_argument(
            "--oversubscribe",
            action="store_true",
            help="allow more workers than visible CPUs (skip the "
            "--jobs clamp)",
        )
        if shard:
            p.add_argument(
                "--shard",
                type=str,
                default=None,
                metavar="i/N",
                help="run only the i-th of N interleaved task shards "
                "(1-based); the union of all shards is the full sweep",
            )

    for name, (_fn, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name in EXPERIMENTS:
            add_params(p, EXPERIMENTS[name].params)
            if EXPERIMENTS[name].jobs:
                add_jobs(p)
        elif name == "sweep":
            p.add_argument(
                "experiment",
                nargs="?",
                default=None,
                choices=tuple(SWEEPS),
                help="which workload's parameter grid to sweep",
            )
            p.add_argument(
                "--placement",
                action="store_true",
                help="shorthand for the placement experiment "
                "(policy x topology x nodes grid)",
            )
            # Every grid's params, once each: the grids share ``nodes``.
            params = {q.name: q for g in SWEEPS.values() for q in g.params}
            add_params(p, params.values())
            add_jobs(p, shard=True)
        elif name == "check":
            p.add_argument(
                "--seeds",
                type=int,
                default=50,
                help="number of consecutive seeds to run (default 50)",
            )
            p.add_argument(
                "--base-seed",
                type=int,
                default=0,
                help="first seed of the range",
            )
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help="reproduce a single seed instead of a range",
            )
            p.add_argument(
                "--inject-bug",
                action="store_true",
                help="plant the skip-last-hop protocol bug; exit 0 only "
                "if every mutated run is caught",
            )
            p.add_argument(
                "--keep-going",
                action="store_true",
                help="do not stop at the first failing seed",
            )
            p.add_argument(
                "--verbose",
                action="store_true",
                help="print every seed's outcome, not just failures",
            )
            p.add_argument(
                "--faults",
                action="store_true",
                help="run each seed on an unreliable mesh (seeded drop/"
                "dup/reorder/outage plan) and require every check to "
                "still pass; fails if no retransmission ever happened",
            )
            p.add_argument(
                "--drop-prob",
                type=float,
                default=None,
                help="pin the per-send drop probability (implies faults)",
            )
            p.add_argument(
                "--dup-prob",
                type=float,
                default=None,
                help="pin the per-send duplication probability "
                "(implies faults)",
            )
            p.add_argument(
                "--fault-jitter",
                type=int,
                default=None,
                help="pin the wire reordering amplitude in cycles "
                "(implies faults)",
            )
            p.add_argument(
                "--outage-rate",
                type=float,
                default=None,
                help="pin the per-cycle link outage rate (implies faults)",
            )
            p.add_argument(
                "--outage-cycles",
                type=int,
                default=None,
                help="pin the length of each link outage window "
                "(implies faults)",
            )
            p.add_argument(
                "--chaos",
                action="store_true",
                help="also crash and restart nodes: each seed derives a "
                "crash rate, down window and durability mode on top of "
                "the wire faults; fails if no recovery ever happened",
            )
            p.add_argument(
                "--crash-rate",
                type=float,
                default=None,
                help="pin the per-cycle node crash rate; 0 strips the "
                "crash schedule from --chaos, leaving a wire-fault-only "
                "plan",
            )
            p.add_argument(
                "--transcript",
                type=str,
                default=None,
                help="write failing seeds' transcripts to this file "
                "(CI artifact)",
            )
            add_jobs(p, shard=True)
        elif name == "ledger":
            p.add_argument(
                "--seeds",
                type=int,
                default=50,
                help="number of consecutive seeds to run (default 50)",
            )
            p.add_argument(
                "--base-seed",
                type=int,
                default=1,
                help="first seed of the range (default 1)",
            )
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help="reproduce a single seed instead of a range",
            )
            p.add_argument(
                "--participants",
                type=int,
                default=2,
                help="participant (shard) nodes besides the "
                "coordinator (default 2)",
            )
            p.add_argument(
                "--txns",
                type=int,
                default=24,
                help="two-phase transfers per seed (default 24)",
            )
            p.add_argument(
                "--keep-going",
                action="store_true",
                help="do not stop at the first failing seed",
            )
            p.add_argument(
                "--verbose",
                action="store_true",
                help="print every seed's outcome, not just failures",
            )
            p.add_argument(
                "--transcript",
                type=str,
                default=None,
                help="write failing seeds' transcripts (with crash "
                "events) to this file (CI artifact)",
            )
            add_jobs(p)
        elif name == "serve":
            p.add_argument(
                "--host",
                type=str,
                default="127.0.0.1",
                help="TCP bind address (default 127.0.0.1)",
            )
            p.add_argument(
                "--port",
                type=int,
                default=0,
                help="TCP port (default 0 = OS-assigned, printed at boot)",
            )
            p.add_argument(
                "--socket",
                type=str,
                default=None,
                metavar="PATH",
                help="serve on a unix socket instead of TCP",
            )
            p.add_argument(
                "--jobs",
                type=int,
                default=0,
                metavar="N",
                help="warm worker processes (default 0 = one per core)",
            )
            p.add_argument(
                "--cache-size",
                type=int,
                default=128,
                help="LRU result-cache capacity (default 128)",
            )
            p.add_argument(
                "--cache-file",
                type=str,
                default=None,
                metavar="PATH",
                help="persist the result cache to this JSON file: "
                "loaded at boot, rewritten atomically after each "
                "insert, keyed by the protocol schema version",
            )
            p.add_argument(
                "--max-pending",
                type=int,
                default=32,
                help="admission queue bound: concurrent dispatched "
                "requests before 'overloaded' (default 32)",
            )
            p.add_argument(
                "--quota",
                type=int,
                default=4,
                help="per-client in-flight request quota (default 4)",
            )
            p.add_argument(
                "--log",
                type=str,
                default=None,
                metavar="PATH",
                help="append daemon log lines here (default stderr)",
            )
        elif name == "submit":
            p.add_argument(
                "--op",
                type=str,
                required=True,
                help="request op: check, sweep, status",
            )
            p.add_argument(
                "--host", type=str, default="127.0.0.1", help="daemon host"
            )
            p.add_argument(
                "--port", type=int, default=None, help="daemon TCP port"
            )
            p.add_argument(
                "--socket",
                type=str,
                default=None,
                metavar="PATH",
                help="daemon unix socket path",
            )
            p.add_argument(
                "--param",
                action="append",
                metavar="K=V",
                help="op parameter (repeatable); values parse as JSON, "
                "bare words as strings",
            )
            p.add_argument(
                "--result-only",
                action="store_true",
                help="print only the result payload, canonical JSON "
                "(byte-comparable across submits)",
            )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        for name, (_fn, help_) in COMMANDS.items():
            print(f"  {name:<12} {help_}")
        return 0
    fn, _help = COMMANDS[args.command]
    return fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
