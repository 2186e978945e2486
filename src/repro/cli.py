"""Command-line interface: run the paper's experiments without writing code.

Subcommands mirror the library's main entry points:

``codes``
    List the built-in code instances and their parameters.
``compile``
    Compile one round of syndrome extraction for a code onto one or more
    codesigns and report latency, spatial cost and parallelization.
``memory``
    Run a hardware-aware memory experiment (codesign latency -> noise ->
    BP+OSD decoding -> logical error rate) over a physical-error sweep.
``campaign``
    Run a whole campaign of sweeps — a builtin spec such as
    ``paper_figures`` or a JSON spec file — against one global shot
    budget and one worker pool, with a resumable result store.  With
    ``--join``, become one worker of a multi-host campaign: N joined
    processes sharing one store partition the budget by claiming
    points under TTL'd leases and produce byte-identical tables.
``serve``
    Run the campaign job service (``docs/service.md``): an async HTTP
    API where submitted specs queue onto one executor thread sharing
    one store and one worker pool — concurrent submissions of the same
    spec+budget coalesce by content fingerprint, finished points are
    cache hits for every later job, and SIGTERM drains gracefully.
``store``
    Result-store tooling: ``merge`` folds per-host stores into one
    canonical file (bit-identical under any input order), ``verify``
    checks a store for corruption and lease-log violations, ``repair``
    drops what ``verify`` flagged.
``speedup``
    Print the Figure 3 parallel-vs-serial speedup table.

Examples
--------
::

    python -m repro codes
    python -m repro compile "BB [[72,12,6]]" --codesigns baseline cyclone
    python -m repro memory "HGP [[225,9,6]]" --codesign cyclone \
        --physical-error-rates 1e-4 3e-4 1e-3 --shots 200 --output ler.csv
    python -m repro memory "BB [[72,12,6]]" --shots 200000 --workers 4
    python -m repro memory "BB [[72,12,6]]" --shots 20000 \
        --physical-error-rates 1e-4 3e-4 1e-3 3e-3 \
        --target-precision 0.002      # adaptive: stop each point early
    python -m repro campaign paper_figures --store figures.jsonl --workers 0
    python -m repro campaign paper_figures --store figures.jsonl \
        --assert-no-sampling          # resumed: must re-sample nothing
    python -m repro campaign paper_figures --join --worker-id blue \
        --store /shared/figures.jsonl # one worker of a multi-host run
    python -m repro store merge merged.jsonl hostA.jsonl hostB.jsonl
    python -m repro store verify merged.jsonl
    python -m repro serve --store served.jsonl --port 8731 --workers 0
    python -m repro speedup

Exit codes
----------
The ``campaign`` subcommand distinguishes its outcomes (pinned by
``tests/test_cli.py``):

====  ==============================================================
   0  success
   1  crash (unexpected error, or an injected fault firing)
   2  usage error (bad spec, unknown names, bad fault plan, ...)
   3  ``--assert-no-sampling`` violated: the run sampled fresh shots
   4  scenario oracle mismatch (minimized scenario written to disk)
   5  interrupted gracefully (SIGINT/SIGTERM or an injected
      interrupt): everything finalised was flushed to the store and a
      rerun against the same store resumes the remainder
====  ==============================================================

``serve`` (also pinned by ``tests/test_cli.py``) exits 0 after a
graceful SIGTERM/SIGINT drain (queued jobs cancelled, the running job
stopped at its next point boundary with finalised points flushed — the
store stays resumable), 1 on a crash (e.g. the port is taken) and 2 on
usage errors (missing ``--store``, bad ``--port``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from collections.abc import Sequence
from contextlib import nullcontext
from pathlib import Path

from repro.analysis import speedup_table
from repro.campaign import (
    CampaignInterrupted,
    ScenarioMismatch,
    available_kinds,
    available_specs,
    builtin_spec,
    kind_by_name,
    load_spec,
    merge_stores,
    repair_store,
    run_campaign,
    verify_store,
)
from repro.codes import available_codes, code_by_name
from repro.core import (
    PrecisionTarget,
    available_codesigns,
    codesign_by_name,
    sweep_architectures,
    sweep_physical_error,
)
from repro.core.results import ResultTable
from repro.decoders.bposd import BACKENDS
from repro.parallel.faults import FaultPlan, InjectedFault, activate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cyclone QCCD codesign reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("codes", help="list built-in codes")

    compile_parser = subparsers.add_parser(
        "compile", help="compile a code onto one or more codesigns"
    )
    compile_parser.add_argument("code", help="code name, e.g. 'BB [[72,12,6]]'")
    compile_parser.add_argument(
        "--codesigns", nargs="+", default=["baseline", "cyclone"],
        help="codesign names (default: baseline cyclone)",
    )
    compile_parser.add_argument("--output", default=None,
                                help="optional .csv/.json/.txt output path")

    memory_parser = subparsers.add_parser(
        "memory", help="run a hardware-aware memory experiment"
    )
    memory_parser.add_argument("code")
    memory_parser.add_argument("--codesign", default="cyclone")
    memory_parser.add_argument(
        "--physical-error-rates", type=float, nargs="+",
        default=[1e-4, 3e-4, 1e-3],
    )
    memory_parser.add_argument("--shots", type=int, default=200)
    memory_parser.add_argument("--rounds", type=int, default=None)
    memory_parser.add_argument("--seed", type=int, default=0)
    memory_parser.add_argument(
        "--backend", choices=BACKENDS, default="packed",
        help="simulation/decoding kernels: bit-packed (fast, default), "
             "boolean reference, or native (compiled C decoder kernels, "
             "bit-identical to packed; falls back to packed when no C "
             "toolchain is available)",
    )
    memory_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the fused sample+decode pipeline "
             "(1: in-process, default; 0: one per CPU core; each worker "
             "samples and decodes its own shards, and results are "
             "bit-identical for any value at a fixed --shard-shots)",
    )
    memory_parser.add_argument(
        "--shard-shots", type=int, default=None,
        help="shots per pipeline shard (default: the decoder's "
             "2048-shot block size); each shard samples from its own "
             "seed-tree child, so compare runs at a fixed value — it is "
             "also the early-stop granularity",
    )
    memory_parser.add_argument(
        "--target-precision", type=float, default=None,
        help="stream each sweep point and stop once the Wilson-interval "
             "half-width of its logical error rate reaches this value "
             "(default: fixed --shots budget per point); enables the "
             "adaptive pilot/allocate/refine scheduler, which splits the "
             "global budget (--shots x points) across points by "
             "estimated variance.  Deterministic: the stop decision is "
             "evaluated on the shard-index prefix, so results are "
             "bit-identical for any --workers",
    )
    memory_parser.add_argument(
        "--relative-precision", action="store_true",
        help="interpret --target-precision as a fraction of the "
             "estimated LER instead of an absolute half-width (never "
             "stops on zero observed failures; pair with --max-shots)",
    )
    memory_parser.add_argument(
        "--max-shots", type=int, default=None,
        help="per-point shot cap for the adaptive scheduler (default: "
             "the whole global budget may concentrate on one point)",
    )
    memory_parser.add_argument(
        "--pilot-shots", type=int, default=None,
        help="pilot budget per point for the adaptive scheduler "
             "(default: --shots/4, clamped to [32, 512])",
    )
    memory_parser.add_argument("--output", default=None)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run a cross-sweep campaign under one global shot budget",
    )
    campaign_parser.add_argument(
        "spec", nargs="?", default=None,
        help="builtin spec name (see --list-specs) or path to a JSON "
             "campaign spec",
    )
    campaign_parser.add_argument(
        "--list-specs", action="store_true",
        help="list the builtin campaign specs and the registered sweep "
             "kinds (with their param schemas) and exit",
    )
    campaign_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSON-lines result store: completed points are appended "
             "here and resumed (never re-sampled) on the next run "
             "against the same spec and budget",
    )
    campaign_parser.add_argument(
        "--budget", type=int, default=None,
        help="override the spec's global shot budget (participates in "
             "the store key: runs at different budgets never mix)",
    )
    campaign_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes shared by every sweep of the campaign "
             "(1: in-process, default; 0: one per core; results are "
             "bit-identical for any value)",
    )
    campaign_parser.add_argument(
        "--output", default=None, metavar="DIR",
        help="write each sweep's table (and summary.json) into this "
             "directory as JSON",
    )
    campaign_parser.add_argument(
        "--summary", default=None, metavar="PATH",
        help="write the run's JSON ledger (budget, shots sampled vs "
             "reused, points resumed, targets met) to this file",
    )
    campaign_parser.add_argument(
        "--assert-no-sampling", action="store_true",
        help="exit 3 if the run sampled any shots (CI resume check: a "
             "second run against a complete store must reuse every "
             "point)",
    )
    campaign_parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock deadline: a shard that exceeds it "
             "triggers a pool respawn and a deterministic re-run of the "
             "lost shards (default: wait forever); never enters the "
             "store key",
    )
    campaign_parser.add_argument(
        "--max-shard-retries", type=int, default=None, metavar="N",
        help="lifetime respawn budget of the campaign's worker pool; "
             "once it is spent the remaining shards run in-process "
             "(default 2; results are bit-identical either way)",
    )
    campaign_parser.add_argument(
        "--fault-plan", default=None, metavar="JSON|@PATH",
        help="inject a deterministic fault schedule (testing/chaos "
             "drills): JSON with any of kills, delays, "
             "tear_after_records, sigterm_after_points, "
             "kill_after_claims, suppress_heartbeats, duplicate_claim, "
             "tear_lease_after — see repro.parallel.faults; "
             "equivalently the REPRO_FAULT_PLAN environment variable",
    )
    campaign_parser.add_argument(
        "--join", action="store_true",
        help="join a multi-host campaign: become one worker among "
             "possibly many sharing --store, claiming points under "
             "TTL'd leases and heartbeating renewals; tables are "
             "byte-identical for any number of joined workers "
             "(requires --store)",
    )
    campaign_parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="lease identity for --join: either a full host:pid:token "
             "triple or a label used as the host part of a generated "
             "identity (default: hostname:pid:random)",
    )
    campaign_parser.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="lease heartbeat deadline for --join: a lease not renewed "
             "for this long may be reclaimed by any worker (default "
             "60); execution-only — never enters the store key",
    )
    campaign_parser.add_argument(
        "--claim-batch", type=int, default=None, metavar="N",
        help="points a joined worker claims per scheduling pass "
             "(default 2)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve campaigns over HTTP: a job queue where submitted "
             "specs share one store, one worker pool and one executor "
             "thread (see docs/service.md)",
    )
    serve_parser.add_argument(
        "--store", required=True, metavar="PATH",
        help="JSON-lines result store shared by every served job: "
             "finished points are cache hits for later submissions, "
             "and finals that another plain run of the same spec and "
             "budget appends to the file are folded in before every "
             "allocation round (--join workers may share the file, "
             "but their records are never used)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1 — the service is "
             "unauthenticated, so expose it beyond localhost only "
             "behind something that authenticates)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8731,
        help="TCP port (default: 8731; 0 picks an ephemeral port — "
             "combine with --port-file for discovery)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes in the shared pool every job runs "
             "through (1: in-process, default; 0: one per core)",
    )
    serve_parser.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here after listening starts "
             "(how scripts discover a --port 0 choice)",
    )

    store_parser = subparsers.add_parser(
        "store",
        help="result-store tooling: merge per-host stores, verify "
             "consistency, repair corruption",
    )
    store_sub = store_parser.add_subparsers(dest="store_command",
                                            required=True)
    merge_parser = store_sub.add_parser(
        "merge",
        help="fold stores into one canonical file (bit-identical under "
             "any input order; lease events dropped, conflicts "
             "reported)",
    )
    merge_parser.add_argument("output", help="merged store to write")
    merge_parser.add_argument("inputs", nargs="+",
                              help="store files to fold together")
    verify_parser = store_sub.add_parser(
        "verify",
        help="check one store for corruption and lease-log violations "
             "(exit 1 with a repair hint on problems)",
    )
    verify_parser.add_argument("path", help="store file to check")
    repair_parser = store_sub.add_parser(
        "repair",
        help="rewrite a store keeping only healthy lines (drops torn "
             "fragments and corrupt records; atomic)",
    )
    repair_parser.add_argument("path", help="store file to repair")

    speedup_parser = subparsers.add_parser(
        "speedup", help="parallel vs serial schedule speedups (Figure 3)"
    )
    speedup_parser.add_argument("--codes", nargs="+", default=None)
    speedup_parser.add_argument("--output", default=None)

    return parser


def _emit(table: ResultTable, output: str | None) -> None:
    print(table.to_text())
    if output:
        path = table.save(output)
        print(f"\nSaved to {path}")


def _cmd_codes() -> int:
    table = ResultTable(
        title="Built-in codes",
        columns=["name", "n", "k", "d", "stabilizers", "edge_colorable"],
    )
    for name in available_codes():
        code = code_by_name(name)
        n, k, d = code.parameters
        table.add_row(name=name, n=n, k=k, d=d if d is not None else "?",
                      stabilizers=code.num_stabilizers,
                      edge_colorable=code.edge_colorable)
    print(table.to_text())
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    code = code_by_name(args.code)
    unknown = [name for name in args.codesigns
               if name not in available_codesigns()]
    if unknown:
        print(f"unknown codesigns: {unknown}; available: "
              f"{available_codesigns()}", file=sys.stderr)
        return 2
    designs = [codesign_by_name(name) for name in args.codesigns]
    table = sweep_architectures(code, designs)
    _emit(table, args.output)
    return 0


def _cmd_memory(args: argparse.Namespace) -> int:
    code = code_by_name(args.code)
    compiled = codesign_by_name(args.codesign).compile(code)
    target = None
    if args.target_precision is not None:
        target = PrecisionTarget(half_width=args.target_precision,
                                 relative=args.relative_precision)
    elif args.relative_precision:
        print("--relative-precision requires --target-precision",
              file=sys.stderr)
        return 2
    table = sweep_physical_error(
        code,
        round_latency_us=compiled.execution_time_us,
        physical_error_rates=args.physical_error_rates,
        shots=args.shots,
        rounds=args.rounds,
        label=f"{args.codesign}, {compiled.execution_time_us:.0f} us/round",
        seed=args.seed,
        backend=args.backend,
        workers=args.workers,
        shard_shots=args.shard_shots,
        target_precision=target,
        max_shots=args.max_shots,
        pilot_shots=args.pilot_shots,
    )
    _emit(table, args.output)
    return 0


def _print_specs_and_kinds() -> None:
    """The ``--list-specs`` listing: builtin specs, then every
    registered sweep kind with its parameter schema.  The format is
    pinned by ``tests/test_cli.py`` — spec lines are indented names
    with the sweep count, kind lines are ``name: description`` followed
    by one ``- param (type, default=...)`` line per schema entry."""
    print("builtin specs:")
    for name in available_specs():
        spec = builtin_spec(name)
        print(f"  {name} ({len(spec.sweeps)} sweeps, "
              f"budget {spec.budget})")
    print()
    print("sweep kinds:")
    for name in available_kinds():
        kind = kind_by_name(name)
        print(f"  {name}: {kind.description}")
        for param in kind.params:
            line = f"    - {param.name} ({param.type}, " \
                   f"default={param.default!r})"
            if param.doc:
                line += f": {param.doc}"
            print(line)


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.list_specs:
        _print_specs_and_kinds()
        return 0
    if args.spec is None:
        print("a spec name or path is required (or --list-specs)",
              file=sys.stderr)
        return 2
    if args.join and not args.store:
        print("--join requires --store (the shared store is the "
              "coordination medium)", file=sys.stderr)
        return 2
    try:
        spec = load_spec(args.spec)
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    plan = None
    if args.fault_plan is not None:
        try:
            plan = FaultPlan.from_arg(args.fault_plan)
        except (OSError, ValueError) as error:
            print(f"bad --fault-plan: {error}", file=sys.stderr)
            return 2

    # Graceful interrupt: the first SIGINT/SIGTERM sets a flag the
    # orchestrator polls between units of work (finalised points are
    # flushed, the pool released, exit code 5) and restores the
    # previous handlers — so a second signal kills the process the
    # ordinary way.  Off the main thread signals cannot be wired;
    # the campaign then simply runs without the graceful path.
    stop_requested = False
    previous_handlers: dict[int, object] = {}

    def _request_stop(signum, frame):
        del frame
        nonlocal stop_requested
        stop_requested = True
        for signum_, handler in previous_handlers.items():
            signal.signal(signum_, handler)

    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _request_stop)
    except ValueError:
        previous_handlers = {}

    try:
        with (activate(plan) if plan is not None else nullcontext()):
            result = run_campaign(
                spec, store=args.store, workers=args.workers,
                budget=args.budget,
                shard_timeout=args.shard_timeout,
                max_shard_retries=args.max_shard_retries,
                stop=lambda: stop_requested,
                join=args.join,
                worker_id=args.worker_id,
                lease_ttl=args.lease_ttl,
                claim_batch=args.claim_batch,
            )
    except ValueError as error:
        # Spec-level problems surfaced by the orchestrator (unknown
        # code/codesign names, non-positive budget override, ...) are
        # usage errors, not crashes.
        print(str(error), file=sys.stderr)
        return 2
    except CampaignInterrupted as error:
        print(f"interrupted: {error}", file=sys.stderr)
        if args.store:
            print(f"finalised points were flushed to {args.store}; "
                  "rerun with the same spec and store to resume",
                  file=sys.stderr)
        return 5
    except InjectedFault as error:
        # A fault plan asked for a simulated crash — report it as one.
        print(f"injected fault: {error}", file=sys.stderr)
        return 1
    except ScenarioMismatch as error:
        # A scenario_sweep point disagreed with its reference oracle:
        # the minimized scenario is already on disk, so surface the
        # replay path and exit distinctly (CI uploads the artifact).
        print(str(error), file=sys.stderr)
        if error.path is not None:
            print(f"minimized failure scenario: {error.path}",
                  file=sys.stderr)
        return 4
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass
    for table in result.tables:
        print(table.to_text())
        print()
    print(result.summary_table().to_text())
    print(f"this run: {result.shots_sampled} shots sampled, "
          f"{result.shots_reused} reused from the store, "
          f"{result.points_reused}/{result.points_total} points resumed")
    if args.output:
        output_dir = Path(args.output)
        output_dir.mkdir(parents=True, exist_ok=True)
        for sweep, table in zip(spec.sweeps, result.tables):
            table.save(output_dir / f"{sweep.name}.json")
        summary = result.summary_table()
        summary.save(output_dir / "summary.json")
        print(f"\nSaved {len(result.tables)} sweep tables + summary "
              f"to {output_dir}")
    if args.summary:
        Path(args.summary).write_text(
            json.dumps(result.stats_dict(), indent=2) + "\n")
        print(f"Wrote run ledger to {args.summary}")
    if args.assert_no_sampling and result.shots_sampled > 0:
        print(f"expected a fully resumed run but {result.shots_sampled} "
              "shots were sampled", file=sys.stderr)
        return 3
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — block until a signal drains the service.

    Exit codes: 0 after a graceful drain, 1 on a crash (bind failure,
    unexpected error), 2 on usage errors.  The import is local so the
    other subcommands never pay for it."""
    if not 0 <= args.port <= 65535:
        print(f"--port must be in [0, 65535], got {args.port}",
              file=sys.stderr)
        return 2
    if args.workers < 0:
        print(f"--workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 2
    from repro.service import JobQueue, run_service
    queue = JobQueue(args.store, workers=args.workers)
    try:
        return run_service(queue, host=args.host, port=args.port,
                           port_file=args.port_file)
    except OSError as error:
        queue.drain()
        print(f"cannot serve on {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1


def _cmd_store(args: argparse.Namespace) -> int:
    """``repro store merge|verify|repair`` — see
    :mod:`repro.campaign.coordination`.  Exit codes: 0 clean, 1
    verification problems (or merge conflicts), 2 usage errors."""
    if args.store_command == "merge":
        missing = [path for path in args.inputs if not Path(path).exists()]
        if missing:
            print(f"no such store(s): {missing}", file=sys.stderr)
            return 2
        report = merge_stores(args.inputs, args.output)
        print(f"merged {len(report['inputs'])} stores -> "
              f"{report['output']}: {report['records_written']} records "
              f"({report['records_read']} read, "
              f"{report['lines_skipped']} lines skipped)")
        if report["conflicts"]:
            print(f"CONFLICTS on {len(report['conflicts'])} key(s) — two "
                  "differing final records at the same epoch (resolved "
                  "deterministically, but the inputs disagree):",
                  file=sys.stderr)
            for key in report["conflicts"]:
                print(f"  {key}", file=sys.stderr)
            return 1
        return 0
    if args.store_command == "verify":
        report = verify_store(args.path)
        for note in report["info"]:
            print(f"note: {note}")
        print(f"{report['path']}: {report['records']} result records, "
              f"{report['leases']} lease events")
        if not report["ok"]:
            for problem in report["problems"]:
                print(f"PROBLEM: {problem}", file=sys.stderr)
            print(f"hint: `repro store repair {report['path']}` drops "
                  "corrupt lines (healthy records are kept; points "
                  "whose records are dropped re-run from their last "
                  "checkpoint on the next campaign run)",
                  file=sys.stderr)
            return 1
        print("ok")
        return 0
    if args.store_command == "repair":
        if not Path(args.path).exists():
            print(f"no such store: {args.path}", file=sys.stderr)
            return 2
        report = repair_store(args.path)
        print(f"{report['path']}: kept {report['kept']} lines, "
              f"dropped {report['dropped']}")
        return 0
    print(f"unknown store command {args.store_command!r}", file=sys.stderr)
    return 2


def _cmd_speedup(args: argparse.Namespace) -> int:
    table = speedup_table(args.codes)
    _emit(table, args.output)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "codes":
        return _cmd_codes()
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "memory":
        return _cmd_memory(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "speedup":
        return _cmd_speedup(args)
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
