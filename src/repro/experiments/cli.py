"""Command-line front-end: ``scord-experiments [exhibit ...]``.

Runs the requested exhibits (or ``all``) and prints the paper-style tables
to stdout.  Exhibits sharing simulations reuse them through the memoizing
runner, so ``scord-experiments all`` is much cheaper than the sum of the
parts.

Resilience (see docs/architecture.md, "Resilience"):

* ``--cache-dir PATH`` is the campaign's checkpoint: rerunning a
  killed campaign over the same directory answers its finished units
  from the cache instead of re-simulating them.
* ``--store PATH`` logs every unit the campaign answers, fresh or
  cached, to a durable JSONL run store (``scord-compare`` diffs two).
* ``--jobs N`` (N >= 1) runs each simulation in a supervised pool of N
  persistent warm workers (see docs/architecture.md §6) with heartbeat
  liveness, crash recycling, retry, and graceful degradation;
  ``--timeout`` bounds and retries pool units that overrun.  The
  default, ``--jobs 0``, simulates in-process.
* A failing run costs its table cells (``FAILED(reason)``), a failing
  exhibit costs one structured error line — never the campaign.  The
  exit code is non-zero if anything failed, and ``--manifest PATH``
  writes a machine-readable failure manifest.

Parallelism and caching (see docs/architecture.md, "Parallel campaigns"):

* With ``--jobs N`` the campaign's work units queue on one unit
  scheduler whose N dispatchers drive the N workers, with a
  deterministic merge — results are identical to ``--jobs 1`` and to
  the in-process default.
  ``--chaos-kill-every N`` deliberately SIGKILLs a worker every Nth
  unit (resilience drills).
* The ``--cache-dir`` result cache is content-addressed: units are
  keyed by a stable hash of the resolved configs, kernel identity,
  seed, and schema version, so re-runs and overlapping exhibits hit
  disk instead of re-simulating.  With flight capture on, the cache is
  written but never read, so every unit simulates and is captured.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import time

from repro.common.errors import ConfigError, ReproError, error_code
from repro.experiments.runner import Runner

EXHIBITS = ("table1", "table2", "table6", "table7", "table8",
            "fig8", "fig9", "fig10", "fig11", "ablations", "litmus",
            "lint_table")

#: exhibits whose simulations flow through the shared Runner — the ones a
#: parallel prefetch can plan and shard.  The rest (micros, litmus,
#: ablations) simulate inline and are cheap.
RUNNER_EXHIBITS = ("table6", "table7", "fig8", "fig9", "fig10", "fig11")


# ----------------------------------------------------------------------
# Exhibit dispatch (uniform: name -> callable(runner) -> printable text)
# ----------------------------------------------------------------------
def _table1(runner: Runner) -> str:
    from repro.experiments.table1 import run_table1

    return run_table1().render()


def _table2(runner: Runner) -> str:
    from repro.experiments.table2 import run_table2

    return str(run_table2())


def _table6(runner: Runner) -> str:
    from repro.experiments.table6 import run_table6

    result = run_table6(runner)
    return result.render() + "\n\n" + result.render_detail()


def _table7(runner: Runner) -> str:
    from repro.experiments.table7 import run_table7

    return run_table7(runner).render()


def _table8(runner: Runner) -> str:
    from repro.experiments.table8 import run_table8

    return str(run_table8())


def _figure(run):
    def render(runner: Runner) -> str:
        result = run(runner)
        return result.render() + "\n\n" + result.chart()

    return render


def _ablations(runner: Runner) -> str:
    from repro.experiments.ablations import run_all_ablations

    parts = []
    for table in run_all_ablations().values():
        parts.append(str(table))
        parts.append("")
    return "\n".join(parts).rstrip()


def _litmus(runner: Runner) -> str:
    from repro.litmus import ALL_LITMUS_TESTS, run_litmus

    lines = ["=== Scoped memory-model litmus tests ==="]
    for test in ALL_LITMUS_TESTS:
        result = run_litmus(test)
        verdict = "ok" if result.ok else "VIOLATION"
        lines.append(f"[{verdict}] {result.summary()}")
    return "\n".join(lines)


def _lint_table(runner: Runner) -> str:
    from repro.experiments.lint_table import run_lint_table

    return run_lint_table(runner).render()


def _exhibit_runners():
    from repro.experiments.fig8 import run_fig8
    from repro.experiments.fig9 import run_fig9
    from repro.experiments.fig10 import run_fig10
    from repro.experiments.fig11 import run_fig11

    return {
        "table1": _table1,
        "table2": _table2,
        "table6": _table6,
        "table7": _table7,
        "table8": _table8,
        "fig8": _figure(run_fig8),
        "fig9": _figure(run_fig9),
        "fig10": _figure(run_fig10),
        "fig11": _figure(run_fig11),
        "ablations": _ablations,
        "litmus": _litmus,
        "lint_table": _lint_table,
    }


# ----------------------------------------------------------------------
#: subcommand -> one-line description.  Each line names the doc page
#: that covers the subcommand; tests/test_cli_help.py pins the rendered
#: help against tests/golden/cli_help.txt so these stay in sync with
#: docs/README.md.
SUBCOMMANDS = (
    ("run", "run paper exhibits as an offline campaign "
            "(docs/architecture.md)"),
    ("lint", "statically lint kernels for scope misuse "
             "(docs/scolint.md)"),
    ("fuzz", "differential kernel fuzzing with constructed ground "
             "truth (docs/fuzzing.md)"),
    ("mc", "bounded DPOR schedule exploration over litmus kernels "
           "(docs/model_checking.md)"),
    ("explain", "render race forensics bundles as human-readable "
                "reports (docs/forensics.md)"),
    ("report", "render a text dashboard from telemetry artifacts "
               "(docs/architecture.md)"),
    ("serve", "race-checking as a service: HTTP daemon over the "
              "shared worker pool (docs/service.md)"),
)


def _subcommand_epilog() -> str:
    lines = ["subcommands:"]
    for name, blurb in SUBCOMMANDS:
        lines.append(f"  {name:<9}{blurb}")
    lines.append(
        "\nBare exhibit names (no subcommand) are equivalent to 'run'."
    )
    return "\n".join(lines)


def _help_formatter(prog):
    # Fixed width keeps --help byte-identical across terminals, so the
    # committed golden (tests/golden/cli_help.txt) diffs cleanly.
    return argparse.RawDescriptionHelpFormatter(prog, width=78)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scord-experiments",
        description="Regenerate the tables and figures of the ScoRD paper.",
        epilog=_subcommand_epilog(),
        formatter_class=_help_formatter,
    )
    parser.add_argument(
        "exhibits",
        nargs="*",
        default=["all"],
        help=f"any of {', '.join(EXHIBITS)}, or 'all' (default)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        help="durably log every unit the campaign answers, fresh or "
        "cached, to this JSONL run store",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="per-simulation wall-clock timeout for pool units (needs "
        "--jobs N); an overrunning unit is retried once, then fails as "
        "run-timeout",
    )
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        help="write a machine-readable campaign manifest (exhibit "
        "status + failed runs) to PATH as JSON",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="run the campaign's simulations on a supervised pool of N "
        "isolated worker processes (0 = in-process, no isolation; "
        "default 0)",
    )
    parser.add_argument(
        "--chaos-kill-every",
        type=int,
        default=0,
        metavar="N",
        help="chaos drill: SIGKILL the pool worker serving every Nth "
        "unit's first attempt (0 = off); the campaign must still "
        "complete with identical records",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="content-addressed result cache directory: completed units "
        "are stored by config/seed/schema hash and reused across runs, "
        "so a killed campaign rerun over the same directory resumes",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace_event JSON (load in Perfetto / "
        "chrome://tracing) of the campaign to PATH, plus a compact "
        "JSONL sibling",
    )
    parser.add_argument(
        "--trace-filter",
        metavar="SPEC",
        help="trace filter, e.g. 'level=info,cat=exp+engine,steps=64' "
        "(see docs/architecture.md §8)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics registry as Prometheus text to PATH "
        "(and JSON to PATH.json)",
    )
    parser.add_argument(
        "--flight",
        action="store_true",
        help="enable the flight recorder: capture the per-access event "
        "stream of every simulation (bounded ring buffer by default); "
        "off by default so the engine hot path stays uninstrumented",
    )
    parser.add_argument(
        "--flight-mode",
        choices=("ring", "full"),
        default="ring",
        help="flight capture mode: 'ring' keeps the last --flight-capacity "
        "events, 'full' keeps everything (default ring)",
    )
    parser.add_argument(
        "--flight-capacity",
        type=int,
        default=65536,
        metavar="N",
        help="ring-buffer capacity in events (default 65536)",
    )
    parser.add_argument(
        "--forensics-out",
        metavar="DIR",
        help="write a forensics bundle (JSON + narrative + trace slice) "
        "for every detected race under DIR (implies --flight)",
    )
    parser.add_argument(
        "--event-log",
        metavar="PATH",
        help="with --jobs N: stream the workers' structured JSONL event "
        "log (unit lifecycle + forensics, with campaign/unit/worker "
        "correlation IDs) to PATH",
    )
    return parser


def _flight_config(args):
    """The campaign's FlightConfig, or None when capture is off."""
    if not (args.flight or args.forensics_out):
        return None
    from repro.telemetry import FlightConfig

    return FlightConfig(
        mode=args.flight_mode, capacity=args.flight_capacity
    )


def _build_telemetry(args, flight=None):
    """A Telemetry bundle when any telemetry output was requested."""
    if not (args.trace or args.metrics_out or flight is not None):
        return None
    from repro.telemetry import Telemetry, TraceConfig

    if args.trace_filter:
        config = TraceConfig.parse_filter(args.trace_filter)
    else:
        config = TraceConfig()
    if not args.trace:
        config = dataclasses.replace(config, enabled=False)
    return Telemetry(config, flight=flight)


def _build_cache(args):
    if not args.cache_dir:
        return None
    from repro.experiments.parallel import ResultCache

    return ResultCache(args.cache_dir)


def _build_runner(
    args, supervisor=None, cache=None, telemetry=None, flight=None
) -> Runner:
    """The in-process Runner, or a CampaignRunner over *supervisor*."""
    store = None
    if args.store:
        from repro.experiments.store import RunStore

        store = RunStore(args.store)
    verbose = not args.quiet
    if supervisor is None:
        return Runner(
            verbose=verbose, store=store, result_cache=cache,
            telemetry=telemetry, flight=flight,
            forensics_dir=args.forensics_out,
        )
    from repro.experiments.campaign import CampaignRunner

    return CampaignRunner(
        supervisor, verbose=verbose, store=store,
        telemetry=telemetry, flight=flight, forensics_dir=args.forensics_out,
        result_cache=cache, jobs=args.jobs,
    )


def _phase(telemetry, name, span):
    """``telemetry.phase`` for one campaign phase; a no-op without
    telemetry."""
    if telemetry is None:
        return contextlib.nullcontext()
    return telemetry.phase(name, span)


def _build_pool(args, telemetry=None, flight=None):
    """A (PoolSupervisor, fault_plan) pair of ``--jobs`` workers."""
    from repro.experiments.supervisor import PoolConfig, PoolSupervisor

    fault_plan = None
    if args.chaos_kill_every:
        from repro.experiments.faults import ChaosPlan

        fault_plan = ChaosPlan("pool-kill", every=args.chaos_kill_every)
    supervisor = PoolSupervisor(
        PoolConfig(workers=args.jobs, unit_timeout=args.timeout),
        fault_plan=fault_plan,
        telemetry=telemetry,
        verbose=not args.quiet,
        flight=flight,
        forensics_dir=args.forensics_out,
        event_log_path=args.event_log,
    )
    return supervisor, fault_plan


def _write_manifest(
    path, wanted, exhibit_errors, runner, elapsed_seconds, telemetry=None,
    pool_section=None, forensics_section=None,
) -> None:
    from repro.experiments.store import SCHEMA_VERSION, atomic_write_json

    failed_runs = [f.to_dict() for f in getattr(runner, "failures", [])]
    exhibits = {}
    for name in wanted:
        err = exhibit_errors.get(name)
        if err is None:
            exhibits[name] = {"status": "ok"}
        else:
            exhibits[name] = {
                "status": "failed",
                "code": error_code(err),
                "error": str(err),
            }
    payload = {
        "schema": SCHEMA_VERSION,
        "ok": not exhibit_errors and not failed_runs,
        "exhibits": exhibits,
        "failed_runs": failed_runs,
        "counts": {
            "unique_simulations": runner.runs_done(),
            "fresh_runs": runner.fresh_runs,
            "cached_runs": runner.cached_runs,
            "failed_runs": len(failed_runs),
        },
        "cache": (
            runner.result_cache.stats()
            if runner.result_cache is not None
            else None
        ),
        "profile": telemetry.profile() if telemetry is not None else None,
        "elapsed_seconds": round(elapsed_seconds, 3),
    }
    if pool_section is not None:
        payload["pool"] = pool_section
    if forensics_section is not None:
        payload["forensics"] = forensics_section
    atomic_write_json(path, payload)


def report_main(argv) -> int:
    """``scord-experiments report``: render a telemetry text dashboard."""
    parser = argparse.ArgumentParser(
        prog="scord-experiments report",
        description="Render a text dashboard from telemetry artifacts "
        "(any subset of a Chrome trace, a metrics JSON, and a campaign "
        "manifest).",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="Chrome trace JSON written by --trace",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="metrics JSON written next to --metrics-out (PATH.json)",
    )
    parser.add_argument(
        "--manifest", metavar="PATH",
        help="campaign manifest written by --manifest",
    )
    parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="counters shown in the top-counters table (default 20)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="live campaign dashboard: re-read the artifacts and redraw "
        "every --interval seconds (Ctrl-C to stop); missing or "
        "mid-write files are tolerated and retried",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period for --live (default 2.0)",
    )
    parser.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="with --live: stop after N redraws (0 = until Ctrl-C)",
    )
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.manifest):
        parser.error("nothing to report: give --trace, --metrics, "
                     "or --manifest")
    import json

    from repro.telemetry import render_dashboard

    def load(path, tolerant):
        if not path:
            return None
        try:
            with open(path, "r") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            # Live mode races the writer: absent or half-written
            # artifacts render as "not yet", never as a crash.
            if tolerant:
                return None
            raise

    def render_once(tolerant):
        trace = load(args.trace, tolerant)
        metrics = load(args.metrics, tolerant)
        manifest = load(args.manifest, tolerant)
        if tolerant and trace is None and metrics is None \
                and manifest is None:
            return "[live] waiting for telemetry artifacts..."
        return render_dashboard(
            trace=trace, metrics=metrics, manifest=manifest, top=args.top,
        )

    try:
        if not args.live:
            print(render_once(tolerant=False))
            return 0
        redraws = 0
        while True:
            text = render_once(tolerant=True)
            redraws += 1
            # Clear + home, then the frame — a minimal live TTY update.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            if args.iterations and redraws >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # `report ... | head` closes stdout early; that is not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def lint_main(argv) -> int:
    """``scord-experiments lint``: static scope analysis, no simulation."""
    parser = argparse.ArgumentParser(
        prog="scord-experiments lint",
        description="Statically lint kernels for scope misuse "
        "(see docs/scolint.md for the rule catalog).",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["suite"],
        help="'suite' (default: 32 micros + 7 apps, race flags on and "
        "off), 'all' (suite + litmus), 'micros', 'apps', 'litmus', or "
        "individual micro:<name> / app:<NAME>[+flag...] / litmus:<name> "
        "(see docs/scor_suite.md)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="also write the report to PATH (atomic: temp file + rename)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="list clean targets individually in the text report",
    )
    parser.add_argument(
        "--crossval", action="store_true",
        help="cross-validate against the dynamic detector and print the "
        "per-race-type precision/recall table (simulates the suite)",
    )
    parser.add_argument(
        "--static-only", action="store_true",
        help="with --crossval: skip the dynamic simulations",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write lint.* counters as Prometheus text to PATH "
        "(and JSON to PATH.json)",
    )
    args = parser.parse_args(argv)

    from repro.scolint import render_json, render_text
    from repro.scolint.model import LintError

    if args.crossval:
        from repro.scolint.crossval import cross_validate

        validation = cross_validate(
            None if args.static_only else Runner(verbose=False)
        )
        output = validation.render() + "\n"
        if args.json:
            import json

            output = json.dumps(
                validation.as_dict(), indent=2, sort_keys=True
            ) + "\n"
        print(output, end="")
        if args.out:
            from repro.experiments.store import atomic_write_text

            atomic_write_text(args.out, output)
            print(f"[lint report written to {args.out}]", file=sys.stderr)
        errors = [
            (c.target, c.static_error)
            for c in validation.cases if c.static_error
        ]
        for target, error in errors:
            print(f"[lint-error] {target}: {error}", file=sys.stderr)
        return 1 if errors else 0

    from repro.scolint.suite import lint_target
    from repro.targets import expand_targets

    try:
        targets = expand_targets(args.targets)
    except ConfigError as err:
        parser.error(str(err))

    results, errors = [], []
    for target in targets:
        try:
            results.append(lint_target(target))
        except LintError as err:
            errors.append((target.label, err))
            print(f"[lint-error] {target.label}: {err.describe()}",
                  file=sys.stderr, flush=True)
    output = (render_json(results) if args.json
              else render_text(results, verbose=args.verbose))
    print(output, end="")
    if args.out:
        from repro.experiments.store import atomic_write_text

        atomic_write_text(args.out, output)
        print(f"[lint report written to {args.out}]", file=sys.stderr)
    if args.metrics_out:
        from repro.scolint import record_lint_metrics
        from repro.telemetry import Telemetry

        telemetry = Telemetry.disabled()
        record_lint_metrics(telemetry, results)
        telemetry.metrics.counter("lint.errors").inc(len(errors))
        for written in telemetry.export(None, args.metrics_out):
            print(f"[telemetry written to {written}]", file=sys.stderr)
    return 1 if errors else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "explain":
        from repro.forensics.explain import explain_main

        return explain_main(argv[1:])
    if argv and argv[0] == "mc":
        from repro.mc.cli import mc_main

        return mc_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "run":
        # Explicit alias for the default exhibit-campaign mode, so every
        # documented subcommand has a name (bare exhibits still work).
        argv = argv[1:] or ["all"]
    parser = _build_parser()
    args = parser.parse_args(argv)

    wanted = list(args.exhibits)
    if "all" in wanted:
        wanted = list(EXHIBITS)
    unknown = [name for name in wanted if name not in EXHIBITS]
    if unknown:
        parser.error(f"unknown exhibit(s): {', '.join(unknown)}")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = in-process)")
    if args.timeout is not None and not args.jobs:
        parser.error("--timeout bounds pool units; it requires --jobs N")
    if args.chaos_kill_every < 0:
        parser.error("--chaos-kill-every must be >= 0 (0 = off)")
    if args.chaos_kill_every and not args.jobs:
        parser.error("--chaos-kill-every injects pool faults; it requires "
                     "--jobs N")

    cache = _build_cache(args)
    try:
        flight = _flight_config(args)
    except ValueError as error:
        parser.error(f"--flight: {error}")
    try:
        telemetry = _build_telemetry(args, flight=flight)
    except ValueError as error:
        parser.error(f"--trace-filter: {error}")
    supervisor = fault_plan = None
    if args.jobs:
        supervisor, fault_plan = _build_pool(
            args, telemetry=telemetry, flight=flight
        )
    runner = _build_runner(
        args, supervisor, cache=cache, telemetry=telemetry, flight=flight
    )
    runners = _exhibit_runners()
    started = time.time()
    campaign_span = None
    if telemetry is not None:
        campaign_span = telemetry.tracer.span(
            "campaign", cat="exp", exhibits=wanted, jobs=args.jobs
        )
        campaign_span.__enter__()
    plannable = [name for name in wanted if name in RUNNER_EXHIBITS]
    exhibit_errors = {}
    # One scheduler and pool serve the prefetch and every unit the
    # planner missed; they close before the manifest so its stats are
    # final.
    try:
        if supervisor is not None and plannable:
            from repro.experiments.parallel import prefetch_exhibits

            with _phase(telemetry, "exp.prefetch", "parallel-prefetch"):
                prefetch_exhibits(
                    runner, runners, plannable, verbose=not args.quiet
                )
        for name in wanted:
            try:
                with _phase(telemetry, f"exp.render.{name}",
                            f"exhibit:{name}"):
                    text = runners[name](runner)
                print(text)
            except ReproError as err:
                # One exhibit failing must not abort the campaign: report
                # a single structured line and keep rendering the rest.
                exhibit_errors[name] = err
                print(
                    f"[exhibit-failed] {name}: {err.describe()}",
                    file=sys.stderr,
                    flush=True,
                )
            print()
    finally:
        if supervisor is not None:
            runner.scheduler.close()
            supervisor.close()
    pool_section = None
    if supervisor is not None:
        pool_section = supervisor.stats()
        if fault_plan is not None:
            pool_section["chaos_injected"] = fault_plan.injected
    if campaign_span is not None:
        campaign_span.__exit__(None, None, None)
    elapsed = time.time() - started
    forensics_section = runner.forensics_section()
    if forensics_section is not None and not args.quiet:
        print(
            f"[forensics: {forensics_section['units_captured']} unit(s) "
            f"captured, {forensics_section['bundles']} bundle(s)"
            + (f" under {args.forensics_out}" if args.forensics_out else "")
            + "]",
            file=sys.stderr,
        )
    if args.manifest:
        _write_manifest(
            args.manifest, wanted, exhibit_errors, runner, elapsed,
            telemetry=telemetry, pool_section=pool_section,
            forensics_section=forensics_section,
        )
        print(f"[manifest written to {args.manifest}]", file=sys.stderr)
    if telemetry is not None:
        for written in telemetry.export(args.trace, args.metrics_out):
            print(f"[telemetry written to {written}]", file=sys.stderr)
    failed_runs = getattr(runner, "failures", [])
    print(
        f"[{runner.runs_done()} unique simulations "
        f"({runner.fresh_runs} fresh, {runner.cached_runs} cached), "
        f"{elapsed:.0f}s]",
        file=sys.stderr,
    )
    if exhibit_errors or failed_runs:
        print(
            f"[FAILURES: {len(exhibit_errors)} exhibit(s), "
            f"{len(failed_runs)} run(s)]",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
