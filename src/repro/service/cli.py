"""``scord-experiments serve`` — boot the race-checking daemon.

Flags mirror the offline campaign CLI where the concept is shared
(``--store``, ``--cache-dir``, ``--jobs``, ``--trace``,
``--forensics-out``) so an operator can point the daemon at the same
artifacts the batch runs produce.  See docs/service.md for the
endpoint reference and operations guide.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scord-experiments serve",
        description="Serve race-checking over HTTP: submit campaign "
        "units or kernel-DSL programs, poll job status, stream "
        "reports (see docs/service.md).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8787,
        help="listen port (0 = pick an ephemeral port; default 8787)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="persistent warm workers behind the shared pool "
        "(default 2)",
    )
    parser.add_argument(
        "--dispatchers", type=int, default=2, metavar="N",
        help="scheduler threads: units run at once, one per client "
        "(default 2)",
    )
    parser.add_argument(
        "--store", metavar="PATH",
        help="durably append every fresh record to this JSONL run store",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result cache shared with offline runs",
    )
    parser.add_argument(
        "--quota-units", type=float, default=256.0, metavar="N",
        help="per-client token-bucket capacity, one token per unit "
        "(default 256)",
    )
    parser.add_argument(
        "--quota-refill", type=float, default=4.0, metavar="PER_S",
        help="per-client bucket refill rate in tokens/second (default 4)",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-unit wall-clock timeout inside the pool",
    )
    parser.add_argument(
        "--forensics-out", metavar="DIR",
        help="write per-unit forensics bundles under DIR",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record per-request trace spans and write them on drain as "
        "a Chrome trace_event JSON to PATH, plus a compact JSONL sibling",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log every request line to stderr",
    )
    return parser


def serve_main(argv: Optional[list] = None) -> int:
    from repro.service.daemon import ServiceDaemon
    from repro.service.jobs import ServiceConfig
    from repro.telemetry import Telemetry, TraceConfig

    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.dispatchers < 1:
        parser.error("--dispatchers must be >= 1")
    if args.quota_units <= 0:
        parser.error("--quota-units must be > 0")
    if args.quota_refill < 0:
        parser.error("--quota-refill must be >= 0")

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.jobs,
        dispatchers=args.dispatchers,
        store_path=args.store,
        cache_dir=args.cache_dir,
        quota_units=args.quota_units,
        quota_refill_per_s=args.quota_refill,
        unit_timeout=args.timeout,
        forensics_dir=args.forensics_out,
        verbose=args.verbose,
    )
    telemetry = Telemetry(TraceConfig(enabled=bool(args.trace)))
    daemon = ServiceDaemon(config, telemetry=telemetry)
    print(
        f"[scord-serve] listening on {daemon.address} "
        f"(workers={config.workers}, dispatchers={config.dispatchers}, "
        f"quota={config.quota_units:g}@{config.quota_refill_per_s:g}/s)"
        + (f" store={config.store_path}" if config.store_path else "")
        + (f" cache={config.cache_dir}" if config.cache_dir else ""),
        file=sys.stderr,
        flush=True,
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.drain(timeout=30)
    if args.trace:
        for written in telemetry.export(args.trace, None):
            print(f"[telemetry written to {written}]", file=sys.stderr)
    print("[scord-serve] drained; bye", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve_main())
