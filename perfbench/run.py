#!/usr/bin/env python3
"""The benchmark's one command: set up, measure, check, report.

    python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``apps``    serial in-process ScoR units under none/base/scord;
* ``fuzz-mc`` ``check_program(..., mc=True)`` over a seeded fuzz batch;
* ``serve``   an in-process scord-serve daemon driven by two
  closed-loop HTTP clients.

``--seed`` is the only source of generated inputs.  ``--trace 0`` is a
timed run: no tracing, every end-to-end metric.  ``--trace 1`` spends
half the time untraced and half with the layer wrappers of
:mod:`perfbench.tracer` installed, prints every per-layer metric plus
``tracing_overhead`` (traced ÷ untraced time over the ops both halves
completed), and writes the spans to ``.perfbench/``.

Every run checks the program's outputs and prints a digest of the exact
simulated statistics it covered; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the checkout
holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {"apps": "apps", "fuzz-mc": "fuzzmc", "serve": "serve"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_run(module, state, seconds):
    gc.collect()
    obs = module.measure(state, seconds)
    return obs, module.check(state, obs), module.digest(state, obs)


def traced_run(module, state, seconds, tracer):
    """Untraced half, then the same work traced; returns both."""
    from perfbench.harness import hook

    gc.collect()
    untraced = module.measure(state, seconds / 2)
    errors = module.check(state, untraced)
    digest = module.digest(state, untraced)
    tracer.install()
    try:
        # a fresh daemon/pool is built under the wrappers; its start-up
        # is set-up, not traced work
        state = hook(module, "fresh")(state)
        tracer.reset()
        gc.collect()
        traced = module.measure(state, seconds / 2)
    finally:
        tracer.uninstall()
    errors += module.check(state, traced)
    if module.digest(state, traced) != digest:
        errors.append("the traced half simulated different statistics")
    return state, untraced, traced, errors, digest


def _exit_on_sigterm(signum, frame):
    """SIGTERM becomes SystemExit, so that the workload's teardown stops
    the daemon and its pool workers."""
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run it from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import harness, layers
    from perfbench.tracer import Tracer

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    context = harness.run_context()
    state, setup_s = harness.timed_setup(module, args.seed)
    try:
        if args.trace:
            tracer = Tracer()
            state, untraced, obs, errors, digest = traced_run(
                module, state, args.seconds, tracer)
            op_times = harness.hook(module, "op_times")
            overhead, spread = harness.paired_overhead(
                op_times(untraced), op_times(obs))
            extra = harness.hook(module, "layer_extra")(state, obs)
            extra.update({"tracing_overhead": overhead,
                          "tracing_overhead.iqr": spread})
            metrics = layers.per_layer(tracer, extra)
            attempted, failed = harness.hook(module, "op_count")(untraced)
            more, worse = harness.hook(module, "op_count")(obs)
            attempted, failed = attempted + more, failed + worse
        else:
            obs, errors, digest = timed_run(module, state, args.seconds)
            attempted, failed = harness.hook(module, "op_count")(obs)
            metrics = module.end_to_end(state, obs)
            metrics["setup_s"] = harness.metric(setup_s, "s")
            metrics["peak_rss_mb"] = harness.metric(
                harness.peak_rss_mb() + obs.get("children_peak_mb", 0.0),
                "MB")
            metrics["ok_ratio"] = harness.metric(
                (attempted - failed) / max(1, attempted), "ratio")
    finally:
        harness.hook(module, "close")(state)
    lines = [
        f"# perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "# context " + json.dumps(context, sort_keys=True),
        f"# digest {digest}",
    ] + [f"# CHECK FAILED: {error}" for error in errors]
    if args.trace:
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        path = os.path.join(
            harness.OUT_DIR, f"trace-{args.workload}-s{args.seed}.json")
        tracer.write(path, extra={
            "workload": args.workload, "seed": args.seed,
            "context": context, "digest": digest, "metrics": metrics,
        })
        lines.append(f"# trace {os.path.relpath(path, ROOT)}")
    harness.emit(not errors, attempted, failed, metrics, lines)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
