"""Out-of-band layer tracer for the benchmark's traced runs.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
replaces public functions of each layer, at class or module level, with
timing wrappers; :meth:`Tracer.uninstall` puts the originals back.  It
must run before any GPU, daemon or pool is constructed, because
``MemoryPipeline`` binds ``detector.on_access`` and ``fabric.dram.access``
when it is built.

Two kinds of boundary are wrapped:

* **spans** — units, launches, jobs and stages.  Each finished span is
  kept in memory with its id, parent id, trace id (shared by every span
  of one unit or job), start, end and self time;
* **folds** — the per-call boundaries that run millions of times
  (``on_access``, the ``exec_*`` lane loops, the timing fabric).  They
  record no span; their count, busy time and self time are added to the
  enclosing span's ``layers`` table.

Self time is a frame's duration minus the time its wrapped children
cover, so the per-layer self times of one thread never double count.
A missing target (renamed or deleted by a later change) is skipped, and
its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time

_clock = time.perf_counter

#: the installed tracer, if any (see :func:`active`)
_active = None


def active():
    """The tracer whose wrappers are installed, or None in a timed run."""
    return _active


class Tracer:
    """Spans plus folded per-layer accumulators, per thread."""

    def __init__(self):
        self.spans = []
        self.launches = []  # LaunchResult of every traced GPU.launch
        self.mc_reports = []
        self.missing = []  # wrap targets that do not exist here
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots = []  # per-thread accumulators outside any span
        self._patches = []
        #: client name -> (trace id, span id) of its open job span
        self.client_jobs = {}
        #: service job id -> (trace id, submit span id, submit end)
        self.service_jobs = {}
        #: summed queue wait: first unit start minus submit end, per job
        self.queue_wait_s = 0.0

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            root = {"layers": {}}
            with self._lock:
                self._roots.append(root)
            stack = self._local.stack = [[0.0, 0.0, None, root]]
        return stack

    def _close(self, stack, layer, started, child):
        """Add one popped frame's time to its layer's row."""
        took = _clock() - started
        stack[-1][1] += took
        table = stack[-1][3]["layers"]
        entry = table.get(layer)
        if entry is None:
            table[layer] = [1, took, took - child]
        else:
            entry[0] += 1
            entry[1] += took
            entry[2] += took - child

    def fold(self, layer, fn, *args, **kwargs):
        stack = self._stack()
        frame = [_clock(), 0.0, layer, stack[-1][3]]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self._close(stack, layer, frame[0], frame[1])

    @contextlib.contextmanager
    def span(self, layer, trace=None, parent=None, **attrs):
        """One span on the calling thread; yields its record."""
        frame = self._open(layer, trace, parent, attrs)
        try:
            yield frame[3]
        finally:
            self._finish(frame)

    def _open(self, layer, trace, parent, attrs):
        stack = self._stack()
        enclosing = stack[-1][3]
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "parent": parent if parent is not None else enclosing.get("id"),
            "trace": trace if trace is not None else enclosing.get(
                "trace", span_id),
            "name": layer,
            "attrs": attrs,
            "layers": {},
        }
        frame = [_clock(), 0.0, layer, record]
        record["start"] = frame[0]
        stack.append(frame)
        return frame

    def _finish(self, frame):
        stack = self._stack()
        stack.pop()
        record = frame[3]
        record["end"] = _clock()
        took = record["end"] - frame[0]
        record["self_s"] = took - frame[1]
        stack[-1][1] += took
        table = stack[-1][3]["layers"]
        entry = table.setdefault(frame[2], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += took
        entry[2] += record["self_s"]
        with self._lock:
            self.spans.append(record)
        return record

    def reset(self):
        """Forget everything recorded so far (no frame may be open)."""
        with self._lock:
            self.spans.clear()
            self.launches.clear()
            self.mc_reports.clear()
            for root in self._roots:
                root["layers"].clear()
            self.client_jobs.clear()
            self.service_jobs.clear()
            self.queue_wait_s = 0.0

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def layer_totals(self):
        """layer -> [calls, busy_s, self_s], summed over every table.

        A layer's busy time counts each call once: a span's own row sits
        in its parent's table, and its children's rows in its own.
        """
        totals = {}
        with self._lock:
            tables = [s["layers"] for s in self.spans]
            tables += [r["layers"] for r in self._roots]
        for table in tables:
            for layer, (calls, busy, own) in table.items():
                entry = totals.setdefault(layer, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += own
        return totals

    def write(self, path, extra=None):
        """Dump every span (times relative to the first) as JSON."""
        with self._lock:
            spans = list(self.spans)
        origin = min((s["start"] for s in spans), default=0.0)
        out = []
        for span in sorted(spans, key=lambda s: s["start"]):
            out.append({
                "id": span["id"],
                "parent": span["parent"],
                "trace": span["trace"],
                "name": span["name"],
                "attrs": span["attrs"],
                "start_s": round(span["start"] - origin, 6),
                "end_s": round(span["end"] - origin, 6),
                "self_s": round(span["self_s"], 6),
                "layers": {
                    layer: [calls, round(busy, 6), round(own, 6)]
                    for layer, (calls, busy, own) in span["layers"].items()
                },
            })
        payload = {"spans": out, "missing_targets": self.missing}
        payload.update(extra or {})
        with open(path, "w") as handle:
            json.dump(payload, handle, default=str)

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _patch(self, module, path, make):
        """Replace ``module.path`` (``Class.attr`` or ``attr``)."""
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}:{path}")
            return
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _folding(self, layer):
        fold = self.fold
        return lambda original: (
            lambda *a, **k: fold(layer, original, *a, **k))

    def _spanning(self, layer, context=None, after=None):
        """Span wrapper; *context(args)* -> (trace, parent, attrs)."""
        def make(original):
            def wrapper(*args, **kwargs):
                trace = parent = None
                attrs = {}
                if context is not None:
                    trace, parent, attrs = context(args, kwargs)
                frame = self._open(layer, trace, parent, attrs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    record = self._finish(frame)
                if after is not None:
                    after(args, result, record)
                return result
            return wrapper
        return make

    def install(self):
        """Wrap every layer boundary the per-layer metrics read."""
        global _active
        _active = self
        patch = self._patch
        # experiments.runner: one span per unit, keyed by detector
        patch("repro.experiments.runner", "Runner.run", self._spanning(
            "runner.unit", context=_unit_context))
        # engine: one span per launch (scheduler + kernel generators)
        patch("repro.engine.gpu", "GPU.launch", self._spanning(
            "engine", after=self._after_launch))
        # engine.memops: lane loops, folded with their lane counts
        lanes = self._lanes
        for name in ("exec_loads", "exec_stores", "exec_atomics",
                     "exec_sync_accesses", "exec_fences"):
            patch("repro.engine.memops", f"MemoryPipeline.{name}",
                  lambda original: (
                      lambda *a, **k: lanes(original, a, k)))
        # scord: the per-lane detector check
        patch("repro.scord.detector", "ScoRDDetector.on_access",
              self._folding("scord"))
        # timing: NoC, L2 and DRAM models
        for name in ("send_up", "send_down", "access_l2", "round_trip",
                     "l2_side_access"):
            patch("repro.timing.fabric", f"TimingFabric.{name}",
                  self._folding("timing"))
        patch("repro.timing.dram", "DramModel.access",
              self._folding("timing"))
        # fuzz, scolint, mc: one span per oracle stage
        patch("repro.fuzz.oracles", "static_verdict",
              self._spanning("scolint"))
        patch("repro.fuzz.oracles", "dynamic_verdict",
              self._spanning("fuzz.dynamic"))
        patch("repro.mc.explorer", "explore", self._spanning(
            "mc", after=lambda args, report, record:
            self.mc_reports.append(report)))
        # service: admission, units, pool, cache and store
        patch("repro.service.jobs", "JobManager.submit", self._spanning(
            "service.submit", context=self._submit_context,
            after=self._after_submit))
        patch("repro.service.jobs", "JobManager._run_unit", self._spanning(
            "service.unit", context=self._service_unit_context))
        patch("repro.experiments.supervisor", "PoolSupervisor.execute",
              self._spanning("pool.execute"))
        patch("repro.experiments.parallel", "ResultCache.get",
              self._folding("cache.get"))
        patch("repro.experiments.parallel", "ResultCache.put",
              self._folding("cache.put"))
        patch("repro.experiments.store", "RunStore.append",
              self._folding("store.append"))
        return self

    def uninstall(self):
        global _active
        _active = None
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Layer-specific hooks
    # ------------------------------------------------------------------
    def _lanes(self, original, args, kwargs):
        items = args[3] if len(args) > 3 else kwargs.get("items", ())
        # a count-only row: [lanes, 0, 0]
        table = self._stack()[-1][3]["layers"]
        entry = table.get("memops.lanes")
        if entry is None:
            table["memops.lanes"] = [len(items), 0.0, 0.0]
        else:
            entry[0] += len(items)
        return self.fold("memops", original, *args, **kwargs)

    def _after_launch(self, args, result, record):
        record["attrs"]["instructions"] = result.instructions
        record["attrs"]["events"] = result.events
        with self._lock:
            self.launches.append(result)

    def _submit_context(self, args, kwargs):
        client = args[1] if len(args) > 1 else kwargs.get("client")
        trace, parent = self.client_jobs.get(client, (None, None))
        return trace, parent, {"client": client}

    def _after_submit(self, args, job, record):
        with self._lock:
            self.service_jobs[job.id] = (
                record["trace"], record["id"], record["end"])

    def _service_unit_context(self, args, kwargs):
        job = args[1] if len(args) > 1 else kwargs.get("job")
        index = args[2] if len(args) > 2 else kwargs.get("index")
        with self._lock:
            known = self.service_jobs.get(job.id)
            if known is not None and len(known) == 3:
                # first unit of this job: its queue wait ends now
                self.queue_wait_s += _clock() - known[2]
                self.service_jobs[job.id] = known[:2]
                known = known[:2]
        trace, parent = known if known is not None else (None, None)
        return trace, parent, {"job": job.id, "index": index}


def _unit_context(args, kwargs):
    detector = args[2] if len(args) > 2 else kwargs.get("detector", "scord")
    app = getattr(args[1], "name", "?") if len(args) > 1 else "?"
    return None, None, {"detector": detector, "app": app}
