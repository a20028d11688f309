"""The metrics registry: named instruments, collectors, and exporters.

One :class:`MetricsRegistry` per telemetry context unifies every number
the stack produces — the engine's :class:`~repro.common.stats.CounterBag`
counters, timing-model busy cycles, detector statistics (Bloom fill,
metadata occupancy, races flagged), scheduler health, and experiment
throughput — behind three instrument kinds:

* :class:`Counter`   — monotonically increasing totals;
* :class:`Gauge`     — point-in-time values;
* :class:`Histogram` — bucketed distributions (e.g. unit latencies).

Metric names follow ``layer.component.metric`` (``mem.l1.hit.data``,
``timing.dram.busy_cycles``, ``scord.detector.checks``,
``exp.unit.seconds``).  Instruments may carry **labels**
(``registry.counter("exp.unit.seconds", shard="3")``), which export as
Prometheus label sets.

Legacy ``CounterBag`` names keep working: :meth:`MetricsRegistry.bind_bag`
is the thin adapter that snapshots a bag through its single snapshot
path (``as_dict()``) at collect time — zero overhead on the simulator's
hot path — canonicalizing each name onto the layered scheme while
:meth:`value` still resolves the old spelling (``l1.hit.data`` →
``mem.l1.hit.data``).

Exports: :meth:`to_json` and Prometheus text format
(:meth:`to_prometheus`), both deterministic (sorted) for golden tests.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: first-path-segment -> layer, for canonicalizing legacy CounterBag names
_LAYER_BY_PREFIX = {
    "l1": "mem",
    "l2": "mem",
    "wb": "mem",
    "vis": "mem",
    "dram": "timing",
    "noc": "timing",
    "detector": "scord",
    "sched": "engine",
    "gpu": "engine",
}

#: default histogram buckets (seconds-flavored, generous dynamic range)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [0-9eE+.\-]+(\s[0-9]+)?$"
)


def canonical_counter_name(name: str) -> str:
    """Map a legacy ``CounterBag`` name onto ``layer.component.metric``.

    >>> canonical_counter_name("l1.hit.data")
    'mem.l1.hit.data'
    >>> canonical_counter_name("detector.checks")
    'scord.detector.checks'
    >>> canonical_counter_name("custom.thing")
    'engine.custom.thing'
    """
    head = name.split(".", 1)[0]
    layer = _LAYER_BY_PREFIX.get(head, "engine")
    return f"{layer}.{name}"


def prometheus_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus exposition."""
    return "repro_" + _PROM_BAD.sub("_", name)


def validate_prometheus(text: str) -> List[str]:
    """Best-effort exposition-format check; returns problems (empty = ok)."""
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        if not _PROM_LINE.match(line):
            problems.append(f"line {lineno}: unparsable sample {line!r}")
    return problems


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _flat_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A bucketed distribution (cumulative buckets, Prometheus-style)."""

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Instrument factory, collector hub, and exporter."""

    def __init__(self):
        self._instruments: Dict[Tuple[str, tuple], object] = {}
        self._collectors: List[Callable[[], Dict[str, float]]] = []
        self._keyed_collectors: Dict[str, Callable[[], Dict[str, float]]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).kind}, not {cls.kind}"
                )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def family(self, name: str, label: str) -> Dict[str, object]:
        """The instruments named *name*, keyed by their *label* value."""
        with self._lock:
            return {
                dict(labels)[label]: instrument
                for (key, labels), instrument in self._instruments.items()
                if key == name
            }

    # ------------------------------------------------------------------
    # Collectors — pull-style sources read at snapshot time
    # ------------------------------------------------------------------
    def register_collector(
        self, collect: Callable[[], Dict[str, float]],
        key: Optional[str] = None,
    ) -> None:
        """Add a callable returning ``{metric_name: value}`` gauges.

        A *key* makes the registration **replacing**: a later collector
        registered under the same key supersedes the earlier one.  A
        campaign simulating hundreds of GPUs binds each under one key,
        so the registry holds live gauges for the most recent machine
        instead of accumulating collectors (and keeping dead GPUs
        reachable) without bound.
        """
        with self._lock:
            if key is not None:
                self._keyed_collectors[key] = collect
            else:
                self._collectors.append(collect)

    def bind_bag(
        self, bag, canonicalize=canonical_counter_name,
        key: Optional[str] = None,
    ) -> None:
        """Adapt a :class:`~repro.common.stats.CounterBag` into the registry.

        The bag is *not* copied and pays nothing per ``add``: its
        ``as_dict()`` snapshot is read lazily at export time, each legacy
        name mapped through *canonicalize* onto the layered scheme.
        """

        def collect() -> Dict[str, float]:
            return {
                canonicalize(name): float(value)
                for name, value in bag.as_dict().items()
            }

        self.register_collector(collect, key=key)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def samples(self) -> List[Tuple[str, str, float]]:
        """Every current sample as ``(flat_name, kind, value)``, sorted.

        Histograms contribute ``<name>.count``, ``<name>.sum`` and
        ``<name>.mean`` pseudo-samples here; the bucket vector only
        appears in the Prometheus exposition.
        """
        out: List[Tuple[str, str, float]] = []
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors) + list(
                self._keyed_collectors.values()
            )
        for instrument in instruments:
            flat = _flat_name(instrument.name, instrument.labels)
            if isinstance(instrument, Histogram):
                out.append((flat + ".count", "histogram", float(instrument.count)))
                out.append((flat + ".sum", "histogram", instrument.total))
                out.append((flat + ".mean", "histogram", instrument.mean))
            else:
                out.append((flat, instrument.kind, instrument.value))
        for collect in collectors:
            try:
                collected = collect()
            except Exception:
                continue  # a dead collector must not kill the export
            for name, value in collected.items():
                out.append((name, "gauge", float(value)))
        out.sort(key=lambda item: item[0])
        return out

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name: value}`` view of everything currently known."""
        return {name: value for name, _kind, value in self.samples()}

    def value(self, name: str, default: Optional[float] = None) -> float:
        """Look up one metric, resolving legacy ``CounterBag`` names.

        ``value("l1.hit.data")`` finds ``mem.l1.hit.data`` — the
        deprecation shim that keeps pre-telemetry counter names working.
        """
        snap = self.snapshot()
        if name in snap:
            return snap[name]
        alias = canonical_counter_name(name)
        if alias in snap:
            return snap[alias]
        if default is not None:
            return default
        raise KeyError(
            f"no metric {name!r} (tried alias {alias!r}); "
            f"{len(snap)} metrics registered"
        )

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Deterministic JSON document of every sample."""
        return {
            "schema": 1,
            "metrics": {
                name: value for name, _kind, value in self.samples()
            },
        }

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (spec 0.0.4)."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}

        def type_line(prom: str, kind: str) -> None:
            if seen_types.get(prom) is None:
                seen_types[prom] = kind
                lines.append(f"# TYPE {prom} {kind}")

        with self._lock:
            instruments = sorted(
                self._instruments.values(), key=lambda i: (i.name, i.labels)
            )
            collectors = list(self._collectors) + list(
                self._keyed_collectors.values()
            )
        for instrument in instruments:
            prom = prometheus_name(instrument.name)
            labels = "".join(
                f'{k}="{v}",' for k, v in instrument.labels
            ).rstrip(",")
            label_part = f"{{{labels}}}" if labels else ""
            if isinstance(instrument, Histogram):
                type_line(prom, "histogram")
                cumulative = 0
                for bound, count in zip(instrument.buckets, instrument.counts):
                    cumulative = count
                    le = (
                        f'le="{bound:g}"' if labels == ""
                        else f'{labels},le="{bound:g}"'
                    )
                    lines.append(f"{prom}_bucket{{{le}}} {cumulative}")
                le_inf = (
                    'le="+Inf"' if labels == "" else f'{labels},le="+Inf"'
                )
                lines.append(f"{prom}_bucket{{{le_inf}}} {instrument.count}")
                lines.append(f"{prom}_sum{label_part} {instrument.total:g}")
                lines.append(f"{prom}_count{label_part} {instrument.count}")
            else:
                type_line(prom, instrument.kind)
                lines.append(f"{prom}{label_part} {instrument.value:g}")
        collected: Dict[str, float] = {}
        for collect in collectors:
            try:
                collected.update(collect())
            except Exception:
                continue
        for name in sorted(collected):
            prom = prometheus_name(name)
            type_line(prom, "gauge")
            lines.append(f"{prom} {collected[name]:g}")
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_prometheus())
