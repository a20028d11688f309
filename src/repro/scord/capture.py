"""Flight capture: wrap any detector to feed the flight recorder.

This is the one recorder of the access stream.  The engine's hot path
is left untouched — capture is a *delegating detector* installed only
when flight recording is requested (``Telemetry(flight=FlightConfig(
mode="ring" | "full"))``), so the capture-off configuration runs the
uninstrumented fast path byte for byte.  Ring mode keeps the newest
``capacity`` events for debugging a kernel or the detector itself;
:meth:`~repro.telemetry.flight.FlightEvent.describe` renders one event
per line.  When installed:

* every access/fence/barrier is recorded into the
  :class:`~repro.telemetry.flight.FlightRecorder` *before* delegation
  (the pipeline recycles one scratch ``Access`` per lane, so fields are
  copied out immediately);
* after delegation, any race records the inner detector appended are
  paired with the provenance dicts the ScoRD race branch emitted
  (``detector.provenance``) and logged as always-on ``race`` events —
  the raw material :mod:`repro.forensics` reconstructs bundles from.

Wrapping a :class:`~repro.scord.interface.NullDetector` is deliberately
supported: the pipeline then reports accesses (capture works with
detection off) while the null inner detector keeps costing nothing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.scopes import Scope
from repro.scord.interface import Access, AccessKind, BaseDetector
from repro.scord.races import RaceRecord
from repro.telemetry.flight import FlightRecorder


class FlightCapture(BaseDetector):
    """Delegating detector that records the event stream in flight."""

    def __init__(self, inner: BaseDetector, flight: FlightRecorder):
        super().__init__()
        self.inner = inner
        self.flight = flight
        self.noc_packet_overhead = inner.noc_packet_overhead
        #: (race record, provenance dict or None), in detection order
        self.race_log: List[Tuple[RaceRecord, Optional[dict]]] = []
        # Ask the inner detector for verdict provenance if it can supply
        # it (ScoRD can; comparator detectors simply lack the attribute).
        self.provenance: List[dict] = []
        if hasattr(inner, "provenance"):
            inner.provenance = self.provenance
        self._last_cycle = 0

    @property
    def report(self):
        return self.inner.report

    @report.setter
    def report(self, value):  # BaseDetector.__init__ assigns this
        pass

    # -- delegation ----------------------------------------------------
    def attach(self, fabric, stats) -> None:
        self.inner.attach(fabric, stats)

    def on_access(self, now: int, access: Access) -> int:
        self._last_cycle = now
        self.flight.record_access(
            now,
            access.kind.value,
            access.block_id,
            access.warp_id,
            access.addr,
            access.strong,
            (
                access.scope.name.lower()
                if access.kind is AccessKind.ATOMIC and access.scope
                else None
            ),
            access.pc,
            access.array_name,
            access.lane_id,
        )
        report = self.inner.report
        before = len(report._records)
        stall = self.inner.on_access(now, access)
        records = report._records
        if len(records) > before:
            for index in range(before, len(records)):
                record = records[index]
                race_index = len(self.race_log)
                prov = (
                    self.provenance[race_index]
                    if race_index < len(self.provenance)
                    else None
                )
                self.race_log.append((record, prov))
                self.flight.record_race(now, {
                    "type": record.race_type.value,
                    "scope_class": record.scope_class.value,
                    "addr": record.addr,
                    "array": record.array_name,
                    "kernel": record.pc[0],
                    "line": record.pc[1],
                    "block": record.block_id,
                    "warp": record.warp_id,
                    "prev_block": record.prev_block_id,
                    "prev_warp": record.prev_warp_id,
                })
        return stall

    def on_fence(self, now: int, block_id: int, warp_id: int, scope: Scope) -> None:
        self._last_cycle = now
        self.flight.record_sync(
            now, "fence", block_id, warp_id, scope=scope.name.lower()
        )
        self.inner.on_fence(now, block_id, warp_id, scope)

    def on_barrier(self, now: int, block_id: int) -> None:
        self._last_cycle = now
        self.flight.record_sync(now, "barrier", block_id, -1)
        self.inner.on_barrier(now, block_id)

    def on_kernel_boundary(self) -> None:
        self.flight.record_sync(self._last_cycle, "kernel", -1, -1)
        self.inner.on_kernel_boundary()

    def finalize(self) -> None:
        self.inner.finalize()

    def telemetry_snapshot(self) -> dict:
        return self.inner.telemetry_snapshot()
