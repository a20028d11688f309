"""The flight recorder: bounded capture of the per-access event stream.

Race *detection* answers "did these two accesses race"; race *forensics*
needs the events around the verdict — what each warp loaded, stored,
fenced and waited on, in simulated order.  The flight recorder is that
capture layer: a bounded event log fed by a delegating detector wrapper
(:class:`repro.scord.capture.FlightCapture`).  Forensics bundles
(:mod:`repro.forensics.bundle`) embed the slice of it around each race,
and the model checker slices it per scheduled step.

Two capture modes:

* ``ring`` (default) — a fixed-capacity ring buffer; oldest events are
  evicted, like a hardware flight recorder.  Bounded memory on runs of
  any length.
* ``full`` — keep everything (short runs, golden fixtures).

The **NULL path is zero-cost by construction**: when flight capture is
off, no wrapper is installed around the detector and the engine hot
path is byte-for-byte the PR 4 fast path — there is no per-access
branch to pay.  :data:`NULL_FLIGHT` exists for the layers above (CLI,
runner) so ``telemetry.flight`` is always safe to touch.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class FlightConfig:
    """How the recorder captures.

    *mode* is ``"ring"`` or ``"full"``; *capacity* bounds the ring.
    """

    mode: str = "ring"
    capacity: int = 65536

    def __post_init__(self):
        if self.mode not in ("ring", "full"):
            raise ValueError(f"flight mode must be ring|full, not {self.mode!r}")
        if self.capacity < 1:
            raise ValueError("flight capacity must be >= 1")

    def to_dict(self) -> dict:
        """Wire form (campaign/pool worker payloads)."""
        return {"mode": self.mode, "capacity": self.capacity}

    @staticmethod
    def from_dict(payload: dict) -> "FlightConfig":
        return FlightConfig(
            mode=payload.get("mode", "ring"),
            capacity=int(payload.get("capacity", 65536)),
        )


class FlightEvent:
    """One captured event (access, sync, or race verdict)."""

    __slots__ = (
        "cycle", "kind", "block_id", "warp_id", "addr", "scope",
        "strong", "pc", "array", "lane_id", "extra",
    )

    def __init__(
        self,
        cycle: int,
        kind: str,
        block_id: int,
        warp_id: int,
        addr: Optional[int] = None,
        scope: Optional[str] = None,
        strong: Optional[bool] = None,
        pc: Optional[Tuple[str, int]] = None,
        array: Optional[str] = None,
        lane_id: Optional[int] = None,
        extra: Optional[dict] = None,
    ):
        self.cycle = cycle
        self.kind = kind
        self.block_id = block_id
        self.warp_id = warp_id
        self.addr = addr
        self.scope = scope
        self.strong = strong
        self.pc = pc
        self.array = array
        self.lane_id = lane_id
        self.extra = extra

    def to_dict(self) -> dict:
        """JSON-friendly form; unset optional fields are omitted."""
        out = {
            "cycle": self.cycle,
            "kind": self.kind,
            "block": self.block_id,
            "warp": self.warp_id,
        }
        if self.addr is not None:
            out["addr"] = self.addr
        if self.scope is not None:
            out["scope"] = self.scope
        if self.strong is not None:
            out["strong"] = self.strong
        if self.pc is not None:
            out["pc"] = [self.pc[0], self.pc[1]]
        if self.array is not None:
            out["array"] = self.array
        if self.lane_id is not None:
            out["lane"] = self.lane_id
        if self.extra is not None:
            out["extra"] = self.extra
        return out

    def describe(self) -> str:
        place = f"b{self.block_id}w{self.warp_id}"
        target = self.array or (
            f"0x{self.addr:x}" if self.addr is not None else ""
        )
        bits = [f"[{self.cycle:>8}]", place, self.kind]
        if target:
            bits.append(target)
        if self.scope:
            bits.append(f"scope={self.scope}")
        if self.pc:
            bits.append(f"@{self.pc[0]}:{self.pc[1]}")
        return " ".join(bits)


class FlightRecorder:
    """Bounded event capture of accesses, syncs and race verdicts."""

    enabled = True

    def __init__(self, config: Optional[FlightConfig] = None):
        self.config = config if config is not None else FlightConfig()
        if self.config.mode == "ring":
            self.events = deque(maxlen=self.config.capacity)
        else:
            self.events: List[FlightEvent] = []  # type: ignore[no-redef]
        self.recorded = 0
        self.races = 0

    # ------------------------------------------------------------------
    # Capture (called from the FlightCapture detector wrapper)
    # ------------------------------------------------------------------
    def record_access(
        self,
        cycle: int,
        kind: str,
        block_id: int,
        warp_id: int,
        addr: int,
        strong: bool,
        scope: Optional[str],
        pc: Optional[Tuple[str, int]],
        array: Optional[str],
        lane_id: int,
    ) -> None:
        self.recorded += 1
        self.events.append(FlightEvent(
            cycle, kind, block_id, warp_id,
            addr=addr, scope=scope, strong=strong, pc=pc,
            array=array, lane_id=lane_id,
        ))

    def record_sync(
        self,
        cycle: int,
        kind: str,
        block_id: int,
        warp_id: int,
        scope: Optional[str] = None,
    ) -> None:
        self.recorded += 1
        self.events.append(
            FlightEvent(cycle, kind, block_id, warp_id, scope=scope)
        )

    def record_race(self, cycle: int, info: dict) -> None:
        self.races += 1
        self.recorded += 1
        self.events.append(FlightEvent(
            cycle, "race",
            info.get("block", -1), info.get("warp", -1),
            addr=info.get("addr"),
            array=info.get("array"),
            extra=info,
        ))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted by the ring (always 0 in full mode)."""
        return self.recorded - len(self.events)

    def snapshot(self) -> List[FlightEvent]:
        return list(self.events)

    def slice_for(
        self,
        addr: Optional[int] = None,
        warps: Iterable[Tuple[int, int]] = (),
        until: Optional[int] = None,
        limit: int = 64,
    ) -> List[FlightEvent]:
        """Trace slice: events on *addr* or by the given (block, warp)s.

        Keeps the *last* *limit* matching events at or before *until* —
        the context a forensics bundle embeds around a race.
        """
        wanted = set(warps)
        out = []
        for event in self.events:
            if until is not None and event.cycle > until:
                continue
            if (
                (addr is not None and event.addr == addr)
                or (event.block_id, event.warp_id) in wanted
                or event.kind == "barrier" and event.block_id in
                    {b for b, _w in wanted}
            ):
                out.append(event)
        return out[-limit:]

    def last_sync_for(
        self, block_id: int, warp_id: int, until: Optional[int] = None
    ) -> Optional[FlightEvent]:
        """Most recent fence/barrier on (block, warp)'s side of the race.

        Barriers are block-wide, so a barrier in *block_id* counts even
        though it carries no warp identity.
        """
        found = None
        for event in self.events:
            if until is not None and event.cycle > until:
                continue
            if event.kind == "fence" and event.block_id == block_id \
                    and event.warp_id == warp_id:
                found = event
            elif event.kind == "barrier" and event.block_id == block_id:
                found = event
        return found

    def collect_metrics(self) -> Dict[str, float]:
        """``flight.*`` gauges for the telemetry metrics registry."""
        return {
            "flight.events.recorded": float(self.recorded),
            "flight.events.live": float(len(self.events)),
            "flight.events.dropped": float(self.dropped),
            "flight.races": float(self.races),
        }


class NullFlightRecorder(FlightRecorder):
    """Capture disabled: every hook is a no-op, nothing is retained."""

    enabled = False

    def __init__(self):
        super().__init__(FlightConfig(mode="full"))

    def record_access(self, *args, **kwargs) -> None:
        pass

    def record_sync(self, *args, **kwargs) -> None:
        pass

    def record_race(self, cycle: int, info: dict) -> None:
        pass


#: the shared do-nothing recorder (safe to pass everywhere)
NULL_FLIGHT = NullFlightRecorder()
