"""The fuzzer's program IR: scoped two-actor communication phases.

A :class:`FuzzProgram` is a grid shape plus a list of independent
*phases*.  Each communication phase stages one synchronization idiom
from the suite (flag handoff, spin-lock mutex, shared atomics, barrier
publication) between two *actors* — lane-0 threads of two distinct
warps — on words private to that phase.  Noise phases (disjoint
per-thread writes, read-only scans) add scale without conflicts.

Ground truth is known **by construction** (docs/fuzzing.md):

* a phase with ``bug == Bug.NONE`` injects a happens-before chain at a
  scope covering its span (the writer's release fence + flag/lock/
  barrier edge + the reader's acquire side), so every conflicting pair
  it creates is ordered and flushed — race-free;
* every :class:`Bug` removes exactly one link of that chain, leaving a
  specific conflicting pair in a specific race class of the paper's
  Table IV — its :func:`expected_types` label.

Programs serialize to canonical JSON (sorted keys, no volatile fields),
so their SHA-256 digest is a stable content address usable with the
PR 2 result cache (:func:`fuzz_unit_digest`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Dict, Optional, Tuple

from repro.isa.scopes import Scope
from repro.scord.races import RaceType

#: bump when the program wire format or the generated kernel changes
#: incompatibly (invalidates fuzz cache digests and corpus entries).
PROGRAM_SCHEMA = "fuzz-program/v1"

#: bounded spins, so both the engine and the lint interpreter terminate
POLL_LIMIT = 3000
LOCK_LIMIT = 3000
BACKOFF_CYCLES = 20
#: the writer idles before publishing so a weak poller demonstrably
#: polls (>= 3 occurrences is scolint's polling signature)
WRITER_DELAY_OPS = 6


class PhaseKind(enum.Enum):
    """The synchronization idiom a phase stages."""

    HANDOFF = "handoff"      # st payload; fence; flag exch  /  poll; ld
    MUTEX = "mutex"          # CAS+fence ... fence+Exch critical sections
    ATOMICS = "atomics"      # both actors RMW one shared word
    BARRIER = "barrier"      # st; __syncthreads; ld (same block only)
    DISJOINT = "disjoint"    # noise: every thread owns its own word
    READ_ONLY = "read_only"  # noise: loads of host-initialized data


class Bug(enum.Enum):
    """Which link of the phase's happens-before chain is removed."""

    NONE = "none"
    NO_FENCE = "no-fence"            # omit the release/acquire fences
    NARROW_FENCE = "narrow-fence"    # block fence where device is needed
    NARROW_ATOMIC = "narrow-atomic"  # block-scope atomic across blocks
    SKIP_SYNC = "skip-sync"          # bypass the lock / omit the barrier
    WEAK_POLL = "weak-poll"          # poll with plain non-volatile loads


#: phase kinds that stage a (potentially racy) communication episode
COMMUNICATION_KINDS = (
    PhaseKind.HANDOFF, PhaseKind.MUTEX, PhaseKind.ATOMICS, PhaseKind.BARRIER,
)
#: race-free filler
NOISE_KINDS = (PhaseKind.DISJOINT, PhaseKind.READ_ONLY)

#: bugs applicable per (kind, span) — the strategy and the validator
#: share this table.  Narrow-scope bugs need a DEVICE span to narrow.
BUGS_FOR: Dict[Tuple[PhaseKind, Scope], Tuple[Bug, ...]] = {
    (PhaseKind.HANDOFF, Scope.BLOCK): (Bug.NO_FENCE, Bug.WEAK_POLL),
    (PhaseKind.HANDOFF, Scope.DEVICE): (
        Bug.NO_FENCE, Bug.NARROW_FENCE, Bug.NARROW_ATOMIC, Bug.WEAK_POLL,
    ),
    (PhaseKind.MUTEX, Scope.BLOCK): (Bug.NO_FENCE, Bug.SKIP_SYNC),
    (PhaseKind.MUTEX, Scope.DEVICE): (
        Bug.NO_FENCE, Bug.NARROW_FENCE, Bug.NARROW_ATOMIC, Bug.SKIP_SYNC,
    ),
    (PhaseKind.ATOMICS, Scope.BLOCK): (),
    (PhaseKind.ATOMICS, Scope.DEVICE): (Bug.NARROW_ATOMIC,),
    (PhaseKind.BARRIER, Scope.BLOCK): (Bug.SKIP_SYNC,),
    (PhaseKind.BARRIER, Scope.DEVICE): (),
}


class ProgramError(ValueError):
    """An ill-formed FuzzProgram (bug inapplicable, bad actors, ...)."""


@dataclasses.dataclass(frozen=True, order=True)
class Actor:
    """One communicating thread: lane 0 of warp *warp* in block *block*."""

    block: int
    warp: int

    def tid(self, warp_size: int) -> int:
        return self.warp * warp_size


@dataclasses.dataclass(frozen=True)
class Phase:
    """One independent episode on its own data/sync words."""

    kind: PhaseKind
    writer: Optional[Actor] = None
    reader: Optional[Actor] = None
    bug: Bug = Bug.NONE
    #: use device-scope synchronization even when the span is only BLOCK
    wide_sync: bool = False

    @property
    def span(self) -> Scope:
        """The scope synchronization must cover for this actor pair."""
        if self.writer is None or self.reader is None:
            return Scope.BLOCK
        return (Scope.DEVICE if self.writer.block != self.reader.block
                else Scope.BLOCK)

    @property
    def sync_scope(self) -> Scope:
        """Scope of the phase's correct synchronization ops."""
        if self.span is Scope.DEVICE or self.wide_sync:
            return Scope.DEVICE
        return Scope.BLOCK

    def expected_types(self) -> frozenset:
        """RaceTypes this phase's bug can legitimately surface (empty =
        race-free by construction)."""
        if self.kind in NOISE_KINDS or self.bug is Bug.NONE:
            return frozenset()
        missing = (RaceType.MISSING_DEVICE_FENCE if self.span > Scope.BLOCK
                   else RaceType.MISSING_BLOCK_FENCE)
        if self.bug is Bug.NO_FENCE:
            return frozenset({missing})
        if self.bug is Bug.NARROW_FENCE:
            return frozenset({RaceType.SCOPED_FENCE})
        if self.bug is Bug.NARROW_ATOMIC:
            return frozenset({RaceType.SCOPED_ATOMIC})
        if self.bug is Bug.SKIP_SYNC:
            if self.kind is PhaseKind.BARRIER:
                return frozenset({RaceType.MISSING_BLOCK_FENCE})
            return frozenset({RaceType.LOCK})
        if self.bug is Bug.WEAK_POLL:
            return frozenset({missing, RaceType.NOT_STRONG})
        raise ProgramError(f"unlabelled bug {self.bug!r}")

    def validate(self, grid: int, warps_per_block: int) -> None:
        if self.kind in NOISE_KINDS:
            if self.writer is not None or self.reader is not None:
                raise ProgramError(f"{self.kind.value} phase takes no actors")
            if self.bug is not Bug.NONE:
                raise ProgramError(f"{self.kind.value} phase cannot carry a bug")
            return
        if self.writer is None or self.reader is None:
            raise ProgramError(f"{self.kind.value} phase needs two actors")
        for actor in (self.writer, self.reader):
            if not (0 <= actor.block < grid):
                raise ProgramError(f"actor block {actor.block} outside grid")
            if not (0 <= actor.warp < warps_per_block):
                raise ProgramError(f"actor warp {actor.warp} outside block")
        if self.writer == self.reader:
            raise ProgramError("actors must be distinct warps")
        if (self.writer.block == self.reader.block
                and self.writer.warp == self.reader.warp):
            raise ProgramError("actors must be distinct warps")
        if self.kind is PhaseKind.BARRIER and self.span is not Scope.BLOCK:
            raise ProgramError("barrier phases need both actors in one block")
        if (self.bug is not Bug.NONE
                and self.bug not in BUGS_FOR[(self.kind, self.span)]):
            raise ProgramError(
                f"bug {self.bug.value} inapplicable to {self.kind.value} "
                f"at {self.span} span"
            )


@dataclasses.dataclass(frozen=True)
class FuzzProgram:
    """A grid shape plus independent phases; ground truth by construction."""

    grid: int
    warps_per_block: int
    phases: Tuple[Phase, ...]

    def __post_init__(self) -> None:
        if self.grid < 1 or self.warps_per_block < 1:
            raise ProgramError("grid and warps_per_block must be >= 1")
        if not self.phases:
            raise ProgramError("a program needs at least one phase")
        for phase in self.phases:
            phase.validate(self.grid, self.warps_per_block)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    @property
    def racy(self) -> bool:
        return any(phase.bug is not Bug.NONE for phase in self.phases)

    def expected_types(self) -> frozenset:
        out = frozenset()
        for phase in self.phases:
            out |= phase.expected_types()
        return out

    def block_dim(self, warp_size: int) -> int:
        return self.warps_per_block * warp_size

    # ------------------------------------------------------------------
    # Canonical serialization (order-independent content address)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": PROGRAM_SCHEMA,
            "grid": self.grid,
            "warps_per_block": self.warps_per_block,
            "phases": [
                {
                    "kind": phase.kind.value,
                    "writer": (None if phase.writer is None
                               else [phase.writer.block, phase.writer.warp]),
                    "reader": (None if phase.reader is None
                               else [phase.reader.block, phase.reader.warp]),
                    "bug": phase.bug.value,
                    "wide_sync": phase.wide_sync,
                }
                for phase in self.phases
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzProgram":
        schema = payload.get("schema")
        if schema != PROGRAM_SCHEMA:
            raise ProgramError(
                f"unsupported program schema {schema!r} "
                f"(this build reads {PROGRAM_SCHEMA})"
            )
        phases = []
        for raw in payload["phases"]:
            phases.append(Phase(
                kind=PhaseKind(raw["kind"]),
                writer=(None if raw.get("writer") is None
                        else Actor(*raw["writer"])),
                reader=(None if raw.get("reader") is None
                        else Actor(*raw["reader"])),
                bug=Bug(raw.get("bug", "none")),
                wide_sync=bool(raw.get("wide_sync", False)),
            ))
        return cls(
            grid=int(payload["grid"]),
            warps_per_block=int(payload["warps_per_block"]),
            phases=tuple(phases),
        )

    def describe(self) -> str:
        parts = []
        for phase in self.phases:
            label = phase.kind.value
            if phase.bug is not Bug.NONE:
                label += f"!{phase.bug.value}"
            if phase.writer is not None:
                label += (f"[{phase.writer.block}.{phase.writer.warp}->"
                          f"{phase.reader.block}.{phase.reader.warp}]")
            parts.append(label)
        return (f"grid={self.grid} warps={self.warps_per_block} "
                + " ".join(parts))


def canonical_program_json(program: FuzzProgram) -> str:
    """Byte-stable JSON text of the program (the hashable identity)."""
    from repro.experiments.store import canonical_json

    return canonical_json(program.to_dict())


def program_digest(program: FuzzProgram) -> str:
    """SHA-256 content address of a program, stable across machines."""
    return hashlib.sha256(
        canonical_program_json(program).encode("utf-8")
    ).hexdigest()


def fuzz_unit_digest(program: FuzzProgram, detector: str = "scord") -> str:
    """Content address of one (program, detector) dynamic unit.

    Mirrors :func:`repro.experiments.store.unit_digest`: the detector
    label resolves to its full configuration before hashing (two labels
    naming one configuration share entries), the record schema version
    is folded in (a schema bump invalidates by construction), and
    nothing volatile enters the hash — so generated-program results can
    live in the PR 2 content-addressed cache next to suite units.
    """
    from repro.experiments.runner import DETECTORS
    from repro.experiments.store import SCHEMA_VERSION, canonical_json

    identity = {
        "schema": SCHEMA_VERSION,
        "kind": "fuzz-program",
        "program": program.to_dict(),
        "detector": dataclasses.asdict(DETECTORS[detector]),
    }
    return hashlib.sha256(
        canonical_json(identity).encode("utf-8")
    ).hexdigest()


# ----------------------------------------------------------------------
# Compilation to kernel generators
#
# Each phase compiles to its OWN kernel and the program runs as a launch
# sequence.  Launches are device-wide synchronization points in both the
# engine and scolint, so the program's verdict composes exactly from the
# per-phase table above.  (Fusing phases into one kernel is deliberately
# avoided for the ground-truth path: a racy phase preceded by an
# unrelated-but-correct sync phase in the same kernel can launder the
# dynamic detector's per-warp synchronization state and mask the race —
# see docs/fuzzing.md; ``compile_fused`` exists to demonstrate this.)
# ----------------------------------------------------------------------
def _is_actor(ctx, actor: Actor) -> bool:
    return (ctx.bid == actor.block
            and ctx.tid == actor.warp * ctx.warp_size)


def _handoff(ctx, phase: Phase, index: int, cells, syncw):
    bug = phase.bug
    if _is_actor(ctx, phase.writer):
        # Idle before publishing so a polling reader demonstrably polls.
        for _ in range(WRITER_DELAY_OPS):
            yield ctx.compute(5)
        yield ctx.st(cells, index, 40 + index, volatile=True)
        if bug is not Bug.NO_FENCE:
            scope = (Scope.BLOCK if bug is Bug.NARROW_FENCE
                     else phase.sync_scope)
            yield ctx.fence(scope)
        scope = (Scope.BLOCK if bug is Bug.NARROW_ATOMIC
                 else phase.sync_scope)
        yield ctx.atomic_exch(syncw, index, 1, scope=scope)
    elif _is_actor(ctx, phase.reader):
        spins = 0
        saw = False
        while spins < POLL_LIMIT:
            if bug is Bug.WEAK_POLL:
                value = yield ctx.ld(syncw, index)  # plain, not strong
            else:
                value = yield ctx.atomic_add(
                    syncw, index, 0, scope=phase.sync_scope
                )
            if value == 1:
                saw = True
                break
            spins += 1
            yield ctx.compute(BACKOFF_CYCLES)
        if saw:
            yield ctx.ld(cells, index, volatile=True)


def _mutex(ctx, phase: Phase, index: int, cells, syncw):
    bug = phase.bug
    is_writer = _is_actor(ctx, phase.writer)
    is_reader = _is_actor(ctx, phase.reader)
    if not (is_writer or is_reader):
        return
    increment = 1 if is_writer else 2
    if bug is Bug.SKIP_SYNC and is_writer:
        # The writer updates the guarded word without taking the lock.
        value = yield ctx.ld(cells, index, volatile=True)
        yield ctx.st(cells, index, value + increment, volatile=True)
        return
    cas_scope = (Scope.BLOCK if bug is Bug.NARROW_ATOMIC
                 else phase.sync_scope)
    fence_scope = (Scope.BLOCK if bug is Bug.NARROW_FENCE
                   else phase.sync_scope)
    spins = 0
    while True:
        old = yield ctx.atomic_cas(syncw, index, 0, 1, scope=cas_scope)
        if old == 0:
            break
        spins += 1
        if spins >= LOCK_LIMIT:
            return  # give up; skip the critical section entirely
        yield ctx.compute(BACKOFF_CYCLES)
    if bug is not Bug.NO_FENCE:
        yield ctx.fence(fence_scope)
    value = yield ctx.ld(cells, index, volatile=True)
    yield ctx.st(cells, index, value + increment, volatile=True)
    if bug is not Bug.NO_FENCE:
        yield ctx.fence(fence_scope)
    yield ctx.atomic_exch(syncw, index, 0, scope=cas_scope)


def _atomics(ctx, phase: Phase, index: int, cells):
    is_writer = _is_actor(ctx, phase.writer)
    is_reader = _is_actor(ctx, phase.reader)
    if not (is_writer or is_reader):
        return
    scope = phase.sync_scope
    if phase.bug is Bug.NARROW_ATOMIC and is_writer:
        scope = Scope.BLOCK
    # Two RMWs per actor so either interleaving exposes a scope mismatch.
    yield ctx.atomic_add(cells, index, 1, scope=scope)
    yield ctx.compute(BACKOFF_CYCLES)
    yield ctx.atomic_add(cells, index, 1, scope=scope)


def _barrier_phase(ctx, phase: Phase, index: int, cells):
    if _is_actor(ctx, phase.writer):
        yield ctx.st(cells, index, 7 + index, volatile=True)
    if phase.bug is not Bug.SKIP_SYNC:
        yield ctx.barrier()
    if _is_actor(ctx, phase.reader):
        yield ctx.ld(cells, index, volatile=True)


def _disjoint(ctx, index: int, noise):
    yield ctx.st(noise, ctx.gtid, ctx.gtid + index, volatile=True)
    yield ctx.ld(noise, ctx.gtid, volatile=True)


def _read_only(ctx, index: int, ro, total: int):
    yield ctx.ld(ro, (ctx.gtid * (index + 3)) % total)
    yield ctx.ld(ro, (ctx.gtid + index) % total)


def _phase_body(ctx, phase: Phase, index: int, cells, syncw, noise, ro):
    kind = phase.kind
    if kind is PhaseKind.HANDOFF:
        yield from _handoff(ctx, phase, index, cells, syncw)
    elif kind is PhaseKind.MUTEX:
        yield from _mutex(ctx, phase, index, cells, syncw)
    elif kind is PhaseKind.ATOMICS:
        yield from _atomics(ctx, phase, index, cells)
    elif kind is PhaseKind.BARRIER:
        yield from _barrier_phase(ctx, phase, index, cells)
    elif kind is PhaseKind.DISJOINT:
        yield from _disjoint(ctx, index, noise)
    else:
        yield from _read_only(ctx, index, ro, ctx.nthreads)


def compile_phase(program: FuzzProgram, index: int):
    """Build the kernel generator for one phase of *program*."""
    phase = program.phases[index]

    def fuzz_phase(ctx, cells, syncw, noise, ro):
        yield from _phase_body(ctx, phase, index, cells, syncw, noise, ro)

    fuzz_phase.__name__ = f"fuzz_p{index}_{phase.kind.value}"
    if phase.bug is not Bug.NONE:
        fuzz_phase.__name__ += f"_{phase.bug.value.replace('-', '_')}"
    return fuzz_phase


def compile_fused(program: FuzzProgram):
    """All phases fused into ONE kernel (not the ground-truth path).

    Fused execution keeps the same conflicting pairs but lets earlier
    phases' synchronization launder the dynamic detector's per-warp
    state, so a racy program may go dynamically undetected.  Useful for
    demonstrating that order-sensitivity; the oracles never use it.
    """
    phases = program.phases

    def fuzz_fused(ctx, cells, syncw, noise, ro):
        for index, phase in enumerate(phases):
            yield from _phase_body(ctx, phase, index, cells, syncw, noise, ro)

    return fuzz_fused


def run_program(gpu, program: FuzzProgram):
    """Allocate, then launch *program*'s phases in order on *gpu*.

    Works against both the engine :class:`~repro.engine.gpu.GPU` and
    scolint's :class:`~repro.scolint.driver.LintGPU` (identical host
    API).  Returns the launch ``args`` tuple for host-side reads.
    """
    warp_size = gpu.config.threads_per_warp
    args = setup_memory(gpu, program, warp_size)
    block_dim = program.block_dim(warp_size)
    for index in range(len(program.phases)):
        gpu.launch(
            compile_phase(program, index),
            grid=program.grid,
            block_dim=block_dim,
            args=args,
        )
    return args


def setup_memory(gpu, program: FuzzProgram, warp_size: int):
    """Allocate and initialize the program's arrays on *gpu*.

    Works against both the real :class:`~repro.engine.gpu.GPU` and the
    :class:`~repro.scolint.driver.LintGPU` (identical host API).
    Returns the launch ``args`` tuple.
    """
    n_phases = len(program.phases)
    n_threads = program.grid * program.block_dim(warp_size)
    cells = gpu.alloc(n_phases, "fuzz_cells")
    syncw = gpu.alloc(n_phases, "fuzz_sync")
    noise = gpu.alloc(n_threads, "fuzz_noise")
    ro = gpu.alloc(n_threads, "fuzz_ro")
    gpu.write_array(ro, list(range(n_threads)))
    return (cells, syncw, noise, ro)
