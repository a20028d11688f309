"""Litmus-test execution framework.

A litmus test is two single-thread programs, T0 and T1, placed in
different blocks (different SMs) or the same block, plus a set of
*observed registers* collected at the end.  The simulator is
deterministic, so interleavings are explored by sweeping an injected
compute delay at the start of each thread over a grid; every distinct
observed outcome is recorded.

Thread programs are written against the same ThreadCtx generator API as
kernels, as functions ``body(ctx, mem, out)`` where ``mem`` is the shared
test memory and ``out`` the per-thread observation array.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.arch.config import GPUConfig
from repro.arch.detector_config import DetectorConfig
from repro.engine.gpu import GPU

Outcome = Tuple[int, ...]

# Delay grids (cycles) injected before each thread's first instruction.
DEFAULT_DELAYS = (0, 40, 120, 400, 1200)


@dataclasses.dataclass(frozen=True)
class LitmusTest:
    """One scoped litmus pattern."""

    name: str
    description: str
    t0: Callable  # generator(ctx, mem, out)
    t1: Callable
    #: optional third/fourth threads (blocks 2/3) for transitivity and
    #: IRIW-style patterns
    t2: Optional[Callable] = None
    t3: Optional[Callable] = None
    #: number of observation registers (spread across the threads)
    observed: int = 2
    #: outcomes the scoped memory model permits
    allowed: FrozenSet[Outcome] = frozenset()
    #: outcomes that must never appear (violations)
    forbidden: FrozenSet[Outcome] = frozenset()
    #: outcomes the delay grid is expected to actually produce — e.g. the
    #: *weak* behaviour a scoped race makes observable
    must_observe: FrozenSet[Outcome] = frozenset()
    same_block: bool = False
    #: shared memory words, host-initialized to zero
    shared_words: int = 8
    #: delay grid override (three-thread tests use a coarser grid to keep
    #: the cartesian product small)
    delays: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        overlap = self.allowed & self.forbidden
        if overlap:
            raise ValueError(f"{self.name}: outcomes both allowed and forbidden: {overlap}")

    @property
    def bodies(self) -> List[Callable]:
        """The thread programs, T0 first."""
        return [body for body in (self.t0, self.t1, self.t2, self.t3)
                if body is not None]


@dataclasses.dataclass
class LitmusResult:
    """Outcomes observed over the delay grid."""

    test: LitmusTest
    observed: Dict[Outcome, int]  # outcome -> how many grid points hit it

    @property
    def violations(self) -> List[Outcome]:
        return sorted(set(self.observed) & self.test.forbidden)

    @property
    def unexpected(self) -> List[Outcome]:
        """Outcomes neither allowed nor forbidden (undeclared)."""
        extra = set(self.observed) - self.test.allowed - self.test.forbidden
        return sorted(extra)

    @property
    def missing(self) -> List[Outcome]:
        """Declared must-observe outcomes the grid failed to produce."""
        return sorted(self.test.must_observe - set(self.observed))

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unexpected and not self.missing

    def summary(self) -> str:
        lines = [f"{self.test.name}: {len(self.observed)} distinct outcome(s)"]
        for outcome, hits in sorted(self.observed.items()):
            status = "ALLOWED"
            if outcome in self.test.forbidden:
                status = "FORBIDDEN!"
            elif outcome not in self.test.allowed:
                status = "UNDECLARED?"
            lines.append(f"  {outcome}: {hits} grid point(s) [{status}]")
        return "\n".join(lines)


def litmus_shape(test: LitmusTest, warp_size: int) -> Tuple[int, int]:
    """(grid, block_dim): one warp per thread, one block per thread
    unless the threads share a block."""
    if test.same_block:
        return 1, 2 * warp_size
    return len(test.bodies), warp_size


def launch_litmus(host, test: LitmusTest, delays: Sequence[int] = ()):
    """Set *test* up on *host* and launch it once; returns the ``out``
    observation array.

    *host* is a :class:`~repro.engine.gpu.GPU` or a
    :class:`~repro.scolint.driver.LintGPU`.  ``delays[i]`` cycles of
    compute run before thread *i*'s first instruction (none when
    *delays* is empty).
    """
    bodies = test.bodies
    num_threads = len(bodies)
    same_block = test.same_block
    if same_block and num_threads > 2:
        raise ValueError("same_block litmus tests support two threads")
    mem = host.alloc(test.shared_words, "mem")
    out = host.alloc(max(1, test.observed), "out")
    for i in range(test.observed):
        host.write(out, i, -1)
    warp = host.config.threads_per_warp

    def kernel(ctx, mem, out):
        if same_block:
            role = 0 if ctx.tid == 0 else (1 if ctx.tid == warp else None)
        else:
            role = (
                ctx.bid if ctx.tid == 0 and ctx.bid < num_threads else None
            )
        if role is not None:
            if delays and delays[role]:
                yield ctx.compute(delays[role])
            yield from bodies[role](ctx, mem, out)

    kernel.__name__ = test.name
    grid, block_dim = litmus_shape(test, warp)
    host.launch(kernel, grid=grid, block_dim=block_dim, args=(mem, out))
    return out


def run_litmus(
    test: LitmusTest,
    delays: Optional[Tuple[int, ...]] = None,
    gpu_config: Optional[GPUConfig] = None,
) -> LitmusResult:
    """Execute *test* over the delay grid; returns the observed outcomes."""
    if delays is None:
        delays = test.delays if test.delays is not None else DEFAULT_DELAYS
    observed: Dict[Outcome, int] = {}
    for point in itertools.product(*([delays] * len(test.bodies))):
        gpu = GPU(config=gpu_config, detector_config=DetectorConfig.none())
        out = launch_litmus(gpu, test, point)
        outcome = tuple(gpu.read(out, i) for i in range(test.observed))
        observed[outcome] = observed.get(outcome, 0) + 1
    return LitmusResult(test, observed)
