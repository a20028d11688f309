"""Microbenchmark scaffolding.

Every microbenchmark runs two logical threads, T0 (the producer / first
accessor) and T1, in one of three placements:

* ``CROSS_BLOCK`` — thread 0 of block 0 and thread 0 of block 1 (different
  SMs, the interesting case for scoped operations);
* ``SAME_BLOCK`` — two threads of one block in *different warps*;
* ``SAME_WARP`` — two lanes of one warp (program-order-adjacent).

Kernels receive a :class:`MicroMem` bundle (data word, flag, two locks, an
auxiliary array) and express T0/T1 with the shared lock helpers below.
Ordering between the two threads is made deterministic with ``compute``
delays — the detector's verdict does not depend on the gap, only on the
synchronization actually present.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, FrozenSet, Optional, Tuple

from repro.arch.config import GPUConfig
from repro.arch.detector_config import DetectorConfig
from repro.engine.gpu import GPU
from repro.isa.scopes import Scope
from repro.scord.races import RaceType

SPIN_LIMIT = 4000
T1_DELAY = 3000  # cycles of compute that order T1's conflict after T0's


class Placement(enum.Enum):
    CROSS_BLOCK = "cross-block"
    SAME_BLOCK = "same-block"
    SAME_WARP = "same-warp"


@dataclasses.dataclass
class MicroMem:
    """Device arrays shared by the two microbenchmark threads."""

    data: object
    flag: object
    lock: object
    lock2: object
    aux: object


@dataclasses.dataclass(frozen=True)
class Micro:
    """One microbenchmark definition."""

    name: str
    category: str  # "fence" | "atomics" | "lock"
    racey: bool
    expected_types: FrozenSet[RaceType]
    placement: Placement
    description: str
    kernel: Callable  # generator(ctx, role, mem)

    def __post_init__(self):
        if self.racey and not self.expected_types:
            raise ValueError(f"racey micro {self.name} needs expected race types")
        if not self.racey and self.expected_types:
            raise ValueError(f"non-racey micro {self.name} must expect no races")


def role_of(ctx, placement: Placement) -> Optional[int]:
    """Map a thread to its microbenchmark role (0, 1, or bystander)."""
    if placement is Placement.CROSS_BLOCK:
        if ctx.tid == 0:
            return ctx.bid if ctx.bid in (0, 1) else None
        return None
    if placement is Placement.SAME_BLOCK:
        if ctx.bid != 0:
            return None
        if ctx.tid == 0:
            return 0
        if ctx.tid == ctx.warp_size:  # first lane of the second warp
            return 1
        return None
    if ctx.bid == 0 and ctx.tid in (0, 1):
        return ctx.tid
    return None


def launch_shape(placement: Placement, warp_size: int) -> Tuple[int, int]:
    """(grid, block_dim) for a placement."""
    if placement is Placement.CROSS_BLOCK:
        return 2, warp_size
    if placement is Placement.SAME_BLOCK:
        return 1, 2 * warp_size
    return 1, warp_size


# ----------------------------------------------------------------------
# Shared lock idiom helpers (the CUDA acquire/release patterns ScoRD infers)
# ----------------------------------------------------------------------
def acquire(ctx, lock, index, cas_scope=Scope.DEVICE, fence_scope=Scope.DEVICE):
    """``while(atomicCAS(&lock,0,1));  __threadfence(scope)``.

    ``fence_scope=None`` omits the fence (the acquire never "completes" in
    ScoRD's lock table).  Returns True on success, False if the spin bound
    was exhausted (so racey configurations still terminate).
    """
    spins = 0
    while True:
        old = yield ctx.atomic_cas(lock, index, 0, 1, scope=cas_scope)
        if old == 0:
            break
        spins += 1
        if spins > SPIN_LIMIT:
            return False
        yield ctx.compute(25)
    if fence_scope is not None:
        yield ctx.fence(fence_scope)
    return True


def release(ctx, lock, index, exch_scope=Scope.DEVICE, fence_scope=Scope.DEVICE):
    """``__threadfence(scope); atomicExch(&lock, 0)``."""
    if fence_scope is not None:
        yield ctx.fence(fence_scope)
    yield ctx.atomic_exch(lock, index, 0, scope=exch_scope)


def set_flag(ctx, flag, scope=Scope.DEVICE):
    """Publish a handoff flag atomically."""
    yield ctx.atomic_exch(flag, 0, 1, scope=scope)


def wait_flag(ctx, flag, scope=Scope.DEVICE):
    """Spin on a handoff flag with atomic reads; bounded."""
    spins = 0
    while True:
        value = yield ctx.atomic_add(flag, 0, 0, scope=scope)
        if value == 1:
            return True
        spins += 1
        if spins > SPIN_LIMIT:
            return False
        yield ctx.compute(25)


# ----------------------------------------------------------------------
# Launcher and runner
# ----------------------------------------------------------------------
def launch_micro(host, micro: Micro) -> None:
    """Allocate *micro*'s :class:`MicroMem` on *host* and launch it.

    *host* is a :class:`~repro.engine.gpu.GPU` or a
    :class:`~repro.scolint.driver.LintGPU`; both share the host API.
    """
    mem = MicroMem(
        data=host.alloc(8, "data"),
        flag=host.alloc(1, "flag"),
        lock=host.alloc(1, "lock"),
        lock2=host.alloc(1, "lock2"),
        aux=host.alloc(8, "aux"),
    )
    placement = micro.placement

    def wrapper(ctx, mem):
        role = role_of(ctx, placement)
        yield from micro.kernel(ctx, role, mem)

    wrapper.__name__ = micro.name
    grid, block_dim = launch_shape(placement, host.config.threads_per_warp)
    host.launch(wrapper, grid=grid, block_dim=block_dim, args=(mem,))


def run_micro(
    micro: Micro,
    detector_config: Optional[DetectorConfig] = None,
    gpu_config: Optional[GPUConfig] = None,
    telemetry=None,
    sample_interval: int = 0,
    schedule_control=None,
) -> GPU:
    """Run one microbenchmark on a fresh GPU; returns it for inspection."""
    gpu = GPU(
        config=gpu_config,
        detector_config=(
            detector_config if detector_config is not None
            else DetectorConfig.scord()
        ),
        telemetry=telemetry,
        sample_interval=sample_interval,
        schedule_control=schedule_control,
    )
    launch_micro(gpu, micro)
    return gpu
