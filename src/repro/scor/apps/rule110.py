"""R110 — Rule 110 cellular automaton (Table II).

Each thread owns a segment of cells and updates them every iteration from
the previous generation (double-buffered).  Iterations are separated by a
device-wide software barrier: after writing its segment, each warp executes
a fence whose scope depends on whether it owns a **block-boundary** cell —
cells read by a neighboring block need a device-scope fence, interior cells
only a block-scope one (exactly the scoped-fence pattern Table II
describes) — then each block's leader atomically arrives at a global
counter and spins until all blocks arrive.

Race flags:

* ``block_fence_border`` — boundary-owning warps also use
  ``__threadfence_block`` → cross-block readers race (scoped fence).
* ``block_arrive`` — the global-barrier arrival counter uses a block-scope
  atomic → blocks cannot see each other arrive (scoped atomic; the spin
  bound then expires and iterations overlap).
"""

from __future__ import annotations

from typing import List

from repro.common.rng import SplitMix64
from repro.engine.gpu import GPU
from repro.isa.scopes import Scope
from repro.scord.races import RaceType
from repro.scor.apps.base import DEFAULT_SEED, RaceFlag, ScorApp

_SPIN_LIMIT = 500


def rule110_host(cells: List[int], iterations: int) -> List[int]:
    """Host reference: Rule 110 with wrap-around boundaries."""
    cur = list(cells)
    n = len(cur)
    for _ in range(iterations):
        nxt = [0] * n
        for i in range(n):
            pattern = (cur[(i - 1) % n] << 2) | (cur[i] << 1) | cur[(i + 1) % n]
            nxt[i] = (110 >> pattern) & 1
        cur = nxt
    return cur


class Rule110App(ScorApp):
    name = "R110"
    paper_input = "2.5M elements"
    scaled_input = "2048 cells, 8 blocks x 32 threads, 4 iterations"

    RACE_FLAGS = (
        RaceFlag(
            "block_fence_border",
            "block-scope fence even for block-boundary cells",
            frozenset({RaceType.SCOPED_FENCE}),
        ),
        RaceFlag(
            "block_arrive",
            "global-barrier arrival counter uses atomicAdd_block",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
    )

    def __init__(self, races=(), seed: int = DEFAULT_SEED, n: int = 2048,
                 grid: int = 8, block_dim: int = 32, iterations: int = 4):
        super().__init__(races, seed)
        self.n = n
        self.grid = grid
        self.block_dim = block_dim
        self.iterations = iterations
        rng = SplitMix64(seed)
        self.cells = [rng.next_below(2) for _ in range(n)]

    def run(self, gpu: GPU) -> None:
        n, grid, block_dim = self.n, self.grid, self.block_dim
        threads = grid * block_dim
        per_thread = n // threads
        self.buf0 = gpu.alloc(n, "r110_buf0")
        self.buf1 = gpu.alloc(n, "r110_buf1")
        self.arrive = gpu.alloc(self.iterations, "r110_arrive")
        gpu.write_array(self.buf0, self.cells)

        border_fence = (
            Scope.BLOCK if self.enabled("block_fence_border") else Scope.DEVICE
        )
        arrive_scope = Scope.BLOCK if self.enabled("block_arrive") else Scope.DEVICE
        iterations = self.iterations

        def rule110_kernel(ctx, buf0, buf1, arrive):
            lo = ctx.gtid * per_thread
            hi = lo + per_thread
            # A warp owns a block-boundary cell iff its segment touches the
            # edge of the block's cell range.
            block_lo = ctx.bid * ctx.ntid * per_thread
            block_hi = block_lo + ctx.ntid * per_thread
            warp_lo = (ctx.gtid - ctx.lane) * per_thread
            warp_hi = warp_lo + ctx.warp_size * per_thread
            owns_border = warp_lo == block_lo or warp_hi == block_hi
            fence_scope = border_fence if owns_border else Scope.BLOCK

            for it in range(iterations):
                src, dst = (buf0, buf1) if it % 2 == 0 else (buf1, buf0)
                for i in range(lo, hi):
                    left = yield ctx.ld(src, (i - 1) % n, volatile=True)
                    mid = yield ctx.ld(src, i, volatile=True)
                    right = yield ctx.ld(src, (i + 1) % n, volatile=True)
                    pattern = (left << 2) | (mid << 1) | right
                    yield ctx.st(dst, i, (110 >> pattern) & 1, volatile=True)
                yield ctx.fence(fence_scope)
                # Device-wide software barrier: block leaders arrive and
                # spin; the other warps wait at __syncthreads.
                yield ctx.barrier()
                if ctx.tid == 0:
                    yield ctx.atomic_add(arrive, it, 1, scope=arrive_scope)
                    spins = 0
                    while True:
                        done = yield ctx.atomic_add(arrive, it, 0, scope=arrive_scope)
                        if done >= ctx.nbid:
                            break
                        spins += 1
                        if spins > _SPIN_LIMIT:
                            break  # racey configs must still terminate
                        yield ctx.compute(30)
                yield ctx.barrier()

        gpu.launch(
            rule110_kernel,
            grid=grid,
            block_dim=block_dim,
            args=(self.buf0, self.buf1, self.arrive),
        )
        self.result_array = self.buf0 if iterations % 2 == 0 else self.buf1

    def verify(self, gpu: GPU) -> bool:
        expected = rule110_host(self.cells, self.iterations)
        return gpu.read_array(self.result_array) == expected
