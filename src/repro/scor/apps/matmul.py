"""MM — Matrix multiplication with scoped lock/unlock (Table II, Fig. 5).

``C = A @ B`` with the inner (k) dimension partitioned across threadblocks:
each block computes partial dot products over its k-slice and accumulates
them into the shared ``C`` under a per-row lock, built from the CUDA
acquire/release idiom (atomicCAS + fence / fence + atomicExch).  Rows are
the cross-block contended state, so every lock constituent must be device
scope.

Race flags (4, per Table VI):

* ``block_cas``   — acquire with ``atomicCAS_block`` → scoped-atomic race
  on the lock variable (and broken mutual exclusion);
* ``block_exch``  — release with ``atomicExch_block`` → scoped-atomic race
  observed at the next device-scope acquire;
* ``block_fences`` — both lock fences are block scope → the critical
  section's accumulations race across blocks (scoped fence);
* ``no_fences``   — the lock idiom carries no fences at all → missing
  device fence on the accumulator accesses.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import SplitMix64
from repro.engine.gpu import GPU
from repro.isa.scopes import Scope
from repro.scord.races import RaceType
from repro.scor.apps.base import DEFAULT_SEED, RaceFlag, ScorApp

_SPIN_LIMIT = 300


class MatMulApp(ScorApp):
    name = "MM"
    paper_input = "800x500 and 500x30 matrices"
    scaled_input = "16x32 @ 32x12, k split over 4 blocks, per-row locks"

    RACE_FLAGS = (
        RaceFlag(
            "block_cas",
            "lock acquired with atomicCAS_block across blocks",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
        RaceFlag(
            "block_exch",
            "lock released with atomicExch_block across blocks",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
        RaceFlag(
            "block_fences",
            "lock fences are __threadfence_block only",
            frozenset({RaceType.SCOPED_FENCE}),
        ),
        RaceFlag(
            "no_fences",
            "lock idiom without any fences",
            frozenset({RaceType.MISSING_DEVICE_FENCE}),
        ),
    )

    def __init__(self, races=(), seed: int = DEFAULT_SEED, n: int = 16,
                 k: int = 32, m: int = 12, grid: int = 4, block_dim: int = 32):
        super().__init__(races, seed)
        if k % grid:
            raise ValueError("k must divide evenly across blocks")
        self.n, self.k, self.m = n, k, m
        self.grid = grid
        self.block_dim = block_dim
        rng = SplitMix64(seed)
        self.a = [[rng.next_below(10) for _ in range(k)] for _ in range(n)]
        self.b = [[rng.next_below(10) for _ in range(m)] for _ in range(k)]

    def host_reference(self) -> List[List[int]]:
        return [
            [
                sum(self.a[i][kk] * self.b[kk][j] for kk in range(self.k))
                for j in range(self.m)
            ]
            for i in range(self.n)
        ]

    def run(self, gpu: GPU) -> None:
        n, k, m, grid = self.n, self.k, self.m, self.grid
        self.da = gpu.alloc(n * k, "mm_a")
        self.db = gpu.alloc(k * m, "mm_b")
        self.dc = gpu.alloc(n * m, "mm_c")
        self.locks = gpu.alloc(n, "mm_row_locks")
        gpu.write_array(self.da, [v for row in self.a for v in row])
        gpu.write_array(self.db, [v for row in self.b for v in row])

        cas_scope = Scope.BLOCK if self.enabled("block_cas") else Scope.DEVICE
        exch_scope = Scope.BLOCK if self.enabled("block_exch") else Scope.DEVICE
        if self.enabled("no_fences"):
            fence_scope = None
        elif self.enabled("block_fences"):
            fence_scope = Scope.BLOCK
        else:
            fence_scope = Scope.DEVICE
        k_slice = k // grid

        def matmul_kernel(ctx, da, db, dc, locks):
            # Rows are strided over warps; a warp's lanes split the columns
            # of its row and serialize through the row's lock.  Lock use is
            # warp-uniform (every lane of a warp locks the *same* variable
            # at a time), as GPU lock code must be: the per-warp lock table
            # has only four entries (Fig. 6).
            k_lo = ctx.bid * k_slice
            nwarps = ctx.ntid // ctx.warp_size
            for i in range(ctx.warp_id, n, nwarps):
                mine = []
                for j in range(ctx.lane, m, ctx.warp_size):
                    partial = 0
                    for kk in range(k_lo, k_lo + k_slice):
                        av = yield ctx.ld(da, i * k + kk)
                        bv = yield ctx.ld(db, kk * m + j)
                        partial += av * bv
                    mine.append((j, partial))
                if not mine:
                    # Keep barrier participation uniform across the block.
                    yield ctx.barrier()
                    continue
                yield ctx.compute(k_slice)
                # --- acquire the row lock ------------------------------
                spins = 0
                acquired = True
                while True:
                    old = yield ctx.atomic_cas(locks, i, 0, 1, scope=cas_scope)
                    if old == 0:
                        break
                    spins += 1
                    if spins > _SPIN_LIMIT:
                        acquired = False
                        break
                    yield ctx.compute(30)
                if acquired:
                    if fence_scope is not None:
                        yield ctx.fence(fence_scope)
                    # --- critical section: accumulate my columns -------
                    for j, partial in mine:
                        current = yield ctx.ld(dc, i * m + j, volatile=True)
                        yield ctx.st(dc, i * m + j, current + partial, volatile=True)
                    # --- release ---------------------------------------
                    if fence_scope is not None:
                        yield ctx.fence(fence_scope)
                    yield ctx.atomic_exch(locks, i, 0, scope=exch_scope)
                # One row (and therefore one lock) in flight per warp at a
                # time: a warp's lanes otherwise interleave acquire/release
                # cycles of different row locks, churning the 4-entry lock
                # table until a held lock's entry is evicted.
                yield ctx.barrier()

        gpu.launch(
            matmul_kernel,
            grid=grid,
            block_dim=self.block_dim,
            args=(self.da, self.db, self.dc, self.locks),
        )

    def verify(self, gpu: GPU) -> bool:
        expected = [v for row in self.host_reference() for v in row]
        return gpu.read_array(self.dc) == expected
