"""RED — Reduction (paper Fig. 4, Table II).

Sums a large integer array.  Each block tree-reduces its chunk in
scratchpad (barriers between levels), then its leader publishes the partial
sum to ``g_odata`` with a volatile store followed by a **device-scope
fence**, and atomically bumps a completion counter; the block that arrives
last reduces ``g_odata`` to the final result (the CUDA
``threadfenceReduction`` sample's structure).

Race flags:

* ``block_fence`` — the fence before publishing the partial sum is block
  scope; the last (consuming) block is elsewhere → scoped-fence race.
* ``block_count`` — the completion counter is bumped with a block-scope
  atomic; blocks no longer observe each other's arrivals → scoped-atomic
  race (and, behaviourally, nobody believes it is last, so the final
  reduction never runs).
"""

from __future__ import annotations

from repro.common.rng import SplitMix64
from repro.engine.gpu import GPU
from repro.isa.scopes import Scope
from repro.scord.races import RaceType
from repro.scor.apps.base import DEFAULT_SEED, RaceFlag, ScorApp


class ReductionApp(ScorApp):
    name = "RED"
    paper_input = "25.6M elements"
    scaled_input = "9216 elements, 24 blocks x 64 threads"

    RACE_FLAGS = (
        RaceFlag(
            "block_fence",
            "__threadfence_block before publishing the partial sum",
            frozenset({RaceType.SCOPED_FENCE}),
        ),
        RaceFlag(
            "block_count",
            "completion counter bumped with atomicAdd_block",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
    )

    def __init__(self, races=(), seed: int = DEFAULT_SEED, n: int = 9216,
                 grid: int = 24, block_dim: int = 64):
        super().__init__(races, seed)
        self.n = n
        self.grid = grid
        self.block_dim = block_dim
        rng = SplitMix64(seed)
        self.values = [rng.next_below(100) for _ in range(n)]

    def run(self, gpu: GPU) -> None:
        self.input = gpu.alloc(self.n, "red_input")
        self.g_odata = gpu.alloc(self.grid, "red_partials")
        self.count = gpu.alloc(1, "red_count")
        self.g_final = gpu.alloc(1, "red_final")
        gpu.write_array(self.input, self.values)

        fence_scope = Scope.BLOCK if self.enabled("block_fence") else Scope.DEVICE
        count_scope = Scope.BLOCK if self.enabled("block_count") else Scope.DEVICE
        chunk = self.n // self.grid

        def reduction_kernel(ctx, data, g_odata, count, g_final):
            # Per-thread partial over the block's chunk (read-only loads,
            # L1-cacheable).
            base = ctx.bid * chunk
            total = 0
            for i in range(ctx.tid, chunk, ctx.ntid):
                total += yield ctx.ld(data, base + i)
            yield ctx.shst(ctx.tid, total)
            yield ctx.barrier()
            # Scratchpad tree reduction.
            stride = ctx.ntid // 2
            while stride > 0:
                if ctx.tid < stride:
                    mine = yield ctx.shld(ctx.tid)
                    other = yield ctx.shld(ctx.tid + stride)
                    yield ctx.shst(ctx.tid, mine + other)
                yield ctx.barrier()
                stride //= 2
            if ctx.tid == 0:
                block_sum = yield ctx.shld(0)
                yield ctx.st(g_odata, ctx.bid, block_sum, volatile=True)
                yield ctx.fence(fence_scope)
                arrived = yield ctx.atomic_add(count, 0, 1, scope=count_scope)
                if arrived == ctx.nbid - 1:
                    # This block is last: reduce the partial sums.
                    final = 0
                    for b in range(ctx.nbid):
                        final += yield ctx.ld(g_odata, b, volatile=True)
                    yield ctx.st(g_final, 0, final, volatile=True)

        gpu.launch(
            reduction_kernel,
            grid=self.grid,
            block_dim=self.block_dim,
            args=(self.input, self.g_odata, self.count, self.g_final),
        )

    def verify(self, gpu: GPU) -> bool:
        return gpu.read(self.g_final, 0) == sum(self.values)
