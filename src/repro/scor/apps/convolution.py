"""1DC — One-dimensional convolution with scoped atomics (Table II).

A scatter-style 9-tap convolution: each thread reads its input elements and
atomically accumulates ``input[i] * w[t]`` into the output neighbourhood
``out[i + t - 4]``.  Work is distributed in 8-element segments interleaved
round-robin across blocks, so every output element receives contributions
from (at least) two adjacent blocks — per the paper's rule ("updates memory
using scoped atomics based on whether other blocks are updating the same
location"), such shared elements need **device-scope** atomics.  The
resulting dense stream of device atomics makes 1DC the suite's most
network-intensive application — the reason it suffers the paper's worst
detection overhead (~88%): detection payload on every atomic packet
perturbs an already congested interconnect.

Race flag (1, per Table VI):

* ``block_scope_out`` — the output atomics use block scope; every block
  accumulates into its own SM-local view and the partial sums are lost
  (scoped-atomic race, and the output is wrong).
"""

from __future__ import annotations

from typing import List

from repro.common.rng import SplitMix64
from repro.engine.gpu import GPU
from repro.isa.scopes import Scope
from repro.scord.races import RaceType
from repro.scor.apps.base import DEFAULT_SEED, RaceFlag, ScorApp

_TAPS = 9
_HALO = _TAPS // 2
_SEGMENT = 8  # elements per ownership segment


def convolve_host(values: List[int], weights: List[int]) -> List[int]:
    """Host reference: same-size scatter convolution, truncated borders."""
    n = len(values)
    out = [0] * n
    for i in range(n):
        for t in range(_TAPS):
            j = i + t - _HALO
            if 0 <= j < n:
                out[j] += values[i] * weights[t]
    return out


class ConvolutionApp(ScorApp):
    name = "1DC"
    paper_input = "9 element filter, 1M elements"
    scaled_input = "3072 elements, 8 blocks x 32 threads, 9-tap filter"

    RACE_FLAGS = (
        RaceFlag(
            "block_scope_out",
            "block-scope atomics on block-shared output elements",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
    )

    def __init__(self, races=(), seed: int = DEFAULT_SEED, n: int = 3072,
                 grid: int = 8, block_dim: int = 32):
        super().__init__(races, seed)
        if n % _SEGMENT:
            raise ValueError("n must be a multiple of the segment size")
        self.n = n
        self.grid = grid
        self.block_dim = block_dim
        rng = SplitMix64(seed)
        self.values = [rng.next_below(16) for _ in range(n)]
        self.weights = [rng.next_below(5) - 2 for _ in range(_TAPS)]

    def run(self, gpu: GPU) -> None:
        n, grid = self.n, self.grid
        self.input = gpu.alloc(n, "conv_input")
        self.weights_arr = gpu.alloc(_TAPS, "conv_weights")
        self.output = gpu.alloc(n, "conv_output")
        gpu.write_array(self.input, self.values)
        gpu.write_array(self.weights_arr, self.weights)

        # Every output element's 9-tap update neighbourhood spans a segment
        # boundary, and adjacent segments belong to different blocks — so
        # all output elements are block-shared and need device scope.
        scope = Scope.BLOCK if self.enabled("block_scope_out") else Scope.DEVICE
        seg_count = n // _SEGMENT
        weights = list(self.weights)  # filter constants compile into the kernel

        def conv1d_kernel(ctx, data, out):
            # Segment s belongs to block s % nbid; within a block, warps of
            # 8 lanes each take one segment per pass (lane = element slot).
            slots_per_block = ctx.ntid // _SEGMENT
            slot = ctx.tid // _SEGMENT
            offset = ctx.tid % _SEGMENT
            k = 0
            while True:
                s = ctx.bid + ctx.nbid * (slot + slots_per_block * k)
                if s >= seg_count:
                    break
                i = s * _SEGMENT + offset
                value = yield ctx.ld(data, i)
                yield ctx.compute(_TAPS)
                for t in range(_TAPS):
                    j = i + t - _HALO
                    if 0 <= j < n:
                        yield ctx.atomic_add(out, j, value * weights[t], scope=scope)
                k += 1

        gpu.launch(
            conv1d_kernel,
            grid=grid,
            block_dim=self.block_dim,
            args=(self.input, self.output),
        )

    def verify(self, gpu: GPU) -> bool:
        return gpu.read_array(self.output) == convolve_host(self.values, self.weights)
