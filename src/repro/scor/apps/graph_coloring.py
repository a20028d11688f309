"""GCOL — Graph coloring with work stealing (Table II, Fig. 3).

Iterative parallel greedy coloring: vertices are partitioned contiguously
across blocks (R-MAT degree skew makes the partitions unbalanced); each
round every vertex is visited once, and a vertex recolors itself with the
smallest color unused by its neighbours when it conflicts with a
lower-numbered neighbour.  Rounds are separate kernel launches (a device-
wide sync); within a round, batches of vertices are handed out through the
Fig. 3 work-stealing machinery (`repro.scor.apps.worklib`), whose
``nextHead`` array is the cross-block contended state.

Race flags (6, per Table VI):

* ``block_next_head`` — a block advances its *own* ``nextHead`` with a
  block-scope atomic (the exact Fig. 3b bug): a concurrent stealer cannot
  see the advance and the same batch is handed out twice;
* ``block_steal``    — the stealing advance is block scope;
* ``block_probe``    — the availability probe on a victim's ``nextHead``
  is a block-scope atomic;
* ``plain_probe``    — the probe is a plain volatile load (racing with the
  victim's device atomics);
* ``no_barrier``     — the leader→workers batch handoff loses its
  ``__syncthreads`` (a missing-synchronization race);
* ``block_count``    — the colored-vertex counter uses atomicAdd_block.
"""

from __future__ import annotations

from typing import List

from repro.engine.gpu import GPU
from repro.isa.scopes import Scope
from repro.scord.races import RaceType
from repro.scor.apps.base import DEFAULT_SEED, RaceFlag, ScorApp
from repro.scor.apps.worklib import (
    WorkScopes,
    alloc_work_state,
    distribute_work,
    finish_batch,
    reset_work_state,
)
from repro.scor.graphgen import is_valid_coloring, rmat_graph


class GraphColoringApp(ScorApp):
    name = "GCOL"
    paper_input = "30K vertices, 50K edges (GTgraph R-MAT)"
    scaled_input = "800 vertices, 1600 edges (R-MAT), 6 blocks x 32 threads"

    RACE_FLAGS = (
        RaceFlag(
            "block_next_head",
            "own-partition nextHead advanced with atomicAdd_block (Fig. 3b)",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
        RaceFlag(
            "block_steal",
            "stealing advance on a victim's nextHead is block scope",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
        RaceFlag(
            "block_probe",
            "availability probe on a victim's nextHead is block scope",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
        RaceFlag(
            "plain_probe",
            "availability probe is a plain load instead of an atomic",
            frozenset({RaceType.MISSING_DEVICE_FENCE}),
        ),
        RaceFlag(
            "no_barrier",
            "leader→workers batch handoff without __syncthreads",
            frozenset({RaceType.MISSING_BLOCK_FENCE}),
        ),
        RaceFlag(
            "block_count",
            "colored-vertex counter bumped with atomicAdd_block",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
    )

    def __init__(self, races=(), seed: int = DEFAULT_SEED,
                 num_vertices: int = 800, num_edges: int = 1600, grid: int = 6,
                 block_dim: int = 32, max_rounds: int = 12):
        super().__init__(races, seed)
        self.graph = rmat_graph(num_vertices, num_edges, seed)
        self.grid = grid
        self.block_dim = block_dim
        self.max_rounds = max_rounds
        self.rounds_run = 0

    def _work_scopes(self) -> WorkScopes:
        return WorkScopes(
            own_advance=(
                Scope.BLOCK if self.enabled("block_next_head") else Scope.DEVICE
            ),
            steal_advance=(
                Scope.BLOCK if self.enabled("block_steal") else Scope.DEVICE
            ),
            probe=Scope.BLOCK if self.enabled("block_probe") else Scope.DEVICE,
            probe_atomic=not self.enabled("plain_probe"),
            barrier_handoff=not self.enabled("no_barrier"),
        )

    def run(self, gpu: GPU) -> None:
        graph = self.graph
        V = graph.num_vertices
        grid, block_dim = self.grid, self.block_dim
        self.row_ptr = gpu.alloc(V + 1, "gcol_row_ptr")
        self.col_idx = gpu.alloc(max(1, len(graph.col_idx)), "gcol_col_idx")
        self.colors_a = gpu.alloc(V, "gcol_colors_a")
        self.colors_b = gpu.alloc(V, "gcol_colors_b")
        self.total = gpu.alloc(1, "gcol_total")
        self.work = alloc_work_state(gpu, grid, "gcol")
        gpu.write_array(self.row_ptr, graph.row_ptr)
        gpu.write_array(self.col_idx, graph.col_idx)

        scopes = self._work_scopes()
        count_scope = Scope.BLOCK if self.enabled("block_count") else Scope.DEVICE
        per_block = -(-V // grid)
        bounds = [
            (b * per_block, min(V, (b + 1) * per_block)) for b in range(grid)
        ]
        batch = block_dim

        def coloring_kernel(ctx, row_ptr, col_idx, cur, nxt, total, work):
            while True:
                start, victim = yield from distribute_work(ctx, work, batch, scopes)
                if start < 0:
                    break
                v = start + ctx.tid
                # The no_barrier configuration can hand workers a stale
                # victim/start pair; racey runs must stay crash-free so
                # ScoRD can keep accumulating races.
                if not 0 <= victim < ctx.nbid:
                    continue
                part_end = yield ctx.ld(work.partition_end, victim)
                if v < part_end:
                    lo = yield ctx.ld(row_ptr, v)
                    hi = yield ctx.ld(row_ptr, v + 1)
                    my_color = yield ctx.ld(cur, v)
                    yield ctx.compute(2 * (hi - lo) + 5)
                    used = 0
                    conflict = False
                    for e in range(lo, hi):
                        u = yield ctx.ld(col_idx, e)
                        u_color = yield ctx.ld(cur, u)
                        if 0 <= u_color < 31:
                            used |= 1 << u_color
                        if u < v and u_color == my_color:
                            conflict = True
                    if conflict:
                        new_color = 0
                        while used & (1 << new_color):
                            new_color += 1
                        yield ctx.st(nxt, v, new_color)
                    else:
                        yield ctx.st(nxt, v, my_color)
                    yield ctx.atomic_add(total, 0, 1, scope=count_scope)
                yield from finish_batch(ctx, scopes)

        cur, nxt = self.colors_a, self.colors_b
        for round_index in range(self.max_rounds):
            reset_work_state(gpu, self.work, bounds)
            gpu.launch(
                coloring_kernel,
                grid=grid,
                block_dim=block_dim,
                args=(self.row_ptr, self.col_idx, cur, nxt, self.total, self.work),
            )
            self.rounds_run = round_index + 1
            cur, nxt = nxt, cur
            colors = gpu.read_array(cur)
            if is_valid_coloring(graph, colors):
                break
        self.final_colors = cur

    # ------------------------------------------------------------------
    def verify(self, gpu: GPU) -> bool:
        colors: List[int] = gpu.read_array(self.final_colors)
        if not is_valid_coloring(self.graph, colors):
            return False
        # Every vertex must have been processed exactly once per round.
        expected = self.graph.num_vertices * self.rounds_run
        return gpu.read(self.total, 0) == expected
