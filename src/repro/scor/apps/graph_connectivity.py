"""GCON — Graph connectivity with work stealing (Table II).

Connected components by label propagation: every vertex starts with its own
id as label; each round, a vertex pushes the minimum of its label into its
neighbours with ``atomicMin`` (several blocks may push into the same
vertex — the cross-block contended state, hence device scope).  A global
``changed`` counter tells the host when a fixpoint is reached.  Vertex
batches are distributed through the same Fig. 3 work-stealing machinery as
GCOL.

Race flags (5, per Table VI):

* ``block_label_min`` — neighbour pushes use ``atomicMin_block``; pushes
  from another block are lost (scoped atomic);
* ``block_next_head`` / ``block_steal`` — the Fig. 3b work-stealing scope
  bugs, as in GCOL;
* ``plain_label_push`` — labels are written with plain stores instead of
  ``atomicMin`` (racing with other blocks' atomics);
* ``block_changed``   — the convergence counter uses atomicAdd_block, so
  the host can observe a premature fixpoint.
"""

from __future__ import annotations

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
from repro.scor.graphgen import connected_components, rmat_graph


class GraphConnectivityApp(ScorApp):
    name = "GCON"
    paper_input = "100K vertices, 150K edges (GTgraph R-MAT)"
    scaled_input = "1000 vertices, 1500 edges (R-MAT), 6 blocks x 32 threads"

    RACE_FLAGS = (
        RaceFlag(
            "block_label_min",
            "labels pushed to neighbours with atomicMin_block",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
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
            "plain_label_push",
            "labels written with plain stores instead of atomicMin",
            frozenset({RaceType.MISSING_DEVICE_FENCE}),
        ),
        RaceFlag(
            "block_changed",
            "convergence counter bumped with atomicAdd_block",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
    )

    def __init__(self, races=(), seed: int = DEFAULT_SEED,
                 num_vertices: int = 1000, num_edges: int = 1500,
                 grid: int = 6, block_dim: int = 32, max_rounds: int = 16):
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
        )

    def run(self, gpu: GPU) -> None:
        graph = self.graph
        V = graph.num_vertices
        grid, block_dim = self.grid, self.block_dim
        self.row_ptr = gpu.alloc(V + 1, "gcon_row_ptr")
        self.col_idx = gpu.alloc(max(1, len(graph.col_idx)), "gcon_col_idx")
        self.labels = gpu.alloc(V, "gcon_labels")
        self.changed = gpu.alloc(1, "gcon_changed")
        self.work = alloc_work_state(gpu, grid, "gcon")
        gpu.write_array(self.row_ptr, graph.row_ptr)
        gpu.write_array(self.col_idx, graph.col_idx)
        gpu.write_array(self.labels, list(range(V)))

        scopes = self._work_scopes()
        min_scope = Scope.BLOCK if self.enabled("block_label_min") else Scope.DEVICE
        changed_scope = (
            Scope.BLOCK if self.enabled("block_changed") else Scope.DEVICE
        )
        plain_push = self.enabled("plain_label_push")
        per_block = -(-V // grid)
        bounds = [
            (b * per_block, min(V, (b + 1) * per_block)) for b in range(grid)
        ]
        batch = block_dim

        def connectivity_kernel(ctx, row_ptr, col_idx, labels, changed, work):
            while True:
                start, victim = yield from distribute_work(ctx, work, batch, scopes)
                if start < 0:
                    break
                v = start + ctx.tid
                if not 0 <= victim < ctx.nbid:
                    continue
                part_end = yield ctx.ld(work.partition_end, victim)
                if v < part_end:
                    lo = yield ctx.ld(row_ptr, v)
                    hi = yield ctx.ld(row_ptr, v + 1)
                    # Labels move through atomics, so read atomically too.
                    my_label = yield ctx.atomic_min(labels, v, (1 << 30), scope=min_scope)
                    yield ctx.compute(2 * (hi - lo) + 5)
                    best = my_label
                    for e in range(lo, hi):
                        u = yield ctx.ld(col_idx, e)
                        if plain_push:
                            u_label = yield ctx.ld(labels, u, volatile=True)
                        else:
                            u_label = yield ctx.atomic_min(
                                labels, u, best, scope=min_scope
                            )
                            if best < u_label:
                                yield ctx.atomic_add(changed, 0, 1, scope=changed_scope)
                        if u_label < best:
                            best = u_label
                    if plain_push:
                        for e in range(lo, hi):
                            u = yield ctx.ld(col_idx, e)
                            yield ctx.st(labels, u, best, volatile=True)
                    if best < my_label:
                        if plain_push:
                            yield ctx.st(labels, v, best, volatile=True)
                        else:
                            yield ctx.atomic_min(labels, v, best, scope=min_scope)
                        yield ctx.atomic_add(changed, 0, 1, scope=changed_scope)
                yield from finish_batch(ctx, scopes)

        for round_index in range(self.max_rounds):
            gpu.write(self.changed, 0, 0)
            reset_work_state(gpu, self.work, bounds)
            gpu.launch(
                connectivity_kernel,
                grid=grid,
                block_dim=block_dim,
                args=(self.row_ptr, self.col_idx, self.labels,
                      self.changed, self.work),
            )
            self.rounds_run = round_index + 1
            if gpu.read(self.changed, 0) == 0:
                break

    def verify(self, gpu: GPU) -> bool:
        return gpu.read_array(self.labels) == connected_components(self.graph)
