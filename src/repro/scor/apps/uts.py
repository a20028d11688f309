"""UTS — Unbalanced Tree Search (Table II, Fig. 5).

Trees are generated on the fly: a splittable hash of each node decides its
child count, so subtree sizes are wildly unbalanced.  Each block keeps a
**local stack** (block-scope lock — only its own threads touch it) and a
**global stack** (device-scope lock — any block may steal from it).  Lanes
pop and push through the local stack; a fraction of produced children goes
to the block's global stack so other blocks can steal; when a block runs
dry, its warp leaders steal a batch from some block's global stack into the
local one.  All stack fields live in global memory and are accessed with
``volatile`` operations (which is why the paper's UTS shows no L1-hit
detection overhead).  A device-scope ``pending`` counter implements
distributed termination.

Race flags (6, per Table VI):

* ``steal_local``       — blocks steal directly from other blocks' *local*
  stacks while those keep their block-scope locks (the Fig. 5 bug);
* ``block_cas_global``  — the global-stack lock is acquired with
  ``atomicCAS_block``;
* ``block_exch_global`` — ... released with ``atomicExch_block``;
* ``block_fence_global``— the global-stack lock's fences are block scope;
* ``unlocked_peek``     — stack emptiness is probed by reading ``top``
  without taking the lock (double-checked locking);
* ``no_fence_local``    — the local-stack lock idiom carries no fences.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import hash_u64
from repro.engine.gpu import GPU
from repro.isa.scopes import Scope
from repro.scord.races import RaceType
from repro.scor.apps.base import DEFAULT_SEED, RaceFlag, ScorApp

_MAX_DEPTH = 5
_BRANCH_MOD = 5  # children drawn from 0..4 (mean 2)
_LOCAL_CAP = 512
_GLOBAL_CAP = 256
_POP_BATCH = 3  # nodes popped per lock acquisition
_STEAL_BATCH = 8
_LOCK_SPINS = 150
_EMPTY_TRIES = 40
_VALUE_MASK = (1 << 26) - 1


def _node(depth: int, payload: int) -> int:
    return (depth << 26) | (payload & _VALUE_MASK)


def _node_depth(node: int) -> int:
    return node >> 26


def _child_count(node: int) -> int:
    if _node_depth(node) >= _MAX_DEPTH:
        return 0
    return hash_u64(node) % _BRANCH_MOD


def _child(node: int, index: int) -> int:
    payload = hash_u64(node * 8 + index + 1)
    return _node(_node_depth(node) + 1, payload)


def make_roots(num_trees: int, seed: int) -> List[int]:
    return [_node(0, hash_u64(seed * 1000 + t)) for t in range(num_trees)]


def count_tree_host(root: int) -> int:
    """Host reference: total nodes in the tree rooted at *root*."""
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        total += 1
        for i in range(_child_count(node)):
            stack.append(_child(node, i))
    return total


class UnbalancedTreeSearchApp(ScorApp):
    name = "UTS"
    paper_input = "120 trees, 9 levels, 3 avg. children (~1.2M nodes)"
    scaled_input = "24 trees, 6 levels, 2 avg. children (~1.2K nodes)"

    RACE_FLAGS = (
        RaceFlag(
            "steal_local",
            "stealing from other blocks' block-locked local stacks (Fig. 5)",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
        RaceFlag(
            "block_cas_global",
            "global-stack lock acquired with atomicCAS_block",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
        RaceFlag(
            "block_exch_global",
            "global-stack lock released with atomicExch_block",
            frozenset({RaceType.SCOPED_ATOMIC}),
        ),
        RaceFlag(
            "block_fence_global",
            "global-stack lock fences are __threadfence_block",
            frozenset({RaceType.SCOPED_FENCE}),
        ),
        RaceFlag(
            "unlocked_peek",
            "stack emptiness probed without holding the lock",
            frozenset({RaceType.LOCK}),
        ),
        RaceFlag(
            "no_fence_local",
            "local-stack lock idiom without fences",
            frozenset({RaceType.MISSING_BLOCK_FENCE}),
        ),
    )

    def __init__(self, races=(), seed: int = DEFAULT_SEED, num_trees: int = 24,
                 grid: int = 6, block_dim: int = 16):
        super().__init__(races, seed)
        self.roots = make_roots(num_trees, seed)
        self.grid = grid
        self.block_dim = block_dim

    def expected_total(self) -> int:
        return sum(count_tree_host(root) for root in self.roots)

    def run(self, gpu: GPU) -> None:
        grid, block_dim = self.grid, self.block_dim
        self.local_stack = gpu.alloc(grid * _LOCAL_CAP, "uts_local_stack")
        self.local_top = gpu.alloc(grid, "uts_local_top")
        self.local_lock = gpu.alloc(grid, "uts_local_lock")
        self.global_stack = gpu.alloc(grid * _GLOBAL_CAP, "uts_global_stack")
        self.global_top = gpu.alloc(grid, "uts_global_top")
        self.global_lock = gpu.alloc(grid, "uts_global_lock")
        self.total = gpu.alloc(1, "uts_total")
        self.pending = gpu.alloc(1, "uts_pending")

        # Seed roots round-robin into the blocks' local stacks (host side).
        tops = [0] * grid
        for index, root in enumerate(self.roots):
            b = index % grid
            gpu.write(self.local_stack, b * _LOCAL_CAP + tops[b], root)
            tops[b] += 1
        for b in range(grid):
            gpu.write(self.local_top, b, tops[b])
        gpu.write(self.pending, 0, len(self.roots))

        # --- scope configuration ---------------------------------------
        g_cas = Scope.BLOCK if self.enabled("block_cas_global") else Scope.DEVICE
        g_exch = Scope.DEVICE
        self_block_exch = self.enabled("block_exch_global")
        g_fence = (
            Scope.BLOCK if self.enabled("block_fence_global") else Scope.DEVICE
        )
        l_fence = None if self.enabled("no_fence_local") else Scope.BLOCK
        steal_local = self.enabled("steal_local")
        unlocked_peek = self.enabled("unlocked_peek")

        local_stack, local_top, local_lock = (
            self.local_stack, self.local_top, self.local_lock
        )
        global_stack, global_top, global_lock = (
            self.global_stack, self.global_top, self.global_lock
        )
        total, pending = self.total, self.pending

        def lock(ctx, lock_arr, index, scope, fence_scope):
            spins = 0
            while True:
                old = yield ctx.atomic_cas(lock_arr, index, 0, 1, scope=scope)
                if old == 0:
                    break
                spins += 1
                if spins > _LOCK_SPINS:
                    return False
                yield ctx.compute(20)
            if fence_scope is not None:
                yield ctx.fence(fence_scope)
            return True

        def unlock(ctx, lock_arr, index, scope, fence_scope):
            if fence_scope is not None:
                yield ctx.fence(fence_scope)
            yield ctx.atomic_exch(lock_arr, index, 0, scope=scope)

        def pop_stack_batch(ctx, stack, top, index, cap, want):
            """Pop up to *want* nodes; caller holds the stack's lock."""
            base = index * cap
            t = yield ctx.ld(top, index, volatile=True)
            t = min(max(t, 0), cap)
            nodes = []
            while t > 0 and len(nodes) < want:
                node = yield ctx.ld(stack, base + t - 1, volatile=True)
                nodes.append(node)
                t -= 1
            yield ctx.st(top, index, t, volatile=True)
            return nodes

        def push_stack_batch(ctx, stack, top, index, cap, nodes):
            """Push *nodes*; caller holds the lock.  Returns count pushed."""
            base = index * cap
            t = yield ctx.ld(top, index, volatile=True)
            t = min(max(t, 0), cap)
            pushed = 0
            for node in nodes:
                if t >= cap:
                    break
                yield ctx.st(stack, base + t, node, volatile=True)
                t += 1
                pushed += 1
            yield ctx.st(top, index, t, volatile=True)
            return pushed

        def pop_local_batch(ctx, b, want, cas_scope=Scope.BLOCK):
            got = yield from lock(ctx, local_lock, b, cas_scope, l_fence)
            if not got:
                return []
            nodes = yield from pop_stack_batch(
                ctx, local_stack, local_top, b, _LOCAL_CAP, want
            )
            yield from unlock(ctx, local_lock, b, cas_scope, l_fence)
            return nodes

        def push_local_batch(ctx, b, nodes):
            if not nodes:
                return 0
            got = yield from lock(ctx, local_lock, b, Scope.BLOCK, l_fence)
            if not got:
                return 0
            pushed = yield from push_stack_batch(
                ctx, local_stack, local_top, b, _LOCAL_CAP, nodes
            )
            yield from unlock(ctx, local_lock, b, Scope.BLOCK, l_fence)
            return pushed

        def pop_global_batch(ctx, b, want, exch_scope=None):
            if exch_scope is None:
                exch_scope = g_exch
            if unlocked_peek:
                # BUG: double-checked locking — unlocked probe of `top`.
                t = yield ctx.ld(global_top, b, volatile=True)
                if t <= 0:
                    return []
            got = yield from lock(ctx, global_lock, b, g_cas, g_fence)
            if not got:
                return []
            nodes = yield from pop_stack_batch(
                ctx, global_stack, global_top, b, _GLOBAL_CAP, want
            )
            yield from unlock(ctx, global_lock, b, exch_scope, g_fence)
            return nodes

        def push_global_batch(ctx, b, nodes):
            if not nodes:
                return 0
            got = yield from lock(ctx, global_lock, b, g_cas, g_fence)
            if not got:
                return 0
            pushed = yield from push_stack_batch(
                ctx, global_stack, global_top, b, _GLOBAL_CAP, nodes
            )
            yield from unlock(ctx, global_lock, b, g_exch, g_fence)
            return pushed

        def uts_kernel(ctx):
            b = ctx.bid
            produced = 0
            empty_tries = 0
            while empty_tries < _EMPTY_TRIES:
                nodes = yield from pop_local_batch(ctx, b, _POP_BATCH)
                if not nodes and ctx.lane == 0:
                    # Warp leaders refill the local stack from the global
                    # stacks (their own block's first, then stealing).
                    for k in range(ctx.nbid):
                        victim = (b + k) % ctx.nbid
                        # The block_exch_global bug manifests on steals:
                        # the stealer releases the *victim's* lock with a
                        # block-scope exchange that the victim cannot see.
                        steal_exch = g_exch
                        if victim != b and self_block_exch:
                            steal_exch = Scope.BLOCK
                        stolen = yield from pop_global_batch(
                            ctx, victim, _STEAL_BATCH, steal_exch
                        )
                        if not stolen and steal_local and victim != b:
                            # BUG (Fig. 5): raid the victim's local stack,
                            # guarded only by a block-scope lock.
                            stolen = yield from pop_local_batch(
                                ctx, victim, _STEAL_BATCH, Scope.BLOCK
                            )
                        if stolen:
                            pushed = yield from push_local_batch(ctx, b, stolen)
                            nodes = stolen[pushed:]  # overflow: process now
                            break
                    if not nodes:
                        nodes = yield from pop_local_batch(ctx, b, _POP_BATCH)
                if not nodes:
                    left = yield ctx.atomic_add(pending, 0, 0)
                    if left <= 0:
                        break
                    empty_tries += 1
                    yield ctx.compute(120)
                    continue
                empty_tries = 0
                # Process the batch; collect children, then push them in
                # (at most) one local and one global lock acquisition.
                to_local = []
                to_global = []
                delta = 0
                for node in nodes:
                    nch = _child_count(node)
                    yield ctx.compute(40 + hash_u64(node) % 40)
                    for i in range(nch):
                        child = _child(node, i)
                        produced += 1
                        # Every fourth child is published for stealing.
                        if produced % 4 == 3:
                            to_global.append(child)
                        else:
                            to_local.append(child)
                    delta += nch - 1
                if to_global:
                    pushed = yield from push_global_batch(ctx, b, to_global)
                    to_local.extend(to_global[pushed:])
                if to_local:
                    pushed = yield from push_local_batch(ctx, b, to_local)
                    if pushed < len(to_local):
                        spill = to_local[pushed:]
                        pushed = yield from push_global_batch(ctx, b, spill)
                        if pushed < len(spill):
                            # Both stacks rejected (racey configs only): the
                            # nodes are lost; keep the counters consistent.
                            lost = len(spill) - pushed
                            yield ctx.atomic_add(pending, 0, -lost)
                yield ctx.atomic_add(total, 0, len(nodes))
                yield ctx.atomic_add(pending, 0, delta)

        gpu.launch(uts_kernel, grid=grid, block_dim=block_dim, args=())

    def verify(self, gpu: GPU) -> bool:
        return gpu.read(self.total, 0) == self.expected_total()
