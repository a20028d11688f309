"""Execution of a warp's memory operations through the memory system.

One :class:`MemoryPipeline` per GPU couples the functional visibility model,
the timing fabric and the race detector.  The engine hands it the batch of
operations a warp produced in one lockstep issue; it coalesces them into
line-sized transactions, performs the functional effects, reserves timing
resources, reports every access to the detector, and returns the cycle at
which the warp may issue again.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.arch.config import GPUConfig
from repro.common.stats import CounterBag
from repro.isa.ops import AcquireLd, AtomicOp, AtomicRMW, Fence, Ld, ReleaseSt, St
from repro.isa.scopes import Scope
from repro.mem.allocator import DeviceAllocator
from repro.mem.atomics import apply_atomic
from repro.mem.visibility import VisibilityModel
from repro.scord.interface import Access, AccessKind, BaseDetector, NullDetector
from repro.timing.fabric import TimingFabric

_REQ_HEADER_BYTES = 8
_ADDR_BYTES = 4
_WORD_BYTES = 4

# Cheap fixed costs (cycles).
_STORE_ISSUE_COST = 2
_WB_FORWARD_COST = 1
_BLOCK_FENCE_COST = 4
_DEVICE_FENCE_BASE_COST = 10


class MemoryPipeline:
    """Functional + timing execution of global-memory traffic."""

    def __init__(
        self,
        config: GPUConfig,
        fabric: TimingFabric,
        visibility: VisibilityModel,
        detector: BaseDetector,
        allocator: DeviceAllocator,
        stats: CounterBag,
    ):
        self.config = config
        self.fabric = fabric
        self.visibility = visibility
        self.allocator = allocator
        self.stats = stats
        self._c = stats.counters()
        self._line = config.line_size_bytes
        self._tpw = config.threads_per_warp
        self._owner_of = allocator.owner_of
        # The allocator's addr->array memo is cleared in place (never
        # replaced), so the reference is stable; probing it directly saves
        # a call per lane on the hot paths below.
        self._owner_memo = allocator._owner_memo
        # One scratch Access reused across hot-loop iterations: nothing
        # downstream retains the object (the detector and the tracing
        # wrapper both copy fields out before returning), and every field
        # is reassigned before each on_access call.
        self._acc = Access(AccessKind.LOAD, 0, False, 0, 0, 0, ("", 0))
        # Fabric hoists for the inlined device-atomic round trip.
        self._noc_up = fabric.noc_up
        self._noc_down = fabric.noc_down
        self._bpc = fabric._bpc
        self._noc_lat = fabric._noc_lat
        self._l2_banks = fabric.l2_banks
        self._l2_nbanks = fabric._nbanks
        self._l2_hit_lat = fabric._l2_hit_lat
        self._l2 = fabric.l2
        self._l2_sets = fabric.l2._sets
        self._l2_assoc = fabric.l2.assoc
        self._l2_nsets = fabric.l2.num_sets
        self._l2_c = fabric.l2._c
        self._l2_data_keys = fabric.l2._keys_for("data")
        self._dram_access = fabric.dram.access
        self._fab_c = fabric._c
        self.detector = detector  # property: also binds the hot-path hooks
        # Optional Racecheck-style scratchpad hazard checker (set by GPU).
        self.shmem = None
        # Optional utilization timeline sampler (set by GPU).
        self.sampler = None

    # ------------------------------------------------------------------
    # Detector plumbing
    # ------------------------------------------------------------------
    @property
    def detector(self) -> BaseDetector:
        return self._detector

    @detector.setter
    def detector(self, detector: BaseDetector) -> None:
        # Tests swap in tracing/wrapping detectors after construction;
        # re-bind the per-access hook so the swap takes effect.
        self._detector = detector
        self._on_access = detector.on_access
        self._extra = detector.noc_packet_overhead
        self.detection_on = not isinstance(detector, NullDetector)

    def _report(
        self,
        now: int,
        kind: AccessKind,
        op,
        strong: bool,
        warp,
        pc: Tuple[str, int],
        l1_hit: bool,
        scope: Scope = Scope.DEVICE,
        atomic_op=None,
        sync_op=None,
        tid: int = 0,
    ) -> int:
        """Send one access to the detector; returns warp stall cycles."""
        if not self.detection_on:
            return 0
        owner = self._owner_of(op.addr)
        return self._on_access(
            now,
            Access(
                kind,
                op.addr,
                strong,
                warp.block.bid,
                warp.warp_id,
                warp.sm_id,
                pc,
                scope,
                atomic_op,
                l1_hit,
                owner.name if owner else None,
                sync_op,
                tid % self._tpw,
            ),
        )

    def _detector_packet(self, now: int) -> None:
        """Detection packet for an access that produces no memory-system
        packet of its own (L1 hit, buffered store, SM-local atomic):
        "even when a load hits in the L1 cache, a packet is sent to the
        race detector" (§IV)."""
        overhead = self._extra
        if overhead:
            self.fabric.send_up(now, overhead + 8)
            c = self._c
            try:
                c["detector.extra_packets"] += 1
            except KeyError:
                c["detector.extra_packets"] = 1

    # ------------------------------------------------------------------
    # Op-class execution.  Each takes (now, warp, items) where items is a
    # list of (tid, op, pc); returns (completion_time, stall_cycles).
    # ------------------------------------------------------------------
    def exec_loads(
        self, now: int, warp, items: List[Tuple[int, Ld, Tuple[str, int]]], results: Dict[int, int]
    ) -> Tuple[int, int]:
        completion = now
        stall = 0
        line_size = self._line
        # Coalesce by (line, strong): one transaction per group.
        groups: Dict[Tuple[int, bool], List[Tuple[int, Ld, Tuple[str, int]]]] = {}
        for tid, op, pc in items:
            key = (op.addr - op.addr % line_size, op.strong)
            groups.setdefault(key, []).append((tid, op, pc))

        # _report hand-inlined below (one Access per lane is the hottest
        # allocation in the engine); per-warp fields hoisted out of the loop.
        detection = self.detection_on
        vis = self.visibility
        sm_id = warp.sm_id
        uid = warp.uid
        # visibility.load, hand-inlined per lane below.  The per-warp state
        # is loop-invariant: loads never create write buffers (only stores
        # and atomics do), and the SM/L1 objects are stable.
        wb_buf = vis._wb.get(uid)
        sm = vis._sms[sm_id]
        local = sm.local
        l1 = vis._sms[sm_id].l1
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        l1_data = sm.l1_data
        words = vis._words
        cap = vis._cap
        sm_view = vis._sm_view
        l1_keys = l1._stat_keys.get("data")
        if l1_keys is None:
            l1_keys = l1._keys_for("data")
        l1_hit_key = l1_keys[0]
        l1c = l1._c
        if detection:
            on_access = self._on_access
            owner_of = self._owner_of
            owner_memo = self._owner_memo
            tpw = self._tpw
            acc = self._acc
            acc.kind = AccessKind.LOAD
            acc.block_id = warp.block.bid
            acc.warp_id = warp.warp_id
            acc.sm_id = sm_id
            acc.scope = Scope.DEVICE
            acc.atomic_op = None
            acc.sync_op = None
        for (line, strong), group in groups.items():
            any_miss = False
            any_l1_hit = False
            for tid, op, pc in group:
                addr = op.addr
                if wb_buf is not None and addr in wb_buf:
                    # Forwarded from the warp's own write buffer.
                    results[tid] = wb_buf[addr]
                    hit = True
                elif strong:
                    # Volatile: bypass the L1, read the SM view (local
                    # over the device-coherent backing store).
                    entry = local.get(addr)
                    if entry is not None:
                        results[tid] = entry[0]
                    elif addr % 4 == 0 and 0 <= addr < cap:
                        results[tid] = words.get(addr, 0)
                    else:
                        results[tid] = vis.backing.read_word(addr)
                    hit = False
                else:
                    cache_set = l1_sets.get((line // line_size) % l1_nsets)
                    if cache_set is not None and line in cache_set:
                        # L1 tag hit: LRU touch + hit counter + snapshot.
                        cache_set.move_to_end(line)
                        try:
                            l1c[l1_hit_key] += 1
                        except KeyError:
                            l1c[l1_hit_key] = 1
                        snapshot = l1_data.get(line)
                        if snapshot is not None and addr in snapshot:
                            results[tid] = snapshot[addr]
                        else:
                            value = sm_view(sm_id, addr)
                            l1_data.setdefault(line, {})[addr] = value
                            results[tid] = value
                        hit = True
                    else:
                        # Deterministic miss: the full access() takes its
                        # miss path (counter, eviction, fill).
                        result = l1.access(addr, False, "data")
                        if result.evicted_line is not None:
                            l1_data.pop(result.evicted_line, None)
                        if 0 <= line and line + line_size <= cap:
                            snapshot = {}
                            for word_addr in range(line, line + line_size, 4):
                                entry = local.get(word_addr)
                                snapshot[word_addr] = (
                                    entry[0]
                                    if entry is not None
                                    else words.get(word_addr, 0)
                                )
                        else:
                            snapshot = {
                                word_addr: sm_view(sm_id, word_addr)
                                for word_addr in range(
                                    line, line + line_size, 4
                                )
                            }
                        l1_data[line] = snapshot
                        results[tid] = snapshot[addr]
                        any_miss = True
                        hit = False
                any_l1_hit = any_l1_hit or hit
                if detection:
                    try:
                        owner = owner_memo[addr]
                    except KeyError:
                        owner = owner_of(addr)
                    acc.addr = addr
                    acc.strong = strong
                    acc.pc = pc
                    acc.l1_hit = hit
                    acc.array_name = owner.name if owner else None
                    acc.lane_id = tid % tpw
                    s = on_access(now, acc)
                    if s > stall:
                        stall = s
            if strong or any_miss:
                request = _REQ_HEADER_BYTES + _ADDR_BYTES + self._extra
                response = _REQ_HEADER_BYTES + (
                    len(group) * _WORD_BYTES if strong else line_size
                )
                done = self.fabric.round_trip(
                    now, line, False, request, response, "data"
                )
                if done > completion:
                    completion = done
            else:
                # Served locally — but the detector still needs a packet
                # (_detector_packet, hand-inlined).
                if detection:
                    overhead = self._extra
                    if overhead:
                        self.fabric.send_up(now, overhead + 8)
                        c = self._c
                        try:
                            c["detector.extra_packets"] += 1
                        except KeyError:
                            c["detector.extra_packets"] = 1
                if any_l1_hit:
                    done = now + self.config.l1_hit_latency
                else:
                    done = now + _WB_FORWARD_COST
                if done > completion:
                    completion = done
        return completion, stall

    def exec_stores(
        self, now: int, warp, items: List[Tuple[int, St, Tuple[str, int]]]
    ) -> Tuple[int, int]:
        completion = now + _STORE_ISSUE_COST
        stall = 0
        strong_lines = set()
        drained_lines = set()
        line_size = self._line
        detection = self.detection_on
        vstore = self.visibility.store
        sm_id = warp.sm_id
        uid = warp.uid
        if detection:
            on_access = self._on_access
            owner_of = self._owner_of
            owner_memo = self._owner_memo
            tpw = self._tpw
            acc = self._acc
            acc.kind = AccessKind.STORE
            acc.block_id = warp.block.bid
            acc.warp_id = warp.warp_id
            acc.sm_id = sm_id
            acc.scope = Scope.DEVICE
            acc.atomic_op = None
            acc.l1_hit = False
            acc.sync_op = None
        for tid, op, pc in items:
            if op.strong:
                vstore(sm_id, uid, op.addr, op.value, True)
                strong_lines.add(op.addr - op.addr % line_size)
            else:
                drained = vstore(sm_id, uid, op.addr, op.value, False)
                if drained is not None:
                    drained_lines.add(drained - drained % line_size)
            if detection:
                addr = op.addr
                try:
                    owner = owner_memo[addr]
                except KeyError:
                    owner = owner_of(addr)
                acc.addr = addr
                acc.strong = op.strong
                acc.pc = pc
                acc.array_name = owner.name if owner else None
                acc.lane_id = tid % tpw
                s = on_access(now, acc)
                if s > stall:
                    stall = s
        # Strong stores write through to the L2 immediately; weak stores sit
        # in the write buffer and generate traffic when they drain (fence,
        # capacity, or kernel end).  Stores are fire-and-forget either way.
        for line in strong_lines:
            self.fabric.round_trip(
                now,
                line,
                True,
                _REQ_HEADER_BYTES + _ADDR_BYTES + self._line + self._extra,
                0,
                "data",
                wait_for_response=False,
            )
        for line in drained_lines:
            # Write-buffer capacity drain: the old entry travels to L2 now.
            self.fabric.round_trip(
                now,
                line,
                True,
                _REQ_HEADER_BYTES + _ADDR_BYTES + _WORD_BYTES,
                0,
                "data",
                wait_for_response=False,
            )
        if detection and not strong_lines and items:
            # Buffered weak stores produced no packet; detection needs one.
            self._detector_packet(now)
        return completion, stall

    def exec_atomics(
        self,
        now: int,
        warp,
        items: List[Tuple[int, AtomicRMW, Tuple[str, int]]],
        results: Dict[int, int],
    ) -> Tuple[int, int]:
        completion = now
        stall = 0
        device_lines = set()
        block_lines = set()
        line_size = self._line
        detection = self.detection_on
        vis = self.visibility
        sm_id = warp.sm_id
        uid = warp.uid
        # visibility.atomic, hand-inlined per lane below.  The per-warp
        # state is loop-invariant: atomics only pop from an existing write
        # buffer (never create one), and the SM/L1 objects are stable.
        wb_buf = vis._wb.get(uid)
        sm = vis._sms[sm_id]
        local = sm.local
        words = vis._words
        cap = vis._cap
        l1_sets = sm.l1._sets
        l1_nsets = sm.l1.num_sets
        l1_data = sm.l1_data
        if detection:
            on_access = self._on_access
            owner_of = self._owner_of
            owner_memo = self._owner_memo
            tpw = self._tpw
            acc = self._acc
            acc.kind = AccessKind.ATOMIC
            acc.strong = True
            acc.block_id = warp.block.bid
            acc.warp_id = warp.warp_id
            acc.sm_id = sm_id
            acc.atomic_op = None
            acc.l1_hit = False
            acc.sync_op = None
        # Per-warp hoists for the inlined fabric round trip (atomics are
        # not coalesced: each RMW travels individually, as in GPGPU-Sim;
        # this per-op packet stream is why atomic-dense applications are
        # so sensitive to detection's extra packet payload).
        bpc = self._bpc
        noc_lat = self._noc_lat
        up_bytes = _REQ_HEADER_BYTES + _ADDR_BYTES + _WORD_BYTES + self._extra
        up_service = -(-up_bytes // bpc)
        down_bytes = _REQ_HEADER_BYTES + _WORD_BYTES
        down_service = -(-down_bytes // bpc)
        fc = self._fab_c
        for tid, op, pc in items:
            device_scope = op.scope is not Scope.BLOCK
            addr = op.addr
            aop = op.op
            if wb_buf is not None and addr in wb_buf:
                # Program order: the warp's own pending store happens first.
                pending = wb_buf.pop(addr)
                if device_scope:
                    vis._drain_entry_to_backing(sm_id, addr, pending)
                else:
                    vis._drain_entry_to_local(sm_id, uid, addr, pending)
            if device_scope:
                if addr % 4 == 0 and 0 <= addr < cap:
                    cur = words.get(addr, 0)
                else:
                    cur = vis.backing.read_word(addr)
                if aop is AtomicOp.CAS:
                    new_value = op.operand if cur == op.compare else cur
                elif aop is AtomicOp.ADD:
                    new_value = cur + op.operand
                else:
                    _, new_value = apply_atomic(aop, cur, op.operand, op.compare)
                new_value &= 0xFFFFFFFF
                if new_value & 0x80000000:
                    new_value -= 0x100000000
                if addr % 4 == 0 and 0 <= addr < cap:
                    words[addr] = new_value
                else:
                    vis.backing.write_word(addr, new_value)
                # Keep the SM self-consistent: refresh any local shadow.
                entry = local.get(addr)
                if entry is not None:
                    entry[0] = new_value
            else:
                entry = local.get(addr)
                if entry is not None:
                    cur = entry[0]
                elif addr % 4 == 0 and 0 <= addr < cap:
                    cur = words.get(addr, 0)
                else:
                    cur = vis.backing.read_word(addr)
                if aop is AtomicOp.CAS:
                    new_value = op.operand if cur == op.compare else cur
                elif aop is AtomicOp.ADD:
                    new_value = cur + op.operand
                else:
                    _, new_value = apply_atomic(aop, cur, op.operand, op.compare)
                new_value &= 0xFFFFFFFF
                if new_value & 0x80000000:
                    new_value -= 0x100000000
                local[addr] = [new_value, uid]
            # Write-evict the L1 line (invalidate_line, hand-inlined).
            line = addr - addr % line_size
            cache_set = l1_sets.get((line // line_size) % l1_nsets)
            if cache_set is not None:
                cache_set.pop(line, None)
            l1_data.pop(line, None)
            results[tid] = cur
            # Atomics do not take the LHD stall path (l1_hit=False): the
            # LHD source is specifically loads completing from the L1
            # while the detector's buffer is full (§V); atomics always
            # wait on their scope level anyway.
            if detection:
                try:
                    owner = owner_memo[addr]
                except KeyError:
                    owner = owner_of(addr)
                acc.addr = addr
                acc.pc = pc
                acc.scope = op.scope
                acc.atomic_op = op.op
                acc.array_name = owner.name if owner else None
                acc.lane_id = tid % tpw
                s = on_access(now, acc)
                if s > stall:
                    stall = s
            if device_scope:
                device_lines.add(line)
                # fabric.send_up + access_l2 + send_down, hand-inlined.
                link = self._noc_up
                try:
                    fc["noc.packets"] += 1
                except KeyError:
                    fc["noc.packets"] = 1
                try:
                    fc["noc.bytes"] += up_bytes
                except KeyError:
                    fc["noc.bytes"] = up_bytes
                next_free = link.next_free
                start = now if now > next_free else next_free
                link.next_free = start + up_service
                link.busy_cycles += up_service
                link.requests += 1
                at_l2 = start + up_service + noc_lat
                bank = self._l2_banks[(line // line_size) % self._l2_nbanks]
                next_free = bank.next_free
                bank_start = at_l2 if at_l2 > next_free else next_free
                bank.next_free = bank_start + 2  # _L2_BANK_OCCUPANCY
                bank.busy_cycles += 2
                bank.requests += 1
                answered = bank_start + self._l2_hit_lat
                cache_set = self._l2_sets.get((line // line_size) % self._l2_nsets)
                if cache_set is None:
                    cache_set = OrderedDict()
                    self._l2_sets[(line // line_size) % self._l2_nsets] = cache_set
                entry = cache_set.get(line)
                l2c = self._l2_c
                if entry is not None:
                    cache_set.move_to_end(line)
                    entry[0] = True
                    hit_key = self._l2_data_keys[0]
                    try:
                        l2c[hit_key] += 1
                    except KeyError:
                        l2c[hit_key] = 1
                else:
                    miss_key = self._l2_data_keys[1]
                    try:
                        l2c[miss_key] += 1
                    except KeyError:
                        l2c[miss_key] = 1
                    if len(cache_set) >= self._l2_assoc:
                        victim_line, (victim_dirty, victim_class) = (
                            cache_set.popitem(last=False)
                        )
                        if victim_dirty:
                            wb_key = self._l2._keys_for(victim_class)[2]
                            try:
                                l2c[wb_key] += 1
                            except KeyError:
                                l2c[wb_key] = 1
                            self._dram_access(answered, victim_line, victim_class)
                    cache_set[line] = [True, "data"]
                    answered = self._dram_access(answered, addr, "data")
                link = self._noc_down
                try:
                    fc["noc.packets"] += 1
                except KeyError:
                    fc["noc.packets"] = 1
                try:
                    fc["noc.bytes"] += down_bytes
                except KeyError:
                    fc["noc.bytes"] = down_bytes
                next_free = link.next_free
                start = answered if answered > next_free else next_free
                link.next_free = start + down_service
                link.busy_cycles += down_service
                link.requests += 1
                done = start + down_service + noc_lat
                if done > completion:
                    completion = done
            else:
                # Block-scope atomics complete at the SM level — the
                # performance motivation for scoped operations.
                block_lines.add(op.addr - op.addr % line_size)
                done = now + self.config.l1_hit_latency
                if done > completion:
                    completion = done
        if detection and block_lines:
            overhead = self._extra
            if overhead:
                c = self._c
                send_up = self.fabric.send_up
                for _line in block_lines:
                    send_up(now, overhead + 8)
                    try:
                        c["detector.extra_packets"] += 1
                    except KeyError:
                        c["detector.extra_packets"] = 1
        return completion, stall

    def exec_sync_accesses(
        self,
        now: int,
        warp,
        acquires,
        releases,
        results: Dict[int, int],
    ) -> Tuple[int, int]:
        """PTX 6.0 acquire/release accesses (§VI extension).

        A release orders the warp's prior writes (scoped, like a fence)
        and then strong-stores the sync variable; an acquire strong-loads
        it.  Both are reported to the detector as sync accesses.
        """
        completion = now
        stall = 0
        for tid, op, pc in releases:
            device = op.scope is not Scope.BLOCK
            if self.detection_on:
                self.detector.on_fence(now, warp.block.bid, warp.warp_id, op.scope)
            drained = self.visibility.fence(warp.sm_id, warp.uid, device)
            if device:
                for line in {a - a % self._line for a in drained}:
                    arrival = self.fabric.send_up(
                        now, _REQ_HEADER_BYTES + _ADDR_BYTES + _WORD_BYTES
                    )
                    self.fabric.access_l2(arrival, line, True, "data")
                completion = max(completion, now + _DEVICE_FENCE_BASE_COST)
            else:
                completion = max(completion, now + _BLOCK_FENCE_COST)
            self.visibility.store(warp.sm_id, warp.uid, op.addr, op.value, True)
            self.fabric.round_trip(
                now,
                op.addr - op.addr % self._line,
                True,
                _REQ_HEADER_BYTES + _ADDR_BYTES + _WORD_BYTES + self._extra,
                0,
                "data",
                wait_for_response=False,
            )
            stall = max(
                stall,
                self._report(
                    now, AccessKind.STORE, op, True, warp, pc,
                    l1_hit=False, scope=op.scope, sync_op="release", tid=tid,
                ),
            )
        for tid, op, pc in acquires:
            value, _served = self.visibility.load(
                warp.sm_id, warp.uid, op.addr, strong=True
            )
            results[tid] = value
            done = self.fabric.round_trip(
                now,
                op.addr - op.addr % self._line,
                False,
                _REQ_HEADER_BYTES + _ADDR_BYTES + self._extra,
                _REQ_HEADER_BYTES + _WORD_BYTES,
                "data",
            )
            completion = max(completion, done)
            stall = max(
                stall,
                self._report(
                    now, AccessKind.LOAD, op, True, warp, pc,
                    l1_hit=False, scope=op.scope, sync_op="acquire", tid=tid,
                ),
            )
        return completion, stall

    def exec_fences(
        self, now: int, warp, items: List[Tuple[int, Fence, Tuple[str, int]]]
    ) -> Tuple[int, int]:
        completion = now
        # All lanes of a warp fence together; one fence event per distinct
        # scope present in this issue.
        scopes = []
        for _tid, op, _pc in items:
            if op.scope not in scopes:
                scopes.append(op.scope)
        for scope in scopes:
            if self.detection_on:
                self.detector.on_fence(now, warp.block.bid, warp.warp_id, scope)
            device = scope is not Scope.BLOCK
            drained = self.visibility.fence(warp.sm_id, warp.uid, device)
            if device:
                done = now + _DEVICE_FENCE_BASE_COST
                lines = {addr - addr % self._line for addr in drained}
                for line in lines:
                    # The fence completes when its drained stores reach L2.
                    per_store = _REQ_HEADER_BYTES + _ADDR_BYTES + _WORD_BYTES
                    arrival = self.fabric.send_up(now, per_store)
                    done = max(
                        done, self.fabric.access_l2(arrival, line, True, "data")
                    )
                completion = max(completion, done)
            else:
                completion = max(completion, now + _BLOCK_FENCE_COST)
        return completion, 0
