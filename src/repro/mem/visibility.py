"""Scope-aware value visibility.

This module is what makes *scoped* races observable in the reproduction, the
way they are on hardware with non-coherent L1 caches (paper §II-B/§III):

* Weak (non-``volatile``) stores sit in a **per-warp write buffer**.
* A **block-scope fence** drains the issuing warp's buffer into the **SM-local
  view** — visible to the other threads on that SM (the threadblock), but not
  to other SMs.
* A **device-scope fence** drains all the way to the **backing store** (the
  device-coherent L2/DRAM level), including entries this warp previously
  published only to the SM-local view.
* **Block-scope atomics** read-modify-write the SM-local view; **device-scope
  atomics** read-modify-write the backing store.  Two blocks doing block-scope
  RMWs on one address therefore really do lose updates (Fig. 3b's work
  stealing bug hands out duplicate work here).
* Weak loads may hit a **stale L1 line**: L1 lines snapshot the SM view at
  fill time and are never invalidated by remote stores.  ``volatile``
  (strong) accesses bypass the L1, as in CUDA.

Visibility beyond what a scope guarantees is allowed (scopes are lower
bounds), and this model does grant some — e.g. an SM-local value is visible
to *all* blocks co-resident on that SM, not only the writer's block.  What it
never does is grant device-wide visibility to an operation whose scope was
only ``block``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.stats import CounterBag
from repro.isa.ops import AtomicOp
from repro.mem.atomics import apply_atomic
from repro.mem.backing import BackingStore, to_int32
from repro.mem.cache import SetAssocCache

# How a load was served; the engine maps this to a timing path.
SERVED_WB = "wb"  # forwarded from the warp's own write buffer
SERVED_L1 = "l1"  # L1 hit (possibly stale)
SERVED_FILL = "fill"  # L1 miss, line filled from the SM view
SERVED_STRONG = "strong"  # volatile access, L1 bypassed


class _SMState:
    """Per-SM functional state: write buffers, local view, L1 snapshots."""

    __slots__ = ("local", "l1", "l1_data")

    def __init__(self, l1: SetAssocCache):
        # addr -> [value, owner_warp_uid]; the SM-local (block-visible) view.
        self.local: Dict[int, List[int]] = {}
        self.l1 = l1
        # line_addr -> {addr: value} snapshot taken at fill time.
        self.l1_data: Dict[int, Dict[int, int]] = {}


class VisibilityModel:
    """Layered value visibility: write buffer -> SM-local -> backing."""

    def __init__(
        self,
        backing: BackingStore,
        num_sms: int,
        l1_size_bytes: int,
        l1_assoc: int,
        line_size: int,
        write_buffer_capacity: int,
        stats: Optional[CounterBag] = None,
    ):
        self.backing = backing
        self.line_size = line_size
        self.write_buffer_capacity = write_buffer_capacity
        self.stats = stats if stats is not None else CounterBag()
        self._sms = [
            _SMState(
                SetAssocCache("l1", l1_size_bytes, l1_assoc, line_size, self.stats)
            )
            for _ in range(num_sms)
        ]
        # warp_uid -> OrderedDict[addr, value]; warp_uid -> sm_id.
        self._wb: Dict[int, "OrderedDict[int, int]"] = {}
        self._wb_sm: Dict[int, int] = {}
        # Hot-path hoists: the backing store's word dict is cleared in
        # place (never replaced), so caching the reference is safe.
        self._words = backing._words
        self._cap = backing.capacity_bytes

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _sm_view(self, sm_id: int, addr: int) -> int:
        """The SM's current committed view of *addr* (local over backing)."""
        entry = self._sms[sm_id].local.get(addr)
        if entry is not None:
            return entry[0]
        return self.backing.read_word(addr)

    def _invalidate_l1(self, sm_id: int, addr: int) -> None:
        sm = self._sms[sm_id]
        line = addr - (addr % self.line_size)
        # l1.invalidate_line, hand-inlined (stores/atomics call this once
        # per lane).
        l1 = sm.l1
        cache_set = l1._sets.get((line // l1.line_size) % l1.num_sets)
        if cache_set is not None:
            cache_set.pop(line, None)
        sm.l1_data.pop(line, None)

    def _drain_entry_to_backing(self, sm_id: int, addr: int, value: int) -> None:
        self.backing.write_word(addr, value)
        self._invalidate_l1(sm_id, addr)

    def _drain_entry_to_local(
        self, sm_id: int, warp_uid: int, addr: int, value: int
    ) -> None:
        self._sms[sm_id].local[addr] = [to_int32(value), warp_uid]
        self._invalidate_l1(sm_id, addr)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def load(
        self, sm_id: int, warp_uid: int, addr: int, strong: bool
    ) -> Tuple[int, str]:
        """Return ``(value, served_from)`` for a load by *warp_uid*."""
        buf = self._wb.get(warp_uid)
        if buf is not None and addr in buf:
            return buf[addr], SERVED_WB

        sm = self._sms[sm_id]
        local = sm.local
        if strong:
            # Volatile: bypass the L1 and read the SM view (which falls
            # through to the device-coherent backing store).
            entry = local.get(addr)
            if entry is not None:
                return entry[0], SERVED_STRONG
            return self.backing.read_word(addr), SERVED_STRONG

        line = addr - (addr % self.line_size)
        # sm.l1.access hit path, hand-inlined (the tag probe + LRU touch +
        # hit counter); a probe miss falls through to the full access(),
        # which then deterministically takes its miss path.
        l1 = sm.l1
        cache_set = l1._sets.get((line // l1.line_size) % l1.num_sets)
        if cache_set is not None and line in cache_set:
            cache_set.move_to_end(line)
            keys = l1._stat_keys.get("data")
            if keys is None:
                keys = l1._keys_for("data")
            c = l1._c
            key = keys[0]
            try:
                c[key] += 1
            except KeyError:
                c[key] = 1
            snapshot = sm.l1_data.get(line)
            if snapshot is not None and addr in snapshot:
                return snapshot[addr], SERVED_L1
            # Tag present without data can only happen if snapshots and tags
            # desynchronized; treat as a fill from the current view.
            value = self._sm_view(sm_id, addr)
            sm.l1_data.setdefault(line, {})[addr] = value
            return value, SERVED_L1
        result = sm.l1.access(addr, False, "data")

        if result.evicted_line is not None:
            sm.l1_data.pop(result.evicted_line, None)
        if 0 <= line and line + self.line_size <= self.backing.capacity_bytes:
            # Whole line in bounds: read the backing words directly (the
            # stored values are already int32-normalized).
            words = self.backing._words
            snapshot = {}
            for word_addr in range(line, line + self.line_size, 4):
                entry = local.get(word_addr)
                snapshot[word_addr] = (
                    entry[0] if entry is not None else words.get(word_addr, 0)
                )
        else:
            snapshot = {
                word_addr: self._sm_view(sm_id, word_addr)
                for word_addr in range(line, line + self.line_size, 4)
            }
        sm.l1_data[line] = snapshot
        return snapshot[addr], SERVED_FILL

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def store(
        self, sm_id: int, warp_uid: int, addr: int, value: int, strong: bool
    ) -> Optional[int]:
        """Perform a store; weak stores are buffered, strong go to backing.

        Returns the address of a capacity-drained older entry, if the write
        buffer overflowed, so the caller can charge its drain traffic.
        """
        value = to_int32(value)
        if strong:
            # Program order: an older weak store of this warp to the same
            # address must not survive in the write buffer (it would both
            # shadow this store for the warp's own loads and clobber the
            # backing store when it later drains).
            buf = self._wb.get(warp_uid)
            if buf is not None:
                buf.pop(addr, None)
            self.backing.write_word(addr, value)
            # Volatile stores take effect at the device level; drop any
            # SM-local shadow so this SM keeps reading the committed value.
            self._sms[sm_id].local.pop(addr, None)
            self._invalidate_l1(sm_id, addr)
            return None

        buf = self._wb.get(warp_uid)
        if buf is None:
            buf = OrderedDict()
            self._wb[warp_uid] = buf
        self._wb_sm[warp_uid] = sm_id
        buf[addr] = value
        buf.move_to_end(addr)
        # Global stores are write-evict: the SM must not keep serving the
        # pre-store line to other warps once the store drains, and the
        # storing warp itself is covered by buffer forwarding.
        # (_invalidate_l1, hand-inlined.)
        sm = self._sms[sm_id]
        line = addr - (addr % self.line_size)
        l1 = sm.l1
        cache_set = l1._sets.get((line // l1.line_size) % l1.num_sets)
        if cache_set is not None:
            cache_set.pop(line, None)
        sm.l1_data.pop(line, None)
        if len(buf) > self.write_buffer_capacity:
            # A real write buffer eventually drains to L2; evict the oldest
            # entry to the backing store.  The drained address is returned
            # so the engine can account its traffic.
            old_addr, old_value = buf.popitem(last=False)
            self.stats.add("wb.capacity_drain")
            self._drain_entry_to_backing(sm_id, old_addr, old_value)
            return old_addr
        return None

    # ------------------------------------------------------------------
    # Atomics
    # ------------------------------------------------------------------
    def atomic(
        self,
        sm_id: int,
        warp_uid: int,
        addr: int,
        op: AtomicOp,
        operand: int,
        compare: Optional[int],
        device_scope: bool,
    ) -> int:
        """Perform a scoped RMW; returns the old value.

        Block-scope atomics act on the SM-local view; device-scope atomics
        act on the backing store.  Either way the warp's own buffered weak
        store to the same address (if any) is ordered before the RMW.
        """
        buf = self._wb.get(warp_uid)
        if buf is not None and addr in buf:
            # Program order: the warp's own pending store happens first.
            pending = buf.pop(addr)
            if device_scope:
                self._drain_entry_to_backing(sm_id, addr, pending)
            else:
                self._drain_entry_to_local(sm_id, warp_uid, addr, pending)

        sm = self._sms[sm_id]
        if device_scope:
            # backing.read_word/write_word + apply_atomic, hand-inlined
            # (the bounds-checked slow path keeps the exact errors).
            if addr % 4 == 0 and 0 <= addr < self._cap:
                cur = self._words.get(addr, 0)
            else:
                cur = self.backing.read_word(addr)
            if op is AtomicOp.CAS:
                new = operand if cur == compare else cur
            elif op is AtomicOp.ADD:
                new = cur + operand
            else:
                _, new = apply_atomic(op, cur, operand, compare)
            old = cur
            new &= 0xFFFFFFFF
            if new & 0x80000000:
                new -= 0x100000000
            if addr % 4 == 0 and 0 <= addr < self._cap:
                self._words[addr] = new
            else:
                self.backing.write_word(addr, new)
            # Keep the SM self-consistent: refresh any local shadow.
            if addr in sm.local:
                sm.local[addr][0] = new
        else:
            local_entry = sm.local.get(addr)
            if local_entry is not None:
                cur = local_entry[0]
            else:
                cur = self.backing.read_word(addr)
            if op is AtomicOp.CAS:
                new = operand if cur == compare else cur
            elif op is AtomicOp.ADD:
                new = cur + operand
            else:
                _, new = apply_atomic(op, cur, operand, compare)
            old = cur
            new &= 0xFFFFFFFF
            if new & 0x80000000:
                new -= 0x100000000
            sm.local[addr] = [new, warp_uid]
        # _invalidate_l1, hand-inlined (sm already resolved).
        line = addr - (addr % self.line_size)
        l1 = sm.l1
        cache_set = l1._sets.get((line // l1.line_size) % l1.num_sets)
        if cache_set is not None:
            cache_set.pop(line, None)
        sm.l1_data.pop(line, None)
        return old

    # ------------------------------------------------------------------
    # Fences and barriers
    # ------------------------------------------------------------------
    def fence(self, sm_id: int, warp_uid: int, device_scope: bool) -> List[int]:
        """Drain per the fence's scope; returns the drained addresses.

        SM-local entries always predate the warp's current write-buffer
        contents (an atomic or drain created them before any still-buffered
        store), so on a device fence they are published *first* — the
        buffer's newer values must win at the backing store.
        """
        drained: List[int] = []
        if device_scope:
            # Publish everything this warp previously made block-visible.
            local = self._sms[sm_id].local
            owned = [addr for addr, entry in local.items() if entry[1] == warp_uid]
            for addr in owned:
                value = local.pop(addr)[0]
                self._drain_entry_to_backing(sm_id, addr, value)
                drained.append(addr)
        buf = self._wb.get(warp_uid)
        if buf:
            entries = list(buf.items())
            buf.clear()
            for addr, value in entries:
                if device_scope:
                    self._drain_entry_to_backing(sm_id, addr, value)
                else:
                    self._drain_entry_to_local(sm_id, warp_uid, addr, value)
                drained.append(addr)
        return drained

    def barrier_drain(self, sm_id: int, warp_uids: List[int]) -> None:
        """A barrier implies block-scope visibility for every participant."""
        for warp_uid in warp_uids:
            self.fence(sm_id, warp_uid, device_scope=False)

    # ------------------------------------------------------------------
    # Kernel teardown
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Drain every buffer and local view to backing (kernel boundary).

        Kernel termination is a device-wide synchronization point.  The
        SM-local views drain before the write buffers (their entries are
        older than anything still buffered); within that, draining order
        is deterministic (SM index, then warp uid, then insertion order),
        so conflicting SM-local values — the footprint of a manifested
        scoped race — resolve last-writer-wins in that order.
        """
        for sm_id, sm in enumerate(self._sms):
            for addr in list(sm.local):
                value = sm.local.pop(addr)[0]
                self._drain_entry_to_backing(sm_id, addr, value)
        for warp_uid in sorted(self._wb):
            buf = self._wb[warp_uid]
            sm_id = self._wb_sm[warp_uid]
            for addr, value in buf.items():
                self._drain_entry_to_backing(sm_id, addr, value)
            buf.clear()
        for sm in self._sms:
            sm.l1.flush()
            sm.l1_data.clear()

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def pending_writes(self, warp_uid: int) -> Dict[int, int]:
        return dict(self._wb.get(warp_uid, {}))

    def sm_local_view(self, sm_id: int) -> Dict[int, int]:
        return {addr: entry[0] for addr, entry in self._sms[sm_id].local.items()}
