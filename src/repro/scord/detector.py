"""The ScoRD detection logic (paper §IV-A) and its timing model.

Check pipeline per global-memory access:

1. **Metadata fetch** — via the (optional) software cache.  A tag mismatch
   means the entry belongs to a different granule: detection is skipped and
   the entry is overwritten (possible false negative, never a false
   positive).
2. **Preliminary checks** (Table III) — initialization, program order,
   barrier separation.  Any hit ⇒ trivially race-free.
3. **Lockset check** (Table IV e/f) — taken when either the access's or the
   metadata's lock bloom filter is non-empty: an empty intersection is a
   race due to improper locking.
4. **Happens-before checks** (Table IV a–d) — otherwise: scoped-atomic
   races, missing/insufficient fences, and non-strong conflicting accesses.
5. **Metadata update** — the entry always records the current access.

Timing: the detector unit services checks at a fixed rate behind a finite
buffer.  L1 hits normally complete without waiting for the memory system,
so when the buffer is full they stall (the LHD overhead source); metadata
reads/updates are L2-side accesses that contend with data for L2 capacity
and DRAM bandwidth (the MD source); and detection adds payload to every
packet plus a detector packet for L1 hits (the NOC source).  Each source
can be disabled independently to reproduce the Fig. 10 breakdown.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.arch.detector_config import DetectorConfig, DetectorMode
from repro.common.counters import WrappingCounter
from repro.common.errors import ConfigError
from repro.common.stats import CounterBag
from repro.isa.ops import AtomicOp
from repro.isa.scopes import Scope
from repro.scord.fencefile import FenceFile
from repro.scord.interface import Access, AccessKind, BaseDetector
from repro.scord.locktable import LockTable
from repro.scord.metadata import INIT_WORD, MetadataStore
from repro.scord.races import RaceRecord, RaceReport, RaceScopeClass, RaceType
from repro.timing.resource import QueuedResource

_SCOPE_BLOCK_BIT = 0
_SCOPE_DEVICE_BIT = 1


class _Md:
    """Unpacked metadata fields (one entry, Fig. 7).

    ``unpack``/``pack`` hand-inline the METADATA_LAYOUT bit positions —
    this is the hottest path in the whole simulator (one round trip per
    global-memory access).  A unit test asserts equivalence with the
    declarative layout.
    """

    __slots__ = (
        "lane", "tag", "block", "warp", "devfence", "blkfence", "barrier",
        "modified", "blkshared", "devshared", "isatom", "scope", "strong",
        "bloom",
    )

    def __init__(self, lane, tag, block, warp, devfence, blkfence, barrier,
                 modified, blkshared, devshared, isatom, scope, strong,
                 bloom):
        self.lane = lane
        self.tag = tag
        self.block = block
        self.warp = warp
        self.devfence = devfence
        self.blkfence = blkfence
        self.barrier = barrier
        self.modified = modified
        self.blkshared = blkshared
        self.devshared = devshared
        self.isatom = isatom
        self.scope = scope
        self.strong = strong
        self.bloom = bloom

    @classmethod
    def unpack(cls, word: int) -> "_Md":
        return cls(
            (word >> 58) & 0x1F,
            (word >> 54) & 0xF,
            (word >> 47) & 0x7F,
            (word >> 42) & 0x1F,
            (word >> 36) & 0x3F,
            (word >> 30) & 0x3F,
            (word >> 22) & 0xFF,
            (word >> 21) & 1,
            (word >> 20) & 1,
            (word >> 19) & 1,
            (word >> 18) & 1,
            (word >> 17) & 1,
            (word >> 16) & 1,
            word & 0xFFFF,
        )

    def pack(self) -> int:
        return (
            ((self.lane & 0x1F) << 58)
            | ((self.tag & 0xF) << 54)
            | ((self.block & 0x7F) << 47)
            | ((self.warp & 0x1F) << 42)
            | ((self.devfence & 0x3F) << 36)
            | ((self.blkfence & 0x3F) << 30)
            | ((self.barrier & 0xFF) << 22)
            | ((self.modified & 1) << 21)
            | ((self.blkshared & 1) << 20)
            | ((self.devshared & 1) << 19)
            | ((self.isatom & 1) << 18)
            | ((self.scope & 1) << 17)
            | ((self.strong & 1) << 16)
            | (self.bloom & 0xFFFF)
        )


class ScoRDDetector(BaseDetector):
    """The ScoRD hardware: metadata, fence file, lock tables, check logic."""

    def __init__(self, config: DetectorConfig, device_capacity_bytes: int):
        super().__init__()
        if config.mode is not DetectorMode.SCORD:
            raise ConfigError("ScoRDDetector requires DetectorMode.SCORD")
        self.config = config
        self.metadata = MetadataStore(config, device_capacity_bytes)
        self.fence_file = FenceFile(config.fence_id_bits)
        # Direct view of the fence file's (block, warp) -> counters dict for
        # the per-access checks; refreshed when the fence file is replaced.
        self._ff_entries = self.fence_file._entries
        self._lock_tables: Dict[Tuple[int, int], LockTable] = {}
        self._barriers: Dict[int, WrappingCounter] = {}
        self._port = QueuedResource("detector")
        self._fabric = None
        self._stats = CounterBag()
        self._c = self._stats.counters()
        self._md_region_base = self.metadata.region_base
        # Metadata-store hoists for the inlined lookup/store (the dict is
        # cleared in place by metadata.reset(), so its identity is stable).
        self._md_entries = self.metadata._entries
        self._md_gran = self.metadata.granularity
        self._md_cached = self.metadata.cached
        self._md_ratio = self.metadata.cache_ratio
        self._md_n = self.metadata.num_entries
        self._md_tagmask = self.metadata._tag_mask
        self._block_id_mask = (1 << config.block_id_bits) - 1
        self._warp_id_mask = (1 << config.warp_id_bits) - 1
        self._lane_mask = (1 << config.lane_id_bits) - 1
        # Hot-path config hoists (attribute walks cost on every access).
        self._acqrel = config.acquire_release_extension
        self._ignore_atomic_scopes = config.ignore_atomic_scopes
        self._its = config.its_support
        self._checks_per_cycle = config.detector_checks_per_cycle
        self._service_cycles = config.detector_service_cycles
        self._model_md = config.model_md
        self._model_lhd = config.model_lhd
        # One-entry (block, warp) -> LockTable memo: consecutive lanes of a
        # coalesced warp access hit the same table.
        self._lt_bid = -1
        self._lt_wid = -1
        self._lt_table: Optional[LockTable] = None
        # The detector sustains `detector_checks_per_cycle`; its input
        # buffer absorbs this many cycles of backlog before the L1-hit
        # path must stall.
        self._buffer_cycles = max(
            1,
            config.detector_buffer_entries // config.detector_checks_per_cycle,
        )
        self._check_counter = 0
        # Metadata entries are read-modify-written once per (cycle, entry),
        # not once per lane: a coalesced warp access covers one entry.
        self._last_md_now = -1
        self._last_md_index = -1
        # Optional forensics sink: a list the race branch appends one
        # provenance dict per declared race to (hardware state at the
        # verdict — metadata word fields, fence counters, barrier phase).
        # None (the default) costs one attribute test on the *race* path
        # only; the non-race path never touches it.
        self.provenance = None
        if config.model_noc:
            self.noc_packet_overhead = config.packet_overhead_bytes

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, fabric, stats: CounterBag) -> None:
        self._fabric = fabric
        self._stats = stats
        self._c = stats.counters()
        # Hot-path hoists for the inlined metadata-traffic model: the
        # detector sits at the L2, so its read-modify-write goes straight
        # to a bank + the L2 tags (fabric.access_l2, hand-inlined below).
        self._l2_banks = fabric.l2_banks
        self._l2_linesz = fabric._line
        self._l2_nbanks = fabric._nbanks
        self._l2_hit_lat = fabric._l2_hit_lat
        self._l2 = fabric.l2
        self._l2_sets = fabric.l2._sets
        self._l2_assoc = fabric.l2.assoc
        self._l2_nsets = fabric.l2.num_sets
        self._l2_c = fabric.l2._c
        self._l2_md_keys = fabric.l2._keys_for("metadata")
        self._dram_access = fabric.dram.access

    def _lock_table(self, block_id: int, warp_id: int) -> LockTable:
        if block_id == self._lt_bid and warp_id == self._lt_wid:
            return self._lt_table
        key = (block_id, warp_id)
        table = self._lock_tables.get(key)
        if table is None:
            table = LockTable(
                self.config.lock_table_entries,
                self.config.lock_hash_bits,
                self.config.bloom_bits,
            )
            self._lock_tables[key] = table
        self._lt_bid = block_id
        self._lt_wid = warp_id
        self._lt_table = table
        return table

    def _barrier_counter(self, block_id: int) -> WrappingCounter:
        counter = self._barriers.get(block_id)
        if counter is None:
            counter = WrappingCounter(self.config.barrier_id_bits)
            self._barriers[block_id] = counter
        return counter

    # ------------------------------------------------------------------
    # Non-memory events
    # ------------------------------------------------------------------
    def on_fence(self, now: int, block_id: int, warp_id: int, scope: Scope) -> None:
        if self.config.ignore_fence_scopes:
            # Scope-blind comparator (HAccRG-like): any fence is treated
            # as ordering device-wide.
            scope = Scope.DEVICE
        self.fence_file.on_fence(
            block_id & self._block_id_mask, warp_id & self._warp_id_mask, scope
        )
        self._lock_table(block_id, warp_id).on_fence(scope)

    def on_barrier(self, now: int, block_id: int) -> None:
        self._barrier_counter(block_id).increment()

    # ------------------------------------------------------------------
    # The access pipeline
    # ------------------------------------------------------------------
    def on_access(self, now: int, access: Access) -> int:
        # One flat body per global-memory access: the former _check,
        # _updated_word, metadata.lookup4 and _timing helpers are all
        # hand-inlined here so the field extractions and fence/barrier
        # probes are shared instead of recomputed per helper.  The
        # differential-equivalence tier pins bit-identity with the
        # multi-method original.
        c = self._c
        try:
            c["detector.checks"] += 1
        except KeyError:
            c["detector.checks"] = 1
        if access.sync_op is not None and self._acqrel:
            # §VI extension: explicit acquire/release are synchronization
            # accesses — they behave like scoped atomics for the checks
            # (two device-scope sync accesses on one variable do not race;
            # a block-scope one seen from another block does).  A release
            # additionally ordered the warp's prior writes, which the
            # engine reported through on_fence.  (The Access is ours to
            # mutate: the pipeline builds a fresh one per lane.)
            access.kind = AccessKind.ATOMIC
        if self._ignore_atomic_scopes and access.scope is Scope.BLOCK:
            # Barracuda/CURD-like comparator: atomic scopes are ignored, so
            # a block-scope atomic is (incorrectly) treated as device-wide.
            access.scope = Scope.DEVICE
        # Field hoists (slot reads repeat below; the mutations above are
        # done, so the locals are stable).
        a_bid = access.block_id
        a_wid = access.warp_id
        a_addr = access.addr
        a_lane = access.lane_id
        a_strong = access.strong
        a_scope = access.scope
        a_atomic = access.atomic_op
        hw_block = a_bid & self._block_id_mask
        hw_warp = a_wid & self._warp_id_mask
        # _lock_table + the cached bloom summary, hand-inlined.
        if a_bid == self._lt_bid and a_wid == self._lt_wid:
            table = self._lt_table
        else:
            key = (a_bid, a_wid)
            table = self._lock_tables.get(key)
            if table is None:
                table = LockTable(
                    self.config.lock_table_entries,
                    self.config.lock_hash_bits,
                    self.config.bloom_bits,
                )
                self._lock_tables[key] = table
            self._lt_bid = a_bid
            self._lt_wid = a_wid
            self._lt_table = table
        bloom = table._bloom
        if bloom is None:
            bloom = table.active_bloom()

        # --- metadata.lookup4, hand-inlined --------------------------------
        md = self.metadata
        md.lookups += 1
        granule = a_addr // self._md_gran
        if self._md_cached:
            index = (granule // self._md_ratio) % self._md_n
            tag = (granule % self._md_ratio) & self._md_tagmask
            try:
                word = self._md_entries[index]
            except KeyError:
                word = INIT_WORD
                tag_ok = True
            else:
                if ((word >> 54) & 0xF) != tag:
                    md.tag_misses += 1
                    word = INIT_WORD
                    tag_ok = False
                else:
                    tag_ok = True
        else:
            index = granule % self._md_n
            tag = 0
            try:
                word = self._md_entries[index]
            except KeyError:
                word = INIT_WORD
            tag_ok = True

        kind = access.kind
        update = True
        if tag_ok:
            # --- Checks (Tables III and IV; the former _check) -------------
            md_block = (word >> 47) & 0x7F
            md_warp = (word >> 42) & 0x1F
            md_modified = (word >> 21) & 1
            md_blkshared = (word >> 20) & 1
            md_devshared = (word >> 19) & 1
            # _barrier_counter inlined: a missing counter reads as 0, and
            # creating it lazily on a read would store the same 0.  (The
            # probe is pure, so hoisting it ahead of the Table III
            # conditions changes nothing; the update path below reuses it.)
            bc = self._barriers.get(a_bid)
            barrier_now = bc.value if bc is not None else 0
            race_type = None
            if md_modified and md_blkshared and md_devshared:
                # (a) first access since (re-)initialization.
                try:
                    c["detector.prelim.init"] += 1
                except KeyError:
                    c["detector.prelim.init"] = 1
            elif (
                md_warp == hw_warp
                and md_block == hw_block
                and not md_blkshared
                and not md_devshared
                and (not self._its or ((word >> 58) & 0x1F) == a_lane)
            ):
                # (b) program order: the same warp performed every access so
                # far.  With the ITS extension (§VI), lanes of a diverged
                # warp are independent threads, so program order is
                # lane-granular.
                try:
                    c["detector.prelim.program_order"] += 1
                except KeyError:
                    c["detector.prelim.program_order"] = 1
            elif (
                md_block == hw_block
                and ((word >> 22) & 0xFF) != barrier_now
                and not md_devshared
            ):
                # (c) a barrier separates the accesses (same block, not
                # shared wider).
                try:
                    c["detector.prelim.barrier"] += 1
                except KeyError:
                    c["detector.prelim.barrier"] = 1
            else:
                md_bloom = word & 0xFFFF
                if kind is not AccessKind.ATOMIC and (md_bloom or bloom):
                    # Lockset check (Table IV e/f): triggered when either
                    # bloom filter is non-empty; applies to plain
                    # loads/stores (atomics are the lock-manipulation
                    # operations).
                    if kind is AccessKind.LOAD:
                        if md_modified and (md_bloom & bloom) == 0:
                            race_type = RaceType.LOCK
                    elif (md_bloom & bloom) == 0:
                        race_type = RaceType.LOCK
                else:
                    # Happens-before checks (Table IV a-d).
                    md_isatom = (word >> 18) & 1
                    md_scope = (word >> 17) & 1
                    hb_done = False
                    is_write = True
                    if kind is AccessKind.ATOMIC:
                        if md_isatom:
                            # (d) both accesses atomic: a block-scope atomic
                            # from a different block cannot synchronize with
                            # this one.
                            if md_scope == _SCOPE_BLOCK_BIT and md_block != hw_block:
                                race_type = RaceType.SCOPED_ATOMIC
                            hb_done = True
                        # else: previous access was a plain load/store; the
                        # atomic behaves like a (strong) store for the fence
                        # checks below.
                    elif md_isatom and md_scope == _SCOPE_BLOCK_BIT and md_block != hw_block:
                        # Plain load/store after an atomic: a block-scope
                        # atomic from a different block leaves this access
                        # unsynchronized (cond. d).
                        race_type = RaceType.SCOPED_ATOMIC
                        hb_done = True
                    else:
                        is_write = kind is not AccessKind.LOAD
                    if not hb_done and (is_write or md_modified):
                        # Table IV (a)-(c): fence sufficiency and strong
                        # accesses.  (Load after load: no conflict.)
                        # fence_file.ids, hand-inlined (absent entries read
                        # as (0, 0), the same values a lazily-created
                        # counter pair would hold).
                        ff_entry = self._ff_entries.get((md_block, md_warp))
                        if ff_entry is not None:
                            prev_blk_fence = ff_entry[0].value
                            prev_dev_fence = ff_entry[1].value
                        else:
                            prev_blk_fence = prev_dev_fence = 0
                        md_strong = (word >> 16) & 1
                        if md_block == hw_block:
                            if md_warp == hw_warp and (
                                not self._its
                                or ((word >> 58) & 0x1F) == a_lane
                            ):
                                # Same warp; shared flags forced us past the
                                # program-order fast path, but the last
                                # access is still program-ordered (same
                                # lane, under ITS).
                                pass
                            elif (
                                ((word >> 30) & 0x3F) == prev_blk_fence
                                and ((word >> 36) & 0x3F) == prev_dev_fence
                            ):
                                # (a) block-scope conflict: any fence by the
                                # previous accessor orders it.
                                race_type = RaceType.MISSING_BLOCK_FENCE
                            elif not md_strong or not a_strong:
                                # (c) fences only order strong operations.
                                race_type = RaceType.NOT_STRONG
                        elif ((word >> 36) & 0x3F) == prev_dev_fence:
                            # (b) device-scope conflict: only a device-scope
                            # fence helps.  If a block-scope fence was
                            # executed instead, this is precisely a scoped
                            # race due to an insufficiently-scoped fence.
                            if ((word >> 30) & 0x3F) != prev_blk_fence:
                                race_type = RaceType.SCOPED_FENCE
                            else:
                                race_type = RaceType.MISSING_DEVICE_FENCE
                        elif not md_strong or not a_strong:
                            race_type = RaceType.NOT_STRONG
            if race_type is not None:
                self.report.add(
                    RaceRecord(
                        race_type=race_type,
                        scope_class=(
                            RaceScopeClass.BLOCK
                            if md_block == hw_block
                            else RaceScopeClass.DEVICE
                        ),
                        addr=a_addr,
                        pc=access.pc,
                        cycle=now,
                        block_id=a_bid,
                        warp_id=a_wid,
                        prev_block_id=md_block,
                        prev_warp_id=md_warp,
                        array_name=access.array_name,
                    )
                )
                try:
                    c["detector.races"] += 1
                except KeyError:
                    c["detector.races"] = 1
                prov = self.provenance
                if prov is not None:
                    # Forensics provenance: the hardware state the verdict
                    # was computed from, one entry per declared race (same
                    # order as report._records).  Off the verdict path this
                    # costs nothing.
                    ff_cur = self._ff_entries.get((hw_block, hw_warp))
                    ff_prev = self._ff_entries.get((md_block, md_warp))
                    prov.append({
                        "race_type": race_type.value,
                        "cycle": now,
                        "addr": a_addr,
                        "array": access.array_name,
                        "current": {
                            "block": a_bid,
                            "warp": a_wid,
                            "lane": a_lane,
                            "kind": kind.value,
                            "strong": bool(a_strong),
                            "atomic": kind is AccessKind.ATOMIC,
                            "scope": (
                                a_scope.name.lower()
                                if kind is AccessKind.ATOMIC and a_scope
                                else None
                            ),
                            "pc": list(access.pc),
                            "lock_bloom": bloom,
                            "blk_fence": ff_cur[0].value if ff_cur else 0,
                            "dev_fence": ff_cur[1].value if ff_cur else 0,
                        },
                        "previous": {
                            "block": md_block,
                            "warp": md_warp,
                            "lane": (word >> 58) & 0x1F,
                            "write": bool(md_modified),
                            "strong": bool((word >> 16) & 1),
                            "atomic": bool((word >> 18) & 1),
                            "scope": (
                                ("block" if ((word >> 17) & 1)
                                 == _SCOPE_BLOCK_BIT else "device")
                                if (word >> 18) & 1 else None
                            ),
                            "lock_bloom": word & 0xFFFF,
                            "blk_fence_at_access": (word >> 30) & 0x3F,
                            "dev_fence_at_access": (word >> 36) & 0x3F,
                            "blk_fence_now": ff_prev[0].value if ff_prev else 0,
                            "dev_fence_now": ff_prev[1].value if ff_prev else 0,
                            "barrier_at_access": (word >> 22) & 0xFF,
                        },
                        "barrier_now": barrier_now,
                        "block_shared": bool(md_blkshared),
                        "device_shared": bool(md_devshared),
                    })
        else:
            # Software-cache tag mismatch: the slot holds a *neighbouring*
            # granule's metadata.  No check is possible — a race here can
            # be missed (the Table VI false-negative mechanism).
            try:
                c["detector.md_cache_skips"] += 1
            except KeyError:
                c["detector.md_cache_skips"] = 1
            if kind is AccessKind.LOAD:
                # Loads do not take ownership of an aliased entry: a read
                # scan over a 16-word group would otherwise re-tag the
                # entry on its first word and blind every later check.
                # Writes are what races are made of, so the last-writer
                # information is the part worth keeping.
                update = False

        if update:
            # --- Metadata update (always happens, §IV-A; the former
            # _updated_word, sharing the extractions above) ----------------
            if not tag_ok:
                # Tag miss overwrites with INIT_WORD-derived fields (the
                # lookup already substituted INIT_WORD for `word`).
                md_block = (word >> 47) & 0x7F
                md_warp = (word >> 42) & 0x1F
                md_modified = (word >> 21) & 1
                md_blkshared = (word >> 20) & 1
                md_devshared = (word >> 19) & 1
                bc = self._barriers.get(a_bid)
                barrier_now = bc.value if bc is not None else 0
            is_write = kind is not AccessKind.LOAD
            # `modified` records whether the LAST access was a write.  This
            # is what makes the no-false-positive claim hold: after "store,
            # fence, load-by-warp-A", a load by warp B conflicts with
            # nothing (loads don't race with loads), so the entry must not
            # still advertise the old store.
            blkshared = md_blkshared
            devshared = md_devshared
            if md_modified and blkshared and devshared:
                # was-init: leave the initialized state behind.
                blkshared = 0
                devshared = 0
                strong = 1 if a_strong else 0
            else:
                if not is_write:
                    if md_block != hw_block:
                        devshared = 1
                    elif md_warp != hw_warp:
                        blkshared = 1
                # The Strong bit survives only while *every* access is
                # strong.
                strong = (word >> 16) & 1 if a_strong else 0
            ff_entry = self._ff_entries.get((hw_block, hw_warp))
            if ff_entry is not None:
                blk_fence = ff_entry[0].value
                dev_fence = ff_entry[1].value
            else:
                blk_fence = dev_fence = 0
            if kind is AccessKind.ATOMIC:
                isatom = 1
                scope_bit = (
                    _SCOPE_DEVICE_BIT
                    if a_scope is not Scope.BLOCK
                    else _SCOPE_BLOCK_BIT
                )
            else:
                isatom = 0
                scope_bit = 0
            self._md_entries[index] = (
                ((a_lane & self._lane_mask & 0x1F) << 58)
                | ((tag & 0xF) << 54)
                | ((hw_block & 0x7F) << 47)
                | ((hw_warp & 0x1F) << 42)
                | ((dev_fence & 0x3F) << 36)
                | ((blk_fence & 0x3F) << 30)
                | ((barrier_now & 0xFF) << 22)
                | ((1 if is_write else 0) << 21)
                | (blkshared << 20)
                | (devshared << 19)
                | (isatom << 18)
                | (scope_bit << 17)
                | (strong << 16)
                | (bloom & 0xFFFF)
            )
            # Lock inference happens at the SM as part of executing the
            # atomic; it is ordered after this access's own bloom was
            # formed.  (Tag-miss loads skipped above never carry an
            # atomic_op, so gating this on `update` changes nothing.)
            if kind is AccessKind.ATOMIC and a_atomic is not None:
                if a_atomic is AtomicOp.CAS:
                    table.on_cas(a_addr, a_scope)
                elif a_atomic is AtomicOp.EXCH:
                    table.on_exch(a_addr, a_scope)

        # --- Timing (the former _timing helper, hand-inlined) -----------
        if self._fabric is None:
            return 0
        self._check_counter += 1
        occupancy = 1 if self._check_counter % self._checks_per_cycle == 0 else 0
        port = self._port
        next_free = port.next_free
        start = now if now > next_free else next_free
        port.next_free = start + occupancy
        port.busy_cycles += occupancy
        port.requests += 1
        serviced = start + self._service_cycles

        if self._model_md:
            # Metadata read-modify-write at the L2 side: contends for L2
            # capacity/banks and DRAM bandwidth, off the warp's critical
            # path.  A coalesced warp access covers one entry; only the
            # first lane of the (cycle, entry) pair generates traffic.
            if now != self._last_md_now or index != self._last_md_index:
                self._last_md_now = now
                self._last_md_index = index
                md_addr = self._md_region_base + index * 8
                line = md_addr - (md_addr % self._l2_linesz)
                bank = self._l2_banks[(line // self._l2_linesz) % self._l2_nbanks]
                next_free = bank.next_free
                bank_start = serviced if serviced > next_free else next_free
                bank.next_free = bank_start + 2  # _L2_BANK_OCCUPANCY
                bank.busy_cycles += 2
                bank.requests += 1
                answered = bank_start + self._l2_hit_lat
                set_index = (line // self._l2_linesz) % self._l2_nsets
                cache_set = self._l2_sets.get(set_index)
                if cache_set is None:
                    cache_set = OrderedDict()
                    self._l2_sets[set_index] = cache_set
                entry = cache_set.get(line)
                l2c = self._l2_c
                if entry is not None:
                    cache_set.move_to_end(line)
                    entry[0] = True
                    hit_key = self._l2_md_keys[0]
                    try:
                        l2c[hit_key] += 1
                    except KeyError:
                        l2c[hit_key] = 1
                else:
                    miss_key = self._l2_md_keys[1]
                    try:
                        l2c[miss_key] += 1
                    except KeyError:
                        l2c[miss_key] = 1
                    if len(cache_set) >= self._l2_assoc:
                        victim_line, (victim_dirty, victim_class) = cache_set.popitem(
                            last=False
                        )
                        if victim_dirty:
                            wb_key = self._l2._keys_for(victim_class)[2]
                            try:
                                l2c[wb_key] += 1
                            except KeyError:
                                l2c[wb_key] = 1
                            self._dram_access(answered, victim_line, victim_class)
                    cache_set[line] = [True, "metadata"]
                    self._dram_access(answered, md_addr, "metadata")
                try:
                    c["detector.md_accesses"] += 1
                except KeyError:
                    c["detector.md_accesses"] = 1

        if access.l1_hit and self._model_lhd:
            backlog = port.next_free - now
            if backlog > self._buffer_cycles:
                stall = backlog - self._buffer_cycles
                try:
                    c["detector.lhd_stall_cycles"] += stall
                except KeyError:
                    c["detector.lhd_stall_cycles"] = stall
                return stall
        return 0

    # ------------------------------------------------------------------
    def on_kernel_boundary(self) -> None:
        self.metadata.reset()
        self.fence_file = FenceFile(self.config.fence_id_bits)
        self._ff_entries = self.fence_file._entries
        self._lock_tables.clear()
        self._lt_bid = -1
        self._lt_wid = -1
        self._lt_table = None
        self._barriers.clear()

    def finalize(self) -> None:
        pass

    def telemetry_snapshot(self) -> dict:
        """Gauges over the hardware structures (metrics registry hook).

        Exposes what the paper's evaluation keeps projecting: metadata
        residency/occupancy, metadata-cache effectiveness (tag hit
        rate), and the lock tables' Bloom-summary fill — all as
        ``scord.*`` metrics.
        """
        out = super().telemetry_snapshot()
        md = self.metadata
        out["scord.md.entries"] = float(md.num_entries)
        out["scord.md.resident_entries"] = float(md.resident_entries)
        if md.num_entries:
            out["scord.md.occupancy"] = round(
                md.resident_entries / md.num_entries, 6
            )
        out["scord.md.lookups"] = float(md.lookups)
        out["scord.md.tag_misses"] = float(md.tag_misses)
        if md.lookups:
            out["scord.md.tag_hit_rate"] = round(
                1.0 - md.tag_misses / md.lookups, 6
            )
        tables = list(self._lock_tables.values())
        out["scord.locktable.tables"] = float(len(tables))
        if tables:
            held = sum(t.held_count() for t in tables)
            pending = sum(t.pending_count() for t in tables)
            bits = self.config.bloom_bits
            fill = sum(
                bin(t.active_bloom()).count("1") / bits for t in tables
            ) / len(tables)
            out["scord.locktable.held"] = float(held)
            out["scord.locktable.pending"] = float(pending)
            out["scord.bloom.fill"] = round(fill, 6)
        return out

    # Introspection helpers (tests/experiments).
    @property
    def md_cache_skips(self) -> int:
        return self.metadata.tag_misses
