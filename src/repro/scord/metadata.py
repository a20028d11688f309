"""ScoRD's in-memory metadata (Fig. 7) and the software metadata cache.

Every tracked granule of device memory (4 bytes by default; 8/16 for the
Table VII coarse-granularity baselines) has one 8-byte entry:

====  =========  =====================================================
bits  field      meaning
====  =========  =====================================================
63-58 (unused)
57-54 tag        disambiguates aliasing granules in the software cache
53-47 block      threadblock ID of the last accessor
46-42 warp       warp ID (within the block) of the last accessor
41-36 devfence   device-scope fence ID of the last accessor at access time
35-30 blkfence   block-scope fence ID of the last accessor at access time
29-22 barrier    barrier ID of the last accessor's block at access time
21    modified   a store/atomic has touched the granule since (re-)init
20    blkshared  read by >1 warp of one block since (re-)init
19    devshared  read by >1 block since (re-)init
18    isatom     the last access was an atomic
17    scope      scope of that atomic (0 = block, 1 = device)
16    strong     all accesses since (re-)init were strong (volatile/atomic)
15-0  bloom      lock bloom filter of the last accessor
====  =========  =====================================================

At boot, every entry is in the *initialized* state: ``modified``,
``blkshared`` and ``devshared`` all set (Table III condition (a)).

With the software cache enabled (§IV-B), only one entry exists per
``cache_ratio`` granules, direct-mapped, and the 4-bit tag identifies which
granule currently owns it.  A tag mismatch is a metadata-cache miss: the
access is **not** checked (possible false negative, never a false positive)
and the entry is overwritten with the current access's information.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.arch.detector_config import DetectorConfig
from repro.common.bitfield import BitStruct
from repro.common.errors import ConfigError

METADATA_ENTRY_BYTES = 8

METADATA_LAYOUT = BitStruct(
    64,
    [
        # [62:58] hold the accessing lane for the §VI ITS extension (the
        # paper stores a ThreadID in the "currently unused" bits); bit 63
        # stays unused.
        ("lane", 62, 58),
        ("tag", 57, 54),
        ("block", 53, 47),
        ("warp", 46, 42),
        ("devfence", 41, 36),
        ("blkfence", 35, 30),
        ("barrier", 29, 22),
        ("modified", 21, 21),
        ("blkshared", 20, 20),
        ("devshared", 19, 19),
        ("isatom", 18, 18),
        ("scope", 17, 17),
        ("strong", 16, 16),
        ("bloom", 15, 0),
    ],
)

# The boot/initialized state: modified & blkshared & devshared all set.
INIT_WORD = METADATA_LAYOUT.pack(modified=1, blkshared=1, devshared=1)


@dataclasses.dataclass
class Lookup:
    """Result of a metadata lookup for one access."""

    index: int  # entry index (for timing: where the 8B entry lives)
    word: int  # packed 64-bit entry content
    tag_ok: bool  # False = software-cache tag mismatch (skip detection)
    tag: int  # the tag the current access's granule should carry


class MetadataStore:
    """The metadata region, with or without the software cache."""

    def __init__(self, config: DetectorConfig, device_capacity_bytes: int):
        if device_capacity_bytes <= 0:
            raise ConfigError("device capacity must be positive")
        self.config = config
        self.granularity = config.granularity_bytes
        self.cached = config.metadata_cache
        self.cache_ratio = config.cache_ratio if self.cached else 1
        total_granules = -(-device_capacity_bytes // self.granularity)
        self.num_entries = max(1, -(-total_granules // self.cache_ratio))
        self._tag_mask = (1 << config.tag_bits) - 1
        # Sparse entry storage; absent = still in the boot INIT state.
        self._entries: Dict[int, int] = {}
        # The synthetic address range metadata occupies for timing purposes
        # (a contiguous physical region set aside at boot, §IV).
        self.region_base = device_capacity_bytes
        self.region_bytes = self.num_entries * METADATA_ENTRY_BYTES
        # Accounting.
        self.tag_misses = 0
        self.lookups = 0

    # ------------------------------------------------------------------
    def map_addr(self, addr: int) -> Tuple[int, int]:
        """Map a data byte address to ``(entry_index, expected_tag)``.

        With the software cache, one entry serves ``cache_ratio``
        *consecutive* granules ("one metadata entry for every 16th 4-byte
        segment", §IV-B): ``index = granule // ratio`` and the tag is the
        granule's position within its group — which is exactly why the tag
        field is 4 bits for the default ratio of 16.  This grouping is what
        delivers the paper's "only 1/16th of unique metadata entries"
        traffic reduction (§V), and it is also the false-negative
        mechanism: two *nearby* addresses accessed concurrently evict each
        other's metadata.
        """
        granule = addr // self.granularity
        if not self.cached:
            return granule % self.num_entries, 0
        index = (granule // self.cache_ratio) % self.num_entries
        tag = (granule % self.cache_ratio) & self._tag_mask
        return index, tag

    # ------------------------------------------------------------------
    def lookup4(self, addr: int) -> Tuple[int, int, bool, int]:
        """Hot-path lookup: ``(index, word, tag_ok, tag)`` as a plain tuple.

        Same contract as :meth:`lookup` without materializing a
        :class:`Lookup` — the detector calls this once per global-memory
        access.  ``map_addr`` and the layout's tag field (bits 57-54) are
        hand-inlined; unit tests pin the equivalence.
        """
        self.lookups += 1
        granule = addr // self.granularity
        if not self.cached:
            index = granule % self.num_entries
            word = self._entries.get(index)
            if word is None:
                return index, INIT_WORD, True, 0
            return index, word, True, 0
        index = (granule // self.cache_ratio) % self.num_entries
        tag = (granule % self.cache_ratio) & self._tag_mask
        word = self._entries.get(index)
        if word is None:
            return index, INIT_WORD, True, tag
        if ((word >> 54) & 0xF) != tag:
            self.tag_misses += 1
            return index, INIT_WORD, False, tag
        return index, word, True, tag

    def lookup(self, addr: int) -> Lookup:
        """Fetch the metadata entry covering *addr*.

        ``tag_ok`` is False when the software cache currently holds a
        different granule's metadata in this slot.  Entries never written
        are in the INIT state and match any tag (detection then takes the
        Table III condition-(a) fast path).
        """
        return Lookup(*self.lookup4(addr))

    def store(self, index: int, word: int) -> None:
        """Write back an updated (packed) entry."""
        self._entries[index] = word

    def reset(self) -> None:
        """Return every entry to the boot INIT state."""
        self._entries.clear()
        self.tag_misses = 0
        self.lookups = 0

    # ------------------------------------------------------------------
    @property
    def resident_entries(self) -> int:
        """Entries that have left the INIT state (tests/diagnostics)."""
        return len(self._entries)
