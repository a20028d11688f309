"""Ablation studies of ScoRD's design choices (DESIGN.md).

Not a paper exhibit — these quantify the trade-offs behind the paper's
fixed parameters: the 1/16 metadata cache ratio, the 4-entry lock table,
the 16-bit bloom filter, and the detector buffer depth.
"""

from repro.experiments.ablations import (
    run_bloom_ablation,
    run_buffer_ablation,
    run_cache_ratio_ablation,
    run_lock_table_ablation,
)
from repro.experiments.tables import render_table


def test_cache_ratio_ablation():
    rows = run_cache_ratio_ablation()
    print()
    print(render_table(
        "Ablation: metadata cache ratio",
        ["entries per", "memory overhead", "races caught"], rows,
    ))
    caught = {row[0]: row[2] for row in rows}
    full = caught["uncached"]
    # The paper's 1/16 design point keeps (nearly) full accuracy at 12.5%
    # overhead; coarser ratios start losing races.
    def count(value):
        return int(value.split("/")[0])

    assert count(caught["1/16"]) >= count(full) - 1
    assert count(caught["1/32"]) <= count(caught["1/16"])


def test_lock_table_ablation():
    rows = run_lock_table_ablation()
    print()
    print(render_table(
        "Ablation: lock-table entries per warp",
        ["entries", "FPs on correct apps", "lock races caught"], rows,
    ))
    fps = {row[0]: row[1] for row in rows}
    # Undersized tables evict held locks mid-critical-section and produce
    # lockset false positives; the paper's 4 entries are FP-free.
    assert fps[1] > 0
    assert fps[4] == 0
    assert fps[8] == 0


def test_bloom_ablation():
    rows = run_bloom_ablation()
    print()
    print(render_table(
        "Ablation: lock bloom width",
        ["bits", "lockset races caught", "FPs"], rows,
    ))
    # Bloom collisions can only hide races (false negatives), never
    # invent them (false positives).
    for _bits, _caught, fps in rows:
        assert fps == 0
    caught_2 = int(rows[0][1].split("/")[0])
    caught_16 = int(rows[-1][1].split("/")[0])
    assert caught_16 >= caught_2


def test_buffer_ablation():
    rows = run_buffer_ablation()
    print()
    print(render_table(
        "Ablation: detector buffer depth (RED)",
        ["entries", "cycles vs none", "LHD stall cycles"], rows,
    ))
    stalls = [row[2] for row in rows]
    # Deeper buffers can only absorb more backlog.
    assert stalls == sorted(stalls, reverse=True)
