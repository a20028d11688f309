"""Regenerate Figure 9: DRAM accesses by traffic class, normalized.

Paper shape: without metadata caching, metadata DRAM accesses dominate and
also inflate data accesses through L2 contention; the software cache cuts
the metadata component to a small fraction.
"""

from repro.experiments.fig9 import run_fig9


def test_fig9(runner):
    result = run_fig9(runner)
    print()
    print(result.render())
    for row in result.rows:
        # The base design's metadata traffic is substantial...
        assert row.base_metadata > 0.5, row.app
        # ...and caching shrinks it by a large factor.
        assert row.scord_metadata < row.base_metadata / 3, row.app
        # Total traffic with ScoRD stays close to the no-detection run.
        assert row.scord_total < row.base_total, row.app
    average_base_md = sum(r.base_metadata for r in result.rows) / len(result.rows)
    average_scord_md = sum(r.scord_metadata for r in result.rows) / len(result.rows)
    assert average_scord_md < average_base_md / 5
