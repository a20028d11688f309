"""Regenerate Table VI: races caught by each detector configuration.

Paper: 44 races present; the base design without metadata caching catches
all 44; ScoRD catches 43 (one false negative from metadata-cache
aliasing).  The reproduction runs every app at the default input seed and
records 44/44/44: the aliasing miss needs another input (UTS at seed 10,
pinned by tests/test_scor/test_apps_races.py), so at the Table VI seed
ScoRD also catches UTS ``block_exch_global``.
"""

from repro.experiments.table6 import run_table6


def test_table6(runner):
    result = run_table6(runner)
    print()
    print(result.render())
    totals = result.totals
    assert totals.present == 44
    assert totals.base_caught == 44
    assert totals.scord_caught == 44
    uts = next(row for row in result.rows if row.workload == "UTS")
    assert "block_exch_global" not in uts.scord_missed
    assert any(
        detail.race == "block_exch_global" and detail.scord_caught
        for detail in uts.details
    )
