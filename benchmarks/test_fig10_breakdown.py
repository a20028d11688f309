"""Regenerate Figure 10: LHD / NOC / MD overhead breakdown.

Paper shape: MD and NOC dominate on average (47.3% and 36.2%), LHD is the
smallest component (16.5%); UTS shows no LHD because its volatile accesses
bypass the L1.
"""

from repro.experiments.fig10 import run_fig10


def test_fig10(runner):
    result = run_fig10(runner)
    print()
    print(result.render())
    for row in result.rows:
        total = row.lhd + row.noc + row.md
        assert total == 0.0 or abs(total - 1.0) < 1e-9, row.app
    averages = result.averages()
    # LHD is the smallest contributor on average, as in the paper.
    assert averages.lhd <= averages.noc
    assert averages.lhd <= averages.md
    # UTS: volatile accesses bypass the L1, so no L1-hit stalls.
    uts = next(row for row in result.rows if row.app == "UTS")
    assert uts.lhd < 0.05
