"""Regenerate Table II: the application inventory."""

from repro.experiments.table2 import run_table2
from repro.scor.apps.registry import total_races_present


def test_table2():
    output = run_table2()
    print()
    print(output)
    assert total_races_present() == 26  # the paper's 26 unique races
    for name in ("MM", "RED", "R110", "GCOL", "GCON", "1DC", "UTS"):
        assert name in output
