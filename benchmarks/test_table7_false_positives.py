"""Regenerate Table VII: false positives vs tracking granularity.

Paper: the 4-byte base design and ScoRD report zero false positives on the
correctly synchronized applications; the 8/16-byte coarse-granularity
variants report many, worst for the graph applications.
"""

from repro.experiments.table7 import run_table7


def test_table7(runner):
    result = run_table7(runner)
    print()
    print(result.render())
    assert sum(result.false_positive_counts("base")) == 0
    assert sum(result.false_positive_counts("scord")) == 0
    coarse8 = sum(result.false_positive_counts("base8"))
    coarse16 = sum(result.false_positive_counts("base16"))
    assert coarse8 > 0
    assert coarse16 >= coarse8  # coarser tracking cannot reduce FPs here
