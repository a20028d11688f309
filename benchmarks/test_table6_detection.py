"""Regenerate Table VI: races caught by each detector configuration.

Paper: 44 races present; the base design without metadata caching catches
all 44; ScoRD catches 43 (one false negative from metadata-cache
aliasing).  The reproduction asserts the same mechanism: the base design
catches everything, and ScoRD loses at most a couple of races to aliasing.
"""

from repro.experiments.table6 import run_table6


def test_table6(runner):
    result = run_table6(runner)
    print()
    print(result.render())
    totals = result.totals
    assert totals.present == 44
    # The base design (full per-granule metadata) misses nothing.
    assert totals.base_caught == 44
    # ScoRD's software cache may introduce a small number of false
    # negatives (the paper observed exactly one).
    assert totals.scord_caught >= 42
    assert totals.scord_caught <= 44
