"""Regenerate Figure 11: sensitivity to L2 capacity and DRAM bandwidth.

Paper shape: ScoRD's relative overhead grows when the memory system is
constrained (metadata contends harder with data), with 1DC as the noted
exception.
"""

from repro.experiments.fig11 import run_fig11


def test_fig11(runner):
    result = run_fig11(runner)
    print()
    print(result.render())
    # The constrained-memory trend is visible in a subset of applications
    # (the paper itself records 1DC as an exception; in this scaled
    # reproduction the lock-heavy applications add timing noise that can
    # flip individual bars).  Require the trend in at least two workloads
    # and sane bounds everywhere.
    trend_apps = sum(
        1 for _, low, mid, _ in result.rows if low > mid + 0.05
    )
    assert trend_apps >= 2
    for app, low, mid, high in result.rows:
        for value in (low, mid, high):
            assert 0.8 < value < 4.0, app
