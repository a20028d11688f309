"""Regenerate Figure 8: execution cycles normalized to no detection.

Paper shape: ScoRD averages ~1.35x; 1DC is the worst application; the base
design without metadata caching is uniformly at least as expensive as
ScoRD-with-caching.
"""

from repro.experiments.fig8 import run_fig8


def test_fig8(runner):
    result = run_fig8(runner)
    print()
    print(result.render())
    by_app = result.as_dict()

    # Detection always costs something; nothing runs faster than 1x by
    # more than scheduling noise.
    for app, (base, scord) in by_app.items():
        assert scord > 0.85, app
        assert base > 0.85, app

    # ScoRD's average overhead lands in the paper's neighbourhood.
    assert 1.1 <= result.scord_average <= 1.9

    # Metadata caching helps: on average the base design is clearly worse.
    assert result.base_average > result.scord_average + 0.15

    # 1DC is the most affected application (its atomic-per-op packets
    # make it hypersensitive to detection payload), as in the paper.
    scord_overheads = {app: scord for app, (_, scord) in by_app.items()}
    assert max(scord_overheads, key=scord_overheads.get) == "1DC"
