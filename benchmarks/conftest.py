"""Shared state for the paper-claim tests.

All exhibits draw from one session-scoped memoizing runner, exactly like
``scord-experiments all``: Fig. 9 reuses Fig. 8's simulations, Table VII
reuses the correct-config runs, and so on.  ``pytest benchmarks/``
therefore regenerates the paper's entire evaluation in a single process,
each exhibit computed once and checked against the paper's claims.
"""

import pytest

from repro.experiments.runner import Runner


@pytest.fixture(scope="session")
def runner() -> Runner:
    return Runner(verbose=False)
