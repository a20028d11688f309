"""Regenerate Table VIII: detector capability comparison, with live runs.

Beyond printing the paper's matrix, this benchmark demonstrates the rows:
the Barracuda-like model misses the scoped-atomic microbenchmark; the
fully scope-blind model also misses the scoped-fence one; ScoRD catches
both.
"""

from repro.arch.detector_config import DetectorConfig
from repro.experiments.table8 import run_table8
from repro.scord.races import RaceType
from repro.scor.micro.base import run_micro
from repro.scor.micro.registry import micro_by_name


def _demo():
    matrix = run_table8()
    atomic_micro = micro_by_name("atomic_block_scope_cross_block")
    fence_micro = micro_by_name("fence_block_scope_cross_block")
    results = {}
    for label, config in (
        ("scord", DetectorConfig.scord()),
        ("barracuda", DetectorConfig.barracuda_like()),
        ("blind", DetectorConfig.scope_blind()),
    ):
        atomic_types = {
            r.race_type
            for r in run_micro(atomic_micro, detector_config=config)
            .races.unique_races
        }
        fence_types = {
            r.race_type
            for r in run_micro(fence_micro, detector_config=config)
            .races.unique_races
        }
        results[label] = (atomic_types, fence_types)
    return matrix, results


def test_table8():
    matrix, results = _demo()
    print()
    print(matrix)
    assert RaceType.SCOPED_ATOMIC in results["scord"][0]
    assert RaceType.SCOPED_FENCE in results["scord"][1]
    assert RaceType.SCOPED_ATOMIC not in results["barracuda"][0]
    assert RaceType.SCOPED_FENCE in results["barracuda"][1]
    assert RaceType.SCOPED_ATOMIC not in results["blind"][0]
    assert RaceType.SCOPED_FENCE not in results["blind"][1]
