"""Chaos recovery: workers die every N units, the campaign must not care.

The contract under test is the strongest one the pool makes: a campaign
whose workers are repeatedly SIGKILLed mid-unit completes with records
*bit-identical* to a clean serial run, and every restart the chaos
caused is visible in the manifest's pool block.
"""

import json

from repro.experiments import cli
from repro.experiments.campaign import RunSpec
from repro.experiments.faults import ChaosPlan
from repro.experiments.parallel import UnitScheduler
from repro.experiments.runner import Runner
from repro.experiments.store import semantic_record_dict
from repro.experiments.supervisor import PoolConfig, PoolSupervisor
from repro.scor.apps.registry import app_by_name

#: a small all-RED campaign (the cheapest app) with distinct units
UNITS = [
    RunSpec("RED", "none"),
    RunSpec("RED", "base"),
    RunSpec("RED", "scord"),
    RunSpec("RED", "scord", races=("block_fence",)),
    RunSpec("RED", "none", seed=2),
    RunSpec("RED", "scord", seed=2),
]


def clean_serial_run(units):
    """The reference: one in-process runner, no faults, no parallelism."""
    runner = Runner(verbose=False)
    return [
        semantic_record_dict(
            runner.run(
                app_by_name(u.app), detector=u.detector, memory=u.memory,
                races=u.races, seed=u.seed,
            )
        )
        for u in units
    ]


def chaos_pool_run(units, every=3, jobs=2):
    """The subject: a pool campaign whose workers die every *every* units."""
    chaos = ChaosPlan("pool-kill", every=every)
    config = PoolConfig(
        workers=jobs, unit_timeout=60, heartbeat_timeout=5.0,
        backoff_seconds=0.01, max_worker_restarts=16,
    )
    with PoolSupervisor(config, fault_plan=chaos) as supervisor, \
            UnitScheduler(supervisor, threads=jobs) as scheduler:
        outcome = scheduler.run_units(units)
        stats = supervisor.stats()
    return outcome, stats, chaos


class TestChaosRecovery:
    def test_chaos_campaign_is_bit_identical_to_clean_serial(self):
        outcome, stats, chaos = chaos_pool_run(UNITS)
        # The chaos was real...
        assert chaos.injected >= 1
        assert stats["restarts"] == chaos.injected
        assert sum(stats["lost_workers"].values()) == chaos.injected
        # ...every unit still completed...
        assert not outcome.failures
        assert all(u.ok for u in outcome.outcomes)
        # ...and the merged records are bit-identical to a clean serial
        # run, in submission order (the deterministic-merge guarantee).
        chaotic = [
            semantic_record_dict(u.record) for u in outcome.outcomes
        ]
        assert chaotic == clean_serial_run(UNITS)
        # Recovery was surgical: the pool never degraded to serial.
        assert not stats["degraded"]
        assert stats["units_degraded"] == 0

    def test_manifest_records_every_restart(self, tmp_path):
        """The CLI's manifest pool block carries the full chaos ledger."""
        parser = cli._build_parser()
        args = parser.parse_args(
            ["--jobs", "2", "--chaos-kill-every", "2", "--timeout", "60",
             "--quiet"]
        )
        supervisor, chaos = cli._build_pool(args)
        assert supervisor is not None and chaos is not None
        assert supervisor.config.workers == 2
        units = UNITS[:4]
        try:
            with UnitScheduler(supervisor, threads=2) as scheduler:
                outcome = scheduler.run_units(units)
        finally:
            supervisor.close()
        assert not outcome.failures
        pool_section = supervisor.stats()
        pool_section["chaos_injected"] = chaos.injected

        manifest_path = tmp_path / "manifest.json"
        cli._write_manifest(
            manifest_path, [], {}, Runner(verbose=False), 0.0,
            pool_section=pool_section,
        )
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        pool = manifest["pool"]
        assert pool["chaos_injected"] == chaos.injected >= 1
        assert pool["restarts"] == chaos.injected  # every restart recorded
        assert pool["units_ok"] == len(units)
        assert sum(pool["lost_workers"].values()) == chaos.injected
