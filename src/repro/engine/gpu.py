"""The top-level GPU facade — the library's main entry point.

>>> from repro import GPU, GPUConfig, DetectorConfig, Scope
>>> gpu = GPU()
>>> counter = gpu.alloc(1, "counter")
>>> def bump(ctx, counter):
...     yield ctx.atomic_add(counter, 0, 1)
>>> result = gpu.launch(bump, grid=4, block_dim=8, args=(counter,))
>>> gpu.read(counter, 0)
32

A :class:`GPU` owns the full simulated machine: device memory (allocator +
backing store), the scope-aware visibility model, the timing fabric, and the
attached race detector.  Kernel launches share this state, as CUDA kernels
share a device; each launch is a device-wide synchronization point.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.arch.config import GPUConfig
from repro.arch.detector_config import DetectorConfig, DetectorMode
from repro.common.stats import CounterBag
from repro.engine.memops import MemoryPipeline
from repro.engine.results import LaunchResult
from repro.engine.scheduler import KernelRun
from repro.mem.allocator import DeviceAllocator, DeviceArray
from repro.mem.backing import BackingStore
from repro.mem.visibility import VisibilityModel
from repro.scord.races import RaceReport
from repro.scord.shmem import ShmemChecker
from repro.scord.variants import make_detector
from repro.timing.sampler import TimelineSampler
from repro.timing.fabric import TimingFabric

DEFAULT_CAPACITY_BYTES = 256 * 1024


class GPU:
    """A simulated GPU with an optional attached race detector."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        detector_config: Optional[DetectorConfig] = None,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        shmem_check: bool = False,
        sample_interval: int = 0,
        guard=None,
        telemetry=None,
        schedule_control=None,
    ):
        self.config = config if config is not None else GPUConfig.scaled_default()
        self.detector_config = (
            detector_config if detector_config is not None else DetectorConfig.none()
        )
        self.stats = CounterBag()
        self.allocator = DeviceAllocator(capacity_bytes)
        self.backing = BackingStore(capacity_bytes)
        self.visibility = VisibilityModel(
            self.backing,
            self.config.num_sms,
            self.config.l1_size_bytes,
            self.config.l1_assoc,
            self.config.line_size_bytes,
            self.config.write_buffer_capacity,
            self.stats,
        )
        self.fabric = TimingFabric(self.config, self.stats)
        self.detector = make_detector(self.detector_config, capacity_bytes)
        # Flight recording wraps the detector in a delegating capture
        # shim (see repro.scord.capture) instead of instrumenting the
        # pipeline: with capture off, the hot path is exactly the
        # uninstrumented fast path.
        self.flight_capture = None
        flight = getattr(telemetry, "flight", None)
        if flight is not None and flight.enabled:
            from repro.scord.capture import FlightCapture

            self.detector = FlightCapture(self.detector, flight)
            self.flight_capture = self.detector
        self.detector.attach(self.fabric, self.stats)
        self.pipeline = MemoryPipeline(
            self.config,
            self.fabric,
            self.visibility,
            self.detector,
            self.allocator,
            self.stats,
        )
        # Optional Racecheck-style shared-memory hazard checking — the
        # complement to ScoRD's global-memory focus (paper §VII).
        self.shmem_checker = (
            ShmemChecker(self.config.threads_per_warp) if shmem_check else None
        )
        self.pipeline.shmem = self.shmem_checker
        # Optional utilization timeline (see repro.timing.sampler).
        self.sampler = (
            TimelineSampler(self.fabric, sample_interval)
            if sample_interval
            else None
        )
        self.pipeline.sampler = self.sampler
        # Optional watchdog (see repro.common.guard): wall-clock deadline
        # and event-budget limits enforced from inside the event loop.
        self.guard = guard
        # Optional schedule control (see repro.mc.control): hands every
        # warp-step pop decision to a model-checking explorer.  Persists
        # across launches so one control observes a whole multi-kernel
        # program as a single decision stream.
        self.schedule_control = schedule_control
        # Optional telemetry bundle (see repro.telemetry): binds the
        # stats bag and hardware-structure gauges into the metrics
        # registry and traces launches as kernel spans.
        self.telemetry = telemetry
        # Each GPU gets its own simulated-cycles track: cycle clocks
        # restart at 0 per simulation, so sharing a track across a
        # campaign's runs would make kernel spans falsely overlap.
        self._sim_track = 0
        if telemetry is not None:
            telemetry.metrics.bind_bag(self.stats, key="engine.gpu.bag")
            telemetry.metrics.register_collector(
                self._collect_telemetry, key="engine.gpu"
            )
            self._sim_track = telemetry.tracer.alloc_sim_track()
            if self.sampler is not None:
                telemetry.tracer.add_counter_source(
                    self.sampler.counter_events
                )
        self.clock = 0
        self.launches: List[LaunchResult] = []
        self._next_warp_uid = 0

    def _collect_telemetry(self) -> dict:
        """Engine/timing/detector gauges for the metrics registry."""
        fabric = self.fabric
        noc_busy = fabric.noc_up.busy_cycles + fabric.noc_down.busy_cycles
        dram_busy = fabric.dram.total_busy_cycles
        l2_busy = sum(bank.busy_cycles for bank in fabric.l2_banks)
        out = {
            "engine.gpu.cycles": float(self.clock),
            "engine.gpu.launches": float(len(self.launches)),
            "engine.gpu.warp_instructions": float(
                sum(launch.instructions for launch in self.launches)
            ),
            "timing.noc.busy_cycles": float(noc_busy),
            "timing.dram.busy_cycles": float(dram_busy),
            "timing.l2.busy_cycles": float(l2_busy),
        }
        if self.clock:
            out["timing.noc.utilization"] = round(
                noc_busy / (2 * self.clock), 6
            )
            out["timing.dram.utilization"] = round(
                dram_busy / (fabric.dram.num_channels * self.clock), 6
            )
            out["timing.l2.utilization"] = round(
                l2_busy / (len(fabric.l2_banks) * self.clock), 6
            )
        out.update(self.detector.telemetry_snapshot())
        return out

    # ------------------------------------------------------------------
    # Host-side memory API
    # ------------------------------------------------------------------
    def alloc(self, length: int, name: Optional[str] = None) -> DeviceArray:
        """Allocate *length* device words."""
        return self.allocator.alloc(length, name)

    def write(self, array: DeviceArray, index: int, value: int) -> None:
        """Host write of one element (outside kernel execution)."""
        self.backing.write_word(array.addr(index), value)

    def read(self, array: DeviceArray, index: int) -> int:
        """Host read of one element (outside kernel execution)."""
        return self.backing.read_word(array.addr(index))

    def write_array(self, array: DeviceArray, values: Iterable[int]) -> None:
        """Host write of consecutive elements starting at index 0."""
        for index, value in enumerate(values):
            self.backing.write_word(array.addr(index), value)

    def read_array(self, array: DeviceArray) -> List[int]:
        """Host read of the whole array."""
        return [self.backing.read_word(array.addr(i)) for i in range(len(array))]

    # ------------------------------------------------------------------
    # Kernel launch
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel,
        grid: int,
        block_dim: int,
        args: Sequence = (),
    ) -> LaunchResult:
        """Run *kernel* over ``grid`` blocks of ``block_dim`` threads.

        Blocking (like ``cudaDeviceSynchronize`` after every launch): on
        return, all effects are visible to the host and the clock has
        advanced past the kernel's completion.
        """
        name = getattr(kernel, "__name__", str(kernel))
        if self.telemetry is None:
            return self._launch(kernel, name, grid, block_dim, args)
        tracer = self.telemetry.tracer
        with self.telemetry.phase(
            "engine.launch", f"kernel:{name}", cat="engine",
            grid=grid, block_dim=block_dim,
        ) as phase:
            result = self._launch(
                kernel, name, grid, block_dim, args, tracer=tracer
            )
            phase.add_ops(result.events)
        tracer.sim_span(
            f"kernel:{name}",
            result.start_cycle,
            result.end_cycle,
            track=self._sim_track,
            cat="engine",
            instructions=result.instructions,
        )
        return result

    def _launch(
        self, kernel, name, grid, block_dim, args, tracer=None
    ) -> LaunchResult:
        self.detector.on_kernel_boundary()
        if self.shmem_checker is not None:
            self.shmem_checker.new_launch()
        before = self.stats.as_dict()
        run = KernelRun(
            kernel,
            grid,
            block_dim,
            tuple(args),
            self.pipeline,
            self.clock,
            self._next_warp_uid,
            guard=self.guard,
            tracer=tracer,
            schedule_control=self.schedule_control,
        )
        end_cycle = run.run()
        self._next_warp_uid = run._next_warp_uid
        self.visibility.finalize()
        self.detector.finalize()
        if self.sampler is not None:
            self.sampler.finish(end_cycle)
        # Scheduler-health accounting: warp issues are counted by the
        # run itself (no per-step cost), folded into the bag here so the
        # launch delta and the metrics registry both see them.
        self.stats.add("sched.warp_issues", run.instructions)

        after = self.stats.as_dict()
        delta = CounterBag()
        for key, value in after.items():
            diff = value - before.get(key, 0)
            if diff:
                delta.add(key, diff)
        result = LaunchResult(
            kernel_name=name,
            cycles=end_cycle - self.clock,
            start_cycle=self.clock,
            end_cycle=end_cycle,
            stats=delta,
            races=self.races,
            instructions=run.instructions,
            events=run.events_processed,
        )
        self.clock = end_cycle
        self.launches.append(result)
        return result

    # ------------------------------------------------------------------
    # Run-level accessors
    # ------------------------------------------------------------------
    @property
    def races(self) -> RaceReport:
        """All races detected so far, across launches."""
        return self.detector.report

    @property
    def shmem_hazards(self):
        """Shared-memory hazards (only populated with ``shmem_check=True``)."""
        if self.shmem_checker is None:
            return []
        return self.shmem_checker.unique_hazards

    @property
    def total_cycles(self) -> int:
        return self.clock

    def dram_accesses(self) -> Tuple[int, int]:
        """(data, metadata) DRAM accesses accumulated across launches."""
        return (
            self.stats["dram.access.data"],
            self.stats["dram.access.metadata"],
        )

    def timeline(self, width: int = 60) -> str:
        """ASCII fabric-utilization timeline (needs ``sample_interval``)."""
        if self.sampler is None:
            return "(timeline sampling disabled; pass sample_interval=N)"
        return self.sampler.render(width)

    def report(self) -> str:
        """A formatted summary of the whole run (all launches so far)."""
        lines = [f"GPU run: {len(self.launches)} launch(es), "
                 f"{self.clock} cycles total"]
        for launch in self.launches:
            lines.append(
                f"  {launch.kernel_name}: {launch.cycles} cycles, "
                f"{launch.instructions} warp-instructions"
            )
        l1_hits = self.stats["l1.hit.data"]
        l1_misses = self.stats["l1.miss.data"]
        l1_total = l1_hits + l1_misses
        if l1_total:
            lines.append(f"  L1: {l1_hits}/{l1_total} hits "
                         f"({100 * l1_hits / l1_total:.1f}%)")
        l2_hits = sum(
            self.stats[f"l2.hit.{cls}"] for cls in ("data", "metadata")
        )
        l2_misses = sum(
            self.stats[f"l2.miss.{cls}"] for cls in ("data", "metadata")
        )
        if l2_hits + l2_misses:
            lines.append(
                f"  L2: {l2_hits}/{l2_hits + l2_misses} hits "
                f"({100 * l2_hits / (l2_hits + l2_misses):.1f}%)"
            )
        data, metadata = self.dram_accesses()
        lines.append(f"  DRAM accesses: data={data} metadata={metadata}")
        lines.append(
            f"  NoC: {self.stats['noc.packets']} packets, "
            f"{self.stats['noc.bytes']} bytes"
        )
        if self.clock:
            noc_busy = self.fabric.noc_up.busy_cycles + self.fabric.noc_down.busy_cycles
            dram_cycles = self.fabric.dram.total_busy_cycles
            channels = self.fabric.dram.num_channels
            lines.append(
                f"  utilization: noc={noc_busy / (2 * self.clock):.1%} "
                f"dram={dram_cycles / (channels * self.clock):.1%}"
            )
        if self.detector_config.mode is not DetectorMode.NONE:
            lines.append(
                f"  detector: {self.stats['detector.checks']} checks, "
                f"{self.stats['detector.md_accesses']} metadata accesses, "
                f"{self.stats['detector.md_cache_skips']} cache skips, "
                f"{self.stats['detector.lhd_stall_cycles']} LHD stall cycles"
            )
        lines.append("  " + self.races.summary().replace("\n", "\n  "))
        return "\n".join(lines)
