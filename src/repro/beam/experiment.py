"""The beam experiment protocol (Section IV-B), simulated.

One campaign per workload: executions run back-to-back under beam for
``beam_hours``; strikes are Poisson-sampled per component; only the
(vanishingly rare) executions that receive a strike are simulated, the rest
are counted as error-free - the paper designed its experiments the same way
("observed error rates were lower than 1 error per 1,000 executions"), so
this short-cut introduces no artifact.

Strikes run on the fault-injection engine: one
:class:`~repro.injection.parallel.ImageInjector` per workload, built from a
*beam-mode* image (steady-state caches with the background-OS working set,
online check routine, golden output in memory) whose checkpoints come from
the warm reference run.  A strike either resolves through execution or,
for background-OS line hits, through the board model, via the injector's
pre-flip hook.  Platform-logic strikes resolve through the board model
alone.  Results are cached on disk.
"""

from __future__ import annotations

import binascii
import dataclasses
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.beam.board import ZEDBOARD, BoardModel, BoardModelOutcome
from repro.beam.checkroutine import build_check_program
from repro.beam.facility import LANSCE, BeamFacility
from repro.beam.fit import fit_rate, poisson_interval, sample_poisson
from repro.errors import ConfigurationError
from repro.injection.campaign import (
    CHECKPOINTS,
    default_cache_dir,
    load_cache_entry,
    store_cache_entry,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits, struck_region
from repro.injection.fault import Fault
from repro.injection.parallel import ImageInjector, MachineImage, boot_system
from repro.microarch.config import MachineConfig, SCALED_A9_CONFIG
from repro.microarch.digest import probe_cycles
from repro.microarch.snapshot import SystemSnapshot, record_snapshots
from repro.workloads.base import Workload


@dataclass(frozen=True)
class BeamCampaignConfig:
    """Knobs of one beam campaign."""

    beam_hours: float = 150.0
    seed: int = 0
    machine: MachineConfig = SCALED_A9_CONFIG
    facility: BeamFacility = LANSCE
    board: BoardModel = ZEDBOARD

    def __post_init__(self):
        if not (math.isfinite(self.beam_hours) and self.beam_hours > 0):
            raise ConfigurationError(
                f"beam_hours must be finite and above zero, got {self.beam_hours!r}"
            )

    def cache_key(self, workload_name: str) -> str:
        return (
            f"beam-{self.machine.name}-{self.board.name}"
            f"-{workload_name.replace(' ', '_')}"
            f"-h{self.beam_hours:g}-s{self.seed}"
        )


@dataclass
class BeamResult:
    """Outcome of one workload's beam campaign."""

    workload_name: str
    beam_seconds: float
    fluence: float
    golden_cycles: int
    counts: dict[FaultEffect, int] = field(default_factory=dict)
    strikes_simulated: int = 0
    platform_strikes: int = 0
    natural_years: float = 0.0

    def errors(self, effect: FaultEffect) -> int:
        return self.counts.get(effect, 0)

    def fit(self, effect: FaultEffect) -> float:
        """FIT rate of one error class."""
        return fit_rate(self.errors(effect), self.fluence)

    def fit_interval(
        self, effect: FaultEffect, confidence: float = 0.95
    ) -> tuple[float, float]:
        low, high = poisson_interval(self.errors(effect), confidence)
        return fit_rate(low, self.fluence), fit_rate(high, self.fluence)

    def detection_limit_fit(self) -> float:
        """Half the FIT one observed error would contribute (resolution)."""
        return fit_rate(0.5, self.fluence)

    def total_fit(self) -> float:
        return sum(
            self.fit(effect)
            for effect in (FaultEffect.SDC, FaultEffect.APP_CRASH, FaultEffect.SYS_CRASH)
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload_name,
            "beam_seconds": self.beam_seconds,
            "fluence": self.fluence,
            "golden_cycles": self.golden_cycles,
            "counts": {e.name: self.counts.get(e, 0) for e in FaultEffect},
            "strikes_simulated": self.strikes_simulated,
            "platform_strikes": self.platform_strikes,
            "natural_years": self.natural_years,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BeamResult":
        return cls(
            workload_name=payload["workload"],
            beam_seconds=payload["beam_seconds"],
            fluence=payload["fluence"],
            golden_cycles=payload["golden_cycles"],
            counts={FaultEffect[k]: v for k, v in payload["counts"].items()},
            strikes_simulated=payload["strikes_simulated"],
            platform_strikes=payload["platform_strikes"],
            natural_years=payload["natural_years"],
        )


class BeamExperiment:
    """Run (and cache) simulated beam campaigns over the suite."""

    def __init__(
        self,
        config: BeamCampaignConfig | None = None,
        cache_dir: Path | None = None,
        progress: Callable[[str], None] | None = None,
    ):
        self.config = config or BeamCampaignConfig()
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self._progress = progress or (lambda message: None)

    # -- caching -----------------------------------------------------------

    def _cache_path(self, workload_name: str) -> Path:
        return self.cache_dir / (self.config.cache_key(workload_name) + ".json")

    def _load_cached(self, workload_name: str) -> BeamResult | None:
        return load_cache_entry(
            self._cache_path(workload_name), BeamResult.from_dict, self._progress
        )

    # -- machine construction -------------------------------------------------

    def _beam_image(self, workload: Workload, golden: bytes) -> MachineImage:
        """The beam-mode machine image, before the warm run sizes it."""
        machine = self.config.machine
        return MachineImage(
            name=workload.name,
            program=workload.program(machine.layout),
            machine=machine,
            golden_cycles=0,
            golden_output=golden,
            check_program=build_check_program(machine.layout, len(golden)),
            beam_mode=True,
            seed=self.config.seed,
        )

    def _golden_beam_run(self, image: MachineImage):
        """Establish campaign steady state and the warm reference run.

        Executions run back-to-back under beam, so the measured state is
        not a cold boot: the machine executes one full warm-up run (from
        the prefilled background-OS state), is soft-rebooted keeping the
        memory hierarchy, and the *second* execution is the reference.
        Returns ``(system, warm_boot_snapshot, warm_result)``: the snapshot
        is the post-reboot cycle-0 state every strike run starts from.
        """
        system = boot_system(image)
        first = system.run(max_cycles=200_000_000)
        if not first.exited_cleanly or first.sdc_flag or not first.check_done:
            raise RuntimeError(
                f"warm-up beam run of {image.name} failed: {first.outcome}, "
                f"sdc={first.sdc_flag}, check_done={first.check_done}"
            )
        system.soft_reset()
        warm_boot = SystemSnapshot(system)
        warm = system.run(max_cycles=200_000_000)
        golden = image.golden_output
        if not warm.exited_cleanly or warm.sdc_flag or warm.output != golden:
            raise RuntimeError(f"warm beam run of {image.name} failed: {warm.outcome}")
        return system, warm_boot, warm

    def _warm_image(self, workload: Workload) -> MachineImage:
        """The image strikes run on: warm golden run plus its checkpoints."""
        image = self._beam_image(workload, workload.reference_output())
        system, warm_boot, warm = self._golden_beam_run(image)
        # Checkpoint the warm reference run for fast-forwarded strikes:
        # replay it from the warm-boot state, snapshotting along the way.
        warm_boot.restore(system)
        checkpoints = record_snapshots(system, probe_cycles(warm.cycles, CHECKPOINTS))
        return dataclasses.replace(
            image, golden_cycles=warm.cycles, snapshots=[warm_boot] + checkpoints
        )

    # -- strike execution ---------------------------------------------------------

    def _os_line_hook(self, rng: random.Random):
        """Pre-flip hook: the board model resolves background-OS line hits."""
        board = self.config.board
        layout = self.config.machine.layout

        def resolve(_system, target, fault: Fault) -> None:
            if struck_region(target, fault.bit_index, layout) == "os_background":
                raise BoardModelOutcome(board.sample_os_line_outcome(rng))

        return resolve

    def _strike_effect(self, injector: ImageInjector, fault: Fault) -> FaultEffect:
        """Run one strike on the campaign's injector and classify it."""
        try:
            return injector.run_fault(fault)
        except BoardModelOutcome as resolved:
            return resolved.effect

    # -- campaign ------------------------------------------------------------------

    def run_workload(self, workload: Workload, use_cache: bool = True) -> BeamResult:
        """Simulate one workload's full beam campaign."""
        if use_cache:
            cached = self._load_cached(workload.name)
            if cached is not None:
                return cached

        config = self.config
        machine = config.machine
        facility = config.facility
        rng = random.Random(
            (config.seed << 32) ^ binascii.crc32(workload.name.encode())
        )
        image = self._warm_image(workload)
        # Board-model draws interleave with the strike draws on one RNG, so
        # strikes run serially, in order, on this one machine.
        injector = ImageInjector(image, pre_flip=self._os_line_hook(rng))

        beam_seconds = config.beam_hours * 3600.0
        result = BeamResult(
            workload_name=workload.name,
            beam_seconds=beam_seconds,
            fluence=facility.fluence(beam_seconds),
            golden_cycles=image.golden_cycles,
            natural_years=facility.natural_years(beam_seconds),
        )

        # Strikes on the six modeled components: simulate each one.
        for component in Component:
            bits = component_bits(machine, component)
            expected = facility.strike_rate(bits) * beam_seconds
            strikes = sample_poisson(rng, expected)
            for index in range(strikes):
                # Draw order (bit, then cycle) is part of the shipped results.
                bit_index = rng.randrange(bits)
                fault = Fault(component, bit_index, rng.randrange(image.golden_cycles))
                effect = self._strike_effect(injector, fault)
                result.counts[effect] = result.counts.get(effect, 0) + 1
                result.strikes_simulated += 1
                if (index + 1) % 10 == 0:
                    self._progress(
                        f"{workload.name}/beam/{component.name}: "
                        f"{index + 1}/{strikes}"
                    )

        # Strikes on un-modeled platform logic: board model only.
        platform_rate = facility.strike_rate(
            config.board.platform_logic_bits, config.board.platform_sensitivity
        )
        platform_strikes = sample_poisson(rng, platform_rate * beam_seconds)
        for _ in range(platform_strikes):
            effect = config.board.sample_platform_outcome(rng)
            result.counts[effect] = result.counts.get(effect, 0) + 1
        result.platform_strikes = platform_strikes

        if use_cache:
            store_cache_entry(self._cache_path(workload.name), result.to_dict())
        return result

    def run_suite(
        self, workloads: Iterable[Workload], use_cache: bool = True
    ) -> dict[str, BeamResult]:
        results = {}
        for workload in workloads:
            self._progress(f"beam campaign: {workload.name}")
            results[workload.name] = self.run_workload(workload, use_cache=use_cache)
        return results
