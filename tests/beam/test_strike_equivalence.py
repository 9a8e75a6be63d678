"""Beam strikes on the injection engine equal the fresh-boot strike.

The reference is built here, independently of :mod:`repro.beam.experiment`:
a freshly booted beam-mode ``System`` per strike, restored from the latest
warm checkpoint, run interpreter-only with a flip event that asks the board
model about valid background-OS cache lines before flipping.  The engine
under test runs the same strikes through one reused
:class:`~repro.injection.parallel.ImageInjector` (translator, copy-on-write
restores, dead-cell exit) with the board model as its pre-flip hook.  Both
must classify every strike identically and consume the board-model RNG in
lockstep.
"""

from __future__ import annotations

import random

import pytest

import repro.microarch.system as system_module
from repro.beam.board import BoardModelOutcome
from repro.beam.checkroutine import build_check_program
from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.injection.classify import classify_run
from repro.injection.components import Component, component_bits, component_target
from repro.injection.fault import Fault
from repro.injection.parallel import ImageInjector, watchdog_budget
from repro.microarch.cache import Cache
from repro.microarch.digest import probe_cycles
from repro.microarch.snapshot import SystemSnapshot, best_snapshot, record_snapshots
from repro.microarch.system import System
from repro.workloads import get_workload

CONFIG = BeamCampaignConfig(beam_hours=1, seed=3)
STRIKES_PER_COMPONENT = 5


def _beam_system(workload, golden: bytes) -> System:
    machine = CONFIG.machine
    return System(
        workload.program(machine.layout),
        config=machine,
        check_program=build_check_program(machine.layout, len(golden)),
        golden_output=golden,
        beam_mode=True,
        seed=CONFIG.seed,
    )


def _reference_checkpoints(workload, golden: bytes):
    """Warm-up run, soft reboot, warm run; then checkpoint a replay."""
    system = _beam_system(workload, golden)
    system.run(max_cycles=200_000_000)
    system.soft_reset()
    warm_boot = SystemSnapshot(system)
    warm = system.run(max_cycles=200_000_000)
    replay = _beam_system(workload, golden)
    warm_boot.restore(replay)
    checkpoints = record_snapshots(replay, probe_cycles(warm.cycles, 8))
    return warm.cycles, [warm_boot] + checkpoints


def _reference_strike(workload, golden, snapshots, golden_cycles, fault, rng):
    """One strike the way a fresh-boot beam machine runs it.

    Returns ``(effect, resolved_by_board_model)``.
    """
    system = _beam_system(workload, golden)
    best_snapshot(snapshots, fault.cycle).restore(system)
    target = component_target(system, fault.component)
    layout = CONFIG.machine.layout
    bit = fault.bit_index

    def fire():
        if isinstance(target, Cache):
            line = target.line_at(bit)
            if line.valid:
                region = layout.region_of(target.line_base_paddr(bit))
                if region == "os_background":
                    raise BoardModelOutcome(CONFIG.board.sample_os_line_outcome(rng))
        target.flip_bit(bit)

    try:
        result = system.run(
            max_cycles=watchdog_budget(golden_cycles), events=[(fault.cycle, fire)]
        )
    except BoardModelOutcome as resolved:
        return resolved.effect, True
    return classify_run(result, golden, system), False


def _os_line_bits(snapshots, workload, golden):
    """L2 bits of lines the warm boot holds for the background OS."""
    system = _beam_system(workload, golden)
    snapshots[0].restore(system)
    l2 = system.l2
    layout = CONFIG.machine.layout
    return [
        bit + 5
        for bit in range(0, l2.data_bits, l2.line_size * 8)
        if l2.line_at(bit).valid
        and layout.region_of(l2.line_base_paddr(bit)) == "os_background"
    ]


def _strikes(name, golden_cycles, os_bits):
    rng = random.Random(f"strikes:{name}")
    faults = [
        Fault(
            component,
            rng.randrange(component_bits(CONFIG.machine, component)),
            rng.randrange(golden_cycles),
        )
        for component in Component
        for _ in range(STRIKES_PER_COMPONENT)
    ]
    # Strikes on resident background-OS lines right after the warm boot.
    faults += [Fault(Component.L2, bit, rng.randrange(64)) for bit in os_bits[:3]]
    return faults


@pytest.mark.parametrize("name", ["CRC32", "Susan C"])
def test_injector_strikes_match_fresh_boot_strikes(name):
    workload = get_workload(name)
    golden = workload.reference_output()
    golden_cycles, snapshots = _reference_checkpoints(workload, golden)

    experiment = BeamExperiment(CONFIG, cache_dir=None)
    image = experiment._warm_image(workload)
    assert image.golden_cycles == golden_cycles
    assert [s.cycle for s in image.snapshots] == [s.cycle for s in snapshots]

    reference_rng, engine_rng = random.Random(11), random.Random(11)
    injector = ImageInjector(image, pre_flip=experiment._os_line_hook(engine_rng))
    faults = _strikes(name, golden_cycles, _os_line_bits(snapshots, workload, golden))
    assert len(faults) >= 30

    board_resolved = 0
    for fault in faults:
        expected, by_board = _reference_strike(
            workload, golden, snapshots, golden_cycles, fault, reference_rng
        )
        board_resolved += by_board
        assert experiment._strike_effect(injector, fault) == expected, fault
    if name == "Susan C":
        # Susan C keeps background-OS lines resident in L2.
        assert board_resolved >= 1
    assert reference_rng.random() == engine_rng.random()


def test_system_builds_do_not_grow_with_strikes(monkeypatch):
    """One warm-up machine and one injector machine per workload."""
    builds = []
    original = system_module.System.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(system_module.System, "__init__", counting_init)
    workload = get_workload("StringSearch")
    per_run = []
    for hours in (2, 30):
        experiment = BeamExperiment(BeamCampaignConfig(beam_hours=hours), cache_dir=None)
        builds.clear()
        result = experiment.run_workload(workload, use_cache=False)
        per_run.append((len(builds), result.strikes_simulated))
    (few_builds, few), (many_builds, many) = per_run
    assert many > few
    assert few_builds == many_builds == 2
