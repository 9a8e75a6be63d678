"""Targeted beam-strike mechanisms: the three divergence channels.

Each test places a strike by hand where one of the paper's explanations
predicts a specific outcome, and checks the machine delivers it.
"""

from __future__ import annotations

import random

import pytest

from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.fault import Fault
from repro.injection.parallel import ImageInjector, boot_system
from repro.microarch.system import GOLDEN_DATA_OFFSET
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def experiment():
    return BeamExperiment(BeamCampaignConfig(beam_hours=1, seed=1), cache_dir=None)


@pytest.fixture(scope="module")
def susan(experiment):
    """Susan C's warm beam image (checkpoint 0 is the warm boot)."""
    return experiment._warm_image(get_workload("Susan C"))


def warm_system(image):
    system = boot_system(image)
    image.snapshots[0].restore(system)
    return system


def strike_line_in_region(susan, cache_name, region, payload_bit=3):
    """Find a bit of a warm cache line tagged to ``region`` and strike it."""
    system = warm_system(susan)
    cache = getattr(system, cache_name)
    layout = system.layout
    for bit in range(0, cache.data_bits, cache.line_size * 8):
        line = cache.line_at(bit)
        if line.valid and layout.region_of(cache.line_base_paddr(bit)) == region:
            return bit + payload_bit
    return None


class TestOSResidencyChannel:
    def test_warm_l2_holds_os_background_lines(self, susan):
        bit = strike_line_in_region(susan, "l2", "os_background")
        assert bit is not None  # Susan C leaves OS lines resident

    def test_os_line_strike_resolved_by_board_model(self, experiment, susan):
        bit = strike_line_in_region(susan, "l2", "os_background")
        injector = ImageInjector(
            susan, pre_flip=experiment._os_line_hook(random.Random(0))
        )
        fault = Fault(Component.L2, bit, susan.golden_cycles // 2)
        outcomes = {experiment._strike_effect(injector, fault) for _ in range(12)}
        # Sampled from the ZEDBOARD os-line distribution: only its classes.
        assert outcomes <= {
            FaultEffect.SYS_CRASH, FaultEffect.APP_CRASH, FaultEffect.MASKED
        }
        assert FaultEffect.SYS_CRASH in outcomes


class TestCheckRoutineChannel:
    def test_corrupt_golden_copy_reports_false_sdc(self, susan):
        """A strike on the in-memory golden data makes the online check
        disagree with a *correct* output - logged as SDC, an artifact the
        beam protocol genuinely has."""
        system = warm_system(susan)
        cycles = susan.golden_cycles
        golden_addr = system.layout.golden_buffer_base + GOLDEN_DATA_OFFSET

        def corrupt_golden():
            system.memory.data[golden_addr] ^= 0xFF
            system.l1d.invalidate_all()
            system.l2.invalidate_all()

        result = system.run(
            max_cycles=cycles * 3 + 100_000,
            events=[(cycles // 2, corrupt_golden)],
        )
        assert result.exited_cleanly
        assert result.sdc_flag  # the check fired on a clean output

    def test_corrupt_check_code_crashes_the_check(self, susan):
        system = warm_system(susan)
        cycles = susan.golden_cycles
        check_entry = system.layout.check_text_base

        def corrupt_check():
            for offset in range(0, 32, 4):
                system.memory.data[check_entry + offset] = 0x00
            system.l1i.invalidate_all()
            system.l2.invalidate_all()

        result = system.run(
            max_cycles=cycles * 3 + 100_000,
            events=[(cycles // 2, corrupt_check)],
        )
        from repro.errors import ApplicationAbort

        assert isinstance(result.outcome, ApplicationAbort)


class TestPlatformChannel:
    def test_platform_strike_counts_scale_with_exposure(self):
        """Doubling beam time roughly doubles sampled platform strikes."""
        from repro.beam.facility import LANSCE
        from repro.beam.board import ZEDBOARD
        from repro.beam.fit import sample_poisson

        rate = LANSCE.strike_rate(
            ZEDBOARD.platform_logic_bits, ZEDBOARD.platform_sensitivity
        )
        rng = random.Random(5)
        short = sum(sample_poisson(rng, rate * 100 * 3600) for _ in range(30))
        long = sum(sample_poisson(rng, rate * 200 * 3600) for _ in range(30))
        assert long == pytest.approx(2 * short, rel=0.3)
