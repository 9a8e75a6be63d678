"""Dead-register exit: register flips the program never touches again.

The golden capture run records each physical register's last access
cycle.  A register-file flip whose registers were all last used before
the flip cycle leaves the run equal to the golden run until program exit,
so the injector ends it at flip time (``ENDED_DEAD_CELL``) and records
the events the full run would have recorded.  This suite pins that:

- a Hypothesis property over REGFILE faults on four programs and cluster
  sizes 1-3: whenever the dead rule fires, the effect and the event
  payload equal the same fault's run with early exit off and the taint
  probe armed;
- the two boundaries of the rule: a register last used exactly at the
  flip cycle is live, and a cluster straddling a dead and a live
  register is live;
- the capture itself: translated and interpreted captures record the
  same observables, and ``--no-translate`` keeps the capture
  interpreted.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import event, given, settings, strategies as st

import repro.injection.campaign as campaign
from repro.injection.campaign import (
    CampaignConfig,
    prepare_image,
    record_golden_observables,
    run_golden,
)
from repro.injection.components import Component, component_bits
from repro.injection.fault import Fault
from repro.injection.parallel import (
    ENDED_DEAD_CELL,
    ENDED_FULL,
    ImageInjector,
)
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import system_digest
from repro.microarch.regfile import INT_REG_BITS
from repro.microarch.system import System
from repro.observability.events import EV_FLIP, EV_READ, EV_WRITE_OVER
from repro.workloads import get_workload

MACHINE = SCALED_A9_CONFIG
PROPERTY_WORKLOADS = ("CRC32", "FFT", "MatMul", "Jpeg C")
REGFILE_BITS = component_bits(MACHINE, Component.REGFILE)
N_INT = MACHINE.int_phys_regs

_IMAGES: dict = {}
_INJECTORS: dict = {}


def _image(name: str):
    """The production image of ``name`` (translated, events, early exit)."""
    if name not in _IMAGES:
        _IMAGES[name] = prepare_image(get_workload(name), CampaignConfig())
    return _IMAGES[name]


def _injector(name: str, cluster_size: int, variant: str) -> ImageInjector:
    """One cached injector per (program, cluster size, variant).

    ``pruned`` is the default engine; ``quiet`` turns early exit off but
    keeps the last-use table (dead flips arm no probe); ``armed`` also
    drops the table, so every flip arms the register taint probe - the
    reference run.
    """
    key = (name, cluster_size, variant)
    if key not in _INJECTORS:
        _golden, image = _image(name)
        fields = {"cluster_size": cluster_size}
        if variant != "pruned":
            fields["early_exit"] = False
        if variant == "armed":
            fields["register_use"] = None
        _INJECTORS[key] = ImageInjector(dataclasses.replace(image, **fields))
    return _INJECTORS[key]


def _flip_cycle(result) -> int:
    return next(cycle for kind, cycle, _ in result.events if kind == EV_FLIP)


def _assert_matches_reference(name, cluster_size, fault):
    """Run ``fault`` pruned, quiet and armed; return the pruned result."""
    pruned = _injector(name, cluster_size, "pruned").run_fault_ex(fault)
    armed = _injector(name, cluster_size, "armed").run_fault_ex(fault)
    assert armed.ended_by == ENDED_FULL
    assert pruned.effect is armed.effect, (name, cluster_size, fault)
    if pruned.ended_by == ENDED_DEAD_CELL:
        golden_cycles = _image(name)[1].golden_cycles
        assert pruned.events == armed.events, (name, cluster_size, fault)
        assert pruned.cycles_saved == golden_cycles - _flip_cycle(pruned)
        quiet = _injector(name, cluster_size, "quiet").run_fault_ex(fault)
        assert quiet.effect is armed.effect
        assert quiet.events == armed.events
    return pruned


@pytest.fixture(scope="module")
def crc32():
    return _image("CRC32")


class TestDeadRegisterProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(PROPERTY_WORKLOADS),
        cluster_size=st.integers(1, 3),
        bit=st.one_of(
            st.integers(0, REGFILE_BITS - 1),
            st.integers(0, N_INT * INT_REG_BITS - 1),
        ),
        # Most integer registers go dead only in the last few hundred
        # cycles before exit, so half the draws aim there.
        position=st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.floats(0.997, 1.0, exclude_max=True),
        ),
    )
    def test_dead_exit_records_the_full_run(
        self, name, cluster_size, bit, position
    ):
        golden_cycles = _image(name)[1].golden_cycles
        fault = Fault(Component.REGFILE, bit, int(position * golden_cycles))
        event(_assert_matches_reference(name, cluster_size, fault).ended_by)

    def test_rule_fires_on_untouched_fp_registers(self, crc32):
        """CRC32 never touches the FP file: every FP flip ends dead."""
        golden, image = crc32
        assert all(last < 0 for last in image.register_use.last_use[N_INT:])
        fp_bit = N_INT * INT_REG_BITS + 5
        for cycle in (1_000, golden.cycles // 2, golden.cycles - 10):
            result = _assert_matches_reference(
                "CRC32", 1, Fault(Component.REGFILE, fp_bit, cycle)
            )
            assert result.ended_by == ENDED_DEAD_CELL


class TestDeadRegisterBoundaries:
    def test_register_last_used_at_the_flip_cycle_is_live(self, crc32):
        _golden, image = crc32
        last_use = image.register_use.last_use
        # An architectural register last used well before exit.
        slot = min(range(16), key=lambda s: last_use[s] if last_use[s] > 0 else 1e12)
        last = last_use[slot]
        live = _assert_matches_reference(
            "CRC32", 1, Fault(Component.REGFILE, slot * INT_REG_BITS, last)
        )
        assert _flip_cycle(live) == last
        assert live.ended_by != ENDED_DEAD_CELL
        touched = [
            cycle for kind, cycle, _ in live.events
            if kind in (EV_READ, EV_WRITE_OVER)
        ]
        assert touched == [last]
        dead = _assert_matches_reference(
            "CRC32", 1, Fault(Component.REGFILE, slot * INT_REG_BITS, last + 1)
        )
        assert dead.ended_by == ENDED_DEAD_CELL

    def test_cluster_straddling_a_dead_and_a_live_register_is_live(self, crc32):
        golden, image = crc32
        last_use = image.register_use.last_use
        assert last_use[N_INT - 1] > golden.cycles // 2  # live int slot
        assert last_use[N_INT] < 0  # dead FP register 0
        boundary = N_INT * INT_REG_BITS
        cycle = golden.cycles // 2
        straddle = _assert_matches_reference(
            "CRC32", 2, Fault(Component.REGFILE, boundary - 1, cycle)
        )
        assert straddle.ended_by != ENDED_DEAD_CELL
        fp_only = _assert_matches_reference(
            "CRC32", 1, Fault(Component.REGFILE, boundary, cycle)
        )
        assert fp_only.ended_by == ENDED_DEAD_CELL


def _snapshot_digests(workload, snapshots) -> list[bytes]:
    system = System(workload.program(MACHINE.layout), config=MACHINE)
    digests = []
    for snapshot in snapshots:
        snapshot.restore(system)
        digests.append(system_digest(system))
    return digests


class TestGoldenCapture:
    @pytest.mark.parametrize("name", ["StringSearch", "FFT"])
    def test_translated_capture_matches_interpreted(self, name):
        workload = get_workload(name)
        golden = run_golden(workload, MACHINE)
        interpreted = record_golden_observables(workload, MACHINE, golden)
        translated = record_golden_observables(
            workload, MACHINE, golden, translate=True
        )
        assert interpreted.snapshots and interpreted.probe_fired
        assert _snapshot_digests(workload, translated.snapshots) == (
            _snapshot_digests(workload, interpreted.snapshots)
        )
        assert translated.digests == interpreted.digests
        assert translated.arch_digests == interpreted.arch_digests
        assert translated.probe_fired == interpreted.probe_fired
        assert translated.register_use == interpreted.register_use
        assert all(
            fired >= cycle for cycle, fired in interpreted.probe_fired.items()
        )
        # The program exits through ``halt``, which reads r0.
        assert interpreted.register_use.last_use[0] == golden.cycles

    @pytest.mark.parametrize("translate", [True, False])
    def test_capture_engine_follows_the_engine_switch(self, monkeypatch, translate):
        attached = []
        real = campaign.attach_translator

        def spy(system, **kwargs):
            attached.append(system)
            return real(system, **kwargs)

        monkeypatch.setattr(campaign, "attach_translator", spy)
        _golden, image = prepare_image(
            get_workload("StringSearch"), CampaignConfig(translate=translate)
        )
        assert len(attached) == int(translate)
        # The capture frees its translator when the run ends.
        assert all(system.core.translator is None for system in attached)
        assert image.register_use is not None
