"""Observed injection: strike-site observability and ablation knobs.

Strike sites are observed on the campaign engine (a
:class:`~repro.injection.campaign.StrikeObserver` on an
:class:`~repro.injection.parallel.ImageInjector`); effects are checked
against the fresh-machine reference, :func:`run_single_injection`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.injection.campaign import (
    CampaignConfig,
    StrikeObserver,
    prepare_image,
    run_single_injection,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import Fault, generate_faults
from repro.kernel.layout import DEFAULT_LAYOUT
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.system import System
from repro.microarch.tlb import PERM_FIELD, PPN_FIELD
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def workload():
    return get_workload("StringSearch")


@pytest.fixture(scope="module")
def prepared(workload):
    return prepare_image(workload, CampaignConfig())


@pytest.fixture(scope="module")
def golden(prepared):
    return prepared[0]


@pytest.fixture(scope="module")
def observer(prepared):
    return StrikeObserver(prepared[1])


class TestObservability:
    def test_observation_fields(self, observer, golden):
        fault = Fault(Component.L1D, bit_index=100, cycle=golden.cycles // 2)
        observation = observer.observe(fault)
        assert observation.fault == fault
        assert observation.effect in set(FaultEffect)
        assert observation.mode_at_injection in ("user", "kernel")

    def test_dead_cache_line_observed_and_masked(self, observer):
        """A strike at cycle 0 hits cold caches: not live, masked."""
        fault = Fault(Component.L2, bit_index=77, cycle=0)
        observation = observer.observe(fault)
        assert not observation.target_live
        assert observation.target_region is None
        assert observation.effect is FaultEffect.MASKED

    def test_effect_matches_plain_injection(self, workload, golden, observer):
        faults = generate_faults(
            Component.L1I,
            component_bits(SCALED_A9_CONFIG, Component.L1I),
            golden.cycles,
            count=5,
            seed=99,
        )
        for fault in faults:
            plain = run_single_injection(workload, fault, SCALED_A9_CONFIG, golden)
            instrumented = observer.observe(fault)
            assert instrumented.effect == plain

    def test_regions_are_meaningful(self, golden, observer):
        regions = set()
        faults = generate_faults(
            Component.L1D,
            component_bits(SCALED_A9_CONFIG, Component.L1D),
            golden.cycles,
            count=12,
            seed=17,
        )
        for fault in faults:
            observation = observer.observe(fault)
            if observation.target_region:
                regions.add(observation.target_region)
        # A running system holds both user and kernel lines in L1D.
        assert regions  # at least something live was struck
        valid_names = {
            "kernel_text", "kernel_data", "page_table", "user_text",
            "user_data", "user_stack", "output_buffer", "os_background",
            "check_text", "golden_buffer", "unmapped",
        }
        assert regions <= valid_names

    def test_liveness_follows_the_struck_cell(self, workload, golden, observer):
        """REGFILE: live iff the register is architectural.  DTLB: live in
        a valid entry's physical page, dead in its unused attribute bits."""
        rf = observer.injector.system.rf
        for fault in generate_faults(
            Component.REGFILE,
            component_bits(SCALED_A9_CONFIG, Component.REGFILE),
            golden.cycles,
            count=6,
            seed=5,
        ):
            observation = observer.observe(fault)
            assert observation.target_live == rf.is_architectural(
                rf.slot_of(fault.bit_index)
            )

        snapshots = observer.injector.image.snapshots
        snapshot = snapshots[len(snapshots) // 2]
        probe = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        snapshot.restore(probe)
        entry = next(i for i, e in enumerate(probe.dtlb.entries) if e.valid)
        base = entry * SCALED_A9_CONFIG.dtlb.entry_bits
        live = observer.observe(
            Fault(Component.DTLB, base + PPN_FIELD.start, snapshot.cycle)
        )
        padding = observer.observe(
            Fault(Component.DTLB, base + PERM_FIELD.stop, snapshot.cycle)
        )
        assert live.target_live and live.target_region is None
        assert not padding.target_live
        assert padding.effect is FaultEffect.MASKED


class TestClusterSizes:
    def test_cluster_flips_are_applied(self, workload, golden):
        """A 2-bit cluster in the same byte of a live line produces a
        different corruption than a single bit (sanity via determinism)."""
        fault = Fault(Component.L1D, bit_index=8, cycle=golden.cycles // 2)
        single = run_single_injection(
            workload, fault, SCALED_A9_CONFIG, golden, cluster_size=1
        )
        double = run_single_injection(
            workload, fault, SCALED_A9_CONFIG, golden, cluster_size=2
        )
        assert single in set(FaultEffect)
        assert double in set(FaultEffect)

    def test_cluster_wraps_population(self, workload, golden):
        bits = component_bits(SCALED_A9_CONFIG, Component.ITLB)
        fault = Fault(Component.ITLB, bit_index=bits - 1, cycle=100)
        effect = run_single_injection(
            workload, fault, SCALED_A9_CONFIG, golden, cluster_size=4
        )
        assert effect in set(FaultEffect)

    def test_instrumented_cluster_matches_plain(self, workload, golden, prepared):
        """An observed injection honours cluster_size: for every cluster
        the observed effect equals the plain injector's (the observer
        changes what is observed, never what is flipped)."""
        faults = (
            Fault(Component.L1D, bit_index=8, cycle=golden.cycles // 2),
            Fault(Component.REGFILE, bit_index=3, cycle=golden.cycles // 3),
        )
        observers = {
            cluster: StrikeObserver(
                dataclasses.replace(prepared[1], cluster_size=cluster)
            )
            for cluster in (1, 2, 4)
        }
        for fault in faults:
            for cluster in (1, 2, 4):
                plain = run_single_injection(
                    workload, fault, SCALED_A9_CONFIG, golden,
                    cluster_size=cluster,
                )
                observation = observers[cluster].observe(fault)
                assert observation.effect is plain, (fault, cluster)
