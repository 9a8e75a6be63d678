"""Fabric wire protocol: specs, machine digests, fault identity."""

from __future__ import annotations

import dataclasses

import pytest

from repro.fabric.protocol import (
    CampaignSpec,
    FabricError,
    identity_base,
    machine_digest,
    resolve_machine,
)
from repro.injection.campaign import CampaignConfig
from repro.injection.components import Component
from repro.microarch.config import (
    CORTEX_A9_CONFIG,
    SCALED_A9_CONFIG,
)


def make_spec(**overrides) -> CampaignSpec:
    config = CampaignConfig(faults_per_component=10, seed=7)
    spec = CampaignSpec.from_config("CRC32", config, golden_cycles=123_456)
    return dataclasses.replace(spec, **overrides) if overrides else spec


class TestMachineDigest:
    def test_stable_for_equal_configs(self):
        assert machine_digest(SCALED_A9_CONFIG) == machine_digest(
            dataclasses.replace(SCALED_A9_CONFIG)
        )

    def test_sensitive_to_any_geometry_field(self):
        drifted = dataclasses.replace(SCALED_A9_CONFIG, mem_latency=31)
        assert machine_digest(drifted) != machine_digest(SCALED_A9_CONFIG)

    def test_distinguishes_the_named_configs(self):
        assert machine_digest(SCALED_A9_CONFIG) != machine_digest(
            CORTEX_A9_CONFIG
        )

    def test_resolve_verifies_the_digest(self):
        digest = machine_digest(SCALED_A9_CONFIG)
        assert resolve_machine("cortex-a9-scaled", digest) is SCALED_A9_CONFIG
        with pytest.raises(FabricError, match="drifted"):
            resolve_machine("cortex-a9-scaled", "0" * 16)
        with pytest.raises(FabricError, match="unknown machine"):
            resolve_machine("cortex-m0", digest)


class TestCampaignSpec:
    def test_payload_round_trip(self):
        spec = make_spec()
        assert CampaignSpec.from_payload(spec.to_payload()) == spec

    def test_round_trip_rebuilds_an_equivalent_config(self):
        config = CampaignConfig(
            faults_per_component=10, seed=7, cluster_size=2, early_exit=False
        )
        spec = CampaignSpec.from_config("CRC32", config, golden_cycles=999)
        rebuilt = spec.to_config()
        assert rebuilt.faults_per_component == 10
        assert rebuilt.seed == 7
        assert rebuilt.cluster_size == 2
        assert rebuilt.early_exit is False
        assert rebuilt.machine is SCALED_A9_CONFIG

    def test_campaign_id_is_stable_and_content_derived(self):
        assert make_spec().campaign_id == make_spec().campaign_id
        assert make_spec().campaign_id != make_spec(seed=8).campaign_id

    def test_adaptive_configs_are_rejected(self):
        config = CampaignConfig(target_margin=0.02)
        with pytest.raises(FabricError, match="adaptive"):
            CampaignSpec.from_config("CRC32", config, golden_cycles=1)

    def test_foreign_protocol_version_is_rejected(self):
        payload = make_spec().to_payload()
        payload["version"] = 99
        with pytest.raises(FabricError, match="protocol"):
            CampaignSpec.from_payload(payload)

    def test_component_list_resolves_enum_members(self):
        spec = make_spec(components=("L1D", "REGFILE"))
        assert spec.component_list() == (Component.L1D, Component.REGFILE)

    def test_learned_sampling_travels_and_round_trips(self):
        config = CampaignConfig(
            faults_per_component=10, seed=7, learned_sampling=True
        )
        spec = CampaignSpec.from_config("CRC32", config, golden_cycles=999)
        assert spec.learned_sampling is True
        assert spec.to_config().learned_sampling is True
        assert CampaignSpec.from_payload(spec.to_payload()) == spec
        # A flipped flag is a different campaign identity.
        assert spec.campaign_id != make_spec().campaign_id

    def test_pre_learned_payloads_still_parse(self):
        """Specs serialized before the learned_sampling field existed
        must keep parsing (dataclass default, no protocol bump)."""
        payload = make_spec().to_payload()
        del payload["learned_sampling"]
        spec = CampaignSpec.from_payload(payload)
        assert spec.learned_sampling is False

    def test_retired_engine_fields_are_dropped(self):
        """Payloads from before the engine knobs were retired keep
        parsing; only the (content-derived) campaign id changes."""
        spec = make_spec()
        payload = {
            **spec.to_payload(),
            "digest_probes": 12,
            "cow_images": False,
            "heat_threshold": 4,
            "chain": False,
            "superblocks": False,
        }
        assert CampaignSpec.from_payload(payload) == spec


class TestFaultIdentity:
    def test_identity_base_carries_the_campaign_invariants(self):
        spec = make_spec()
        base = identity_base(spec)
        assert base == {
            "workload": "CRC32",
            "machine": machine_digest(SCALED_A9_CONFIG),
            "cluster": 1,
            "seed": 7,
        }

    def test_sample_size_is_not_part_of_the_identity(self):
        # Campaigns with different n over the same stream must share
        # fault rows (the prefix property makes their faults identical).
        small = identity_base(make_spec(faults_per_component=5))
        large = identity_base(make_spec(faults_per_component=50))
        assert small == large
