"""Shipped beam results still regenerate byte-for-byte.

``.repro_cache/`` ships finished beam campaigns that ``repro report``
renders without simulating.  Regenerating a few of them from scratch
must reproduce the shipped JSON exactly; otherwise the cache has gone
stale against the code.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.beam.board import ZEDBOARD
from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.injection.classify import FaultEffect
from repro.workloads import get_workload

SHIPPED = Path(__file__).resolve().parents[2] / ".repro_cache"

#: The OS-residency ablation's board (see
#: ``benchmarks/test_ablation_os_residency.py``).
NO_OS_BOARD = dataclasses.replace(
    ZEDBOARD,
    name="zedboard-no-os",
    os_line_outcomes=((FaultEffect.MASKED, 1.0),),
)


@pytest.mark.parametrize(
    "name, config",
    [
        ("StringSearch", BeamCampaignConfig(beam_hours=300, seed=0)),
        ("Susan C", BeamCampaignConfig(beam_hours=60, seed=4)),
        ("Susan C", BeamCampaignConfig(beam_hours=60, seed=4, board=NO_OS_BOARD)),
    ],
    ids=["StringSearch-h300-s0", "Susan_C-h60-s4", "no-os-Susan_C-h60-s4"],
)
def test_regenerated_result_equals_shipped(name, config, tmp_path):
    shipped = SHIPPED / f"{config.cache_key(name)}.json"
    experiment = BeamExperiment(config, cache_dir=tmp_path)
    result = experiment.run_workload(get_workload(name), use_cache=False)
    assert result.to_dict() == json.loads(shipped.read_text())
