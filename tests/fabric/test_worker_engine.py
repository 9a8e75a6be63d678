"""Fabric workers honor the campaign's engine switch.

The wire protocol carries the submitter's ``translate`` switch so a
worker rebuilds the campaign with the *same* engine the submitter would
use locally: the accelerated engine (block translator plus copy-on-write
restores) or the reference engine (interpreter plus full-sweep
restores).  Effects are bit-identical either way, but a worker silently
dropping ``translate`` would run an order of magnitude slower than the
farm operator expects, so the threading is pinned here:

- a spec round-trip preserves the switch;
- the worker-side campaign context builds a translator and a
  :class:`~repro.microarch.snapshot.DeltaRestorer` (and neither when the
  spec says interpret);
- an injection through the translated context actually *runs*
  translated blocks, and its effect matches the interpreted context's.
"""

from __future__ import annotations

import pytest

from repro.fabric.protocol import CampaignSpec
from repro.fabric.worker import _CampaignContext
from repro.injection.campaign import CampaignConfig, prepare_image
from repro.injection.components import Component
from repro.microarch.snapshot import DeltaRestorer
from repro.workloads import get_workload

WORKLOAD = "StringSearch"


@pytest.fixture(scope="module")
def golden_cycles():
    workload = get_workload(WORKLOAD)
    golden, _ = prepare_image(workload, CampaignConfig())
    return golden.cycles


def _spec(golden_cycles, **overrides):
    config = CampaignConfig(faults_per_component=2, seed=7, **overrides)
    return CampaignSpec.from_config(
        WORKLOAD, config, golden_cycles, (Component.REGFILE,)
    )


def test_spec_roundtrip_preserves_engine_fields(golden_cycles):
    for translate in (False, True):
        spec = _spec(golden_cycles, translate=translate)
        wire = CampaignSpec.from_payload(spec.to_payload())
        assert wire.to_config().translate is translate


def test_worker_context_runs_translated(golden_cycles):
    context = _CampaignContext(_spec(golden_cycles))
    translator = context.injector.translator
    assert translator is not None
    assert isinstance(context.injector._restorer, DeltaRestorer)

    fault = context.plan[Component.REGFILE][0]
    effect = context.injector.run_fault(fault)
    assert translator.block_runs > 0, "worker context never ran a block"

    interpreted = _CampaignContext(_spec(golden_cycles, translate=False))
    assert interpreted.injector.translator is None
    assert interpreted.injector._restorer is None
    assert interpreted.injector.run_fault(fault) == effect
