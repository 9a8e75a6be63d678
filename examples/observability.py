#!/usr/bin/env python3
"""Microarchitectural observability: where did the fault strike?

Section IV-C: unlike beam experiments, microarchitecture-level injection
"offers significant amount of observability, allowing distinction of where
exactly did the fault strike (e.g., whether it was on kernel or user mode
or data, whether the corrupted entry was used or not) but also detailed
information of what was the system effect."

This example runs an observed mini-campaign on the L1 data cache - every
injection goes through the campaign engine with a strike-site observer as
its pre-flip hook - and breaks the outcomes down by the memory region the
struck line was holding: the analysis a beam experiment fundamentally
cannot produce.
"""

from collections import Counter, defaultdict

from repro import get_workload
from repro.injection.campaign import CampaignConfig, StrikeObserver, prepare_image
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.microarch.config import SCALED_A9_CONFIG

FAULTS = 60


def main() -> None:
    workload = get_workload("Qsort")
    print(f"instrumented campaign: {FAULTS} L1D faults into {workload.name}\n")

    golden, image = prepare_image(workload, CampaignConfig(machine=SCALED_A9_CONFIG))
    observer = StrikeObserver(image)
    faults = generate_faults(
        Component.L1D,
        component_bits(SCALED_A9_CONFIG, Component.L1D),
        golden.cycles,
        count=FAULTS,
        seed=7,
    )

    by_region = defaultdict(Counter)
    modes = Counter()
    for fault in faults:
        observation = observer.observe(fault)
        region = observation.target_region or "(invalid line)"
        by_region[region][observation.effect.label] += 1
        modes[observation.mode_at_injection] += 1

    print(f"strike mode: {dict(modes)}\n")
    print(f"{'struck region':16s} {'strikes':>8s}  outcome breakdown")
    for region, outcomes in sorted(
        by_region.items(), key=lambda item: -sum(item[1].values())
    ):
        total = sum(outcomes.values())
        detail = ", ".join(f"{label} x{count}" for label, count in outcomes.items())
        print(f"{region:16s} {total:>8d}  {detail}")

    print(
        "\nreading: strikes on lines holding kernel text/data threaten the"
        "\nsystem; user data strikes produce SDCs; invalid lines mask."
    )


if __name__ == "__main__":
    main()
