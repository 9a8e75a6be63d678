"""The four benchmark workloads.

Each workload drives only the public calls that ``repro inject``,
``repro beam``, ``repro report`` and ``repro serve``/``repro work``
already make, in one closed loop: a single caller waits for each campaign
before starting the next.  A workload returns a :class:`RunData` with the
raw measurements; :mod:`harness.report` turns it into named metrics.

Inputs come in two parts:

- the **reference panel**: the timed campaigns.  Their campaign seed is
  ``panel`` (default 0, the seed ``repro inject``/``repro beam`` use by
  default and the only one ``repro report`` uses), so every run times
  the same faults and strikes and the end-to-end figures move with the
  code and the host, not with the draw;
- the **probe**: one small campaign whose ``CampaignConfig.seed`` /
  ``BeamCampaignConfig.seed`` is the benchmark's ``--seed``.  It runs
  after the measured window, is checked like the panel, and prints its
  digest, so each seed exercises fresh faults without moving the timings.

Work per run is fixed by the arguments, never by how fast the host is, so
two commits measured with the same arguments execute exactly the same
faults.  ``seconds`` sizes the panel so that a run measures about that
long on a 2-core host; ``tiny`` shrinks every workload to a smoke test.
"""

from __future__ import annotations

import itertools
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from harness.stats import effect_digest
from harness.tracing import Patcher, SpanRecorder

clock = time.perf_counter

#: Fault-effect classes a beam tally may contain.
LEGAL_CLASSES = {"MASKED", "SDC", "APP_CRASH", "SYS_CRASH"}

#: The three programs of inject-default and beam-default: Table III's
#: CPU-bound (CRC32), control-plus-memory (Qsort) and short kernel-resident
#: (StringSearch) classes.
PROGRAMS = ("CRC32", "Qsort", "StringSearch")
TINY_PROGRAMS = ("StringSearch",)
#: The probe's program where one program suffices (cheapest set-up).
PROBE_PROGRAM = "StringSearch"

#: ``repro report all`` renders these drivers, in this order.
REPORT_DRIVERS = (
    "table1", "table2", "table3", "table4", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig10", "counters", "rawfit",
)


@dataclass
class RunData:
    """Raw measurements of one workload run (host seconds throughout)."""

    workload: str
    scale: dict
    #: Host-clock ``(start, end)`` intervals of set-up work and of the
    #: fault phase; ``phase_excluded`` are set-up intervals nested inside
    #: the fault phase (a fabric worker builds its image inside a lease).
    setup_intervals: list = field(default_factory=list)
    phase_intervals: list = field(default_factory=list)
    phase_excluded: list = field(default_factory=list)
    #: ``(end, seconds)`` of each timed fault run (an injection, or on
    #: beam-default a modelled-component strike); ``end`` is ``None`` when
    #: only the duration is known.
    fault_samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: ``(name, ok, detail)`` correctness checks.
    checks: list = field(default_factory=list)
    #: Digests of the panel's and the probe's outputs: ``digests`` may be
    #: pinned, ``info_digests`` are printed only.
    digests: dict = field(default_factory=dict)
    info_digests: dict = field(default_factory=dict)
    #: Per-layer values that need no span (telemetry, exact counts).
    layer: dict = field(default_factory=dict)
    #: ``(start, end)`` of the measured window.
    window: tuple = (0.0, 0.0)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def close_window(self, start: float) -> None:
        self.window = (start, clock())

    @property
    def fault_phase_s(self) -> float:
        return _span_sum(self.phase_intervals) - _span_sum(self.phase_excluded)


def _span_sum(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _phase(recorder: SpanRecorder | None, name: str, **attrs):
    return recorder.span(name, **attrs) if recorder is not None else nullcontext()


def recording_telemetry():
    """A ``CampaignTelemetry`` that also keeps every live wall time.

    ``run_injection_plan`` and the fabric coordinator already time each
    injection and hand the figure to their telemetry; keeping it costs one
    append and needs no wrapper around the injection itself.
    """
    from repro.injection.telemetry import CampaignTelemetry

    class RecordingTelemetry(CampaignTelemetry):
        def __init__(self):
            super().__init__()
            #: ``(recorded at, seconds)`` per live injection.
            self.walls: list[tuple[float, float]] = []
            self.component_walls: dict[str, list[float]] = {}
            self.event_count = 0

        def record(self, component, effect, wall_time=0.0, replayed=False,
                   ended_by="full", cycles_saved=0, events=None):
            super().record(component, effect, wall_time, replayed=replayed,
                           ended_by=ended_by, cycles_saved=cycles_saved,
                           events=events)
            if not replayed:
                self.walls.append((clock(), wall_time))
                self.component_walls.setdefault(component.name, []).append(
                    wall_time
                )
                self.event_count += len(events or ())

    return RecordingTelemetry()


def _injection_layer(data: RunData, walls_by_component: dict, ended_early: int,
                     events: int, retries: int, worker_deaths: int) -> None:
    """Per-component throughput and pruning/event/retry counts."""
    live = sum(len(walls) for walls in walls_by_component.values())
    for name, walls in sorted(walls_by_component.items()):
        busy = sum(walls)
        data.layer[f"injection.inj_per_s.{name}"] = len(walls) / busy if busy else 0.0
    data.layer["injection.ended_early_frac"] = ended_early / live if live else 0.0
    data.layer["observability.events_per_inj"] = events / live if live else 0.0
    data.layer["injection.retries"] = retries
    data.layer["injection.worker_deaths"] = worker_deaths


def _telemetry_layer(data: RunData, telemetry) -> None:
    _injection_layer(
        data,
        telemetry.component_walls,
        telemetry.ended_digest + telemetry.ended_dead_cell,
        telemetry.event_count,
        telemetry.retries,
        telemetry.worker_deaths,
    )


def _effect_lines(prefix: str, plan, effects) -> list[str]:
    """``program|component|index|bit|cycle|effect``, one line per fault."""
    return [
        f"{prefix}|{component.name}|{index}|{fault.bit_index}|{fault.cycle}|"
        f"{effect.name if effect is not None else 'QUARANTINED'}"
        for component, column in effects.items()
        for index, (fault, effect) in enumerate(zip(plan[component], column))
    ]


def check_beam_result(data: RunData, name: str, result) -> list[str]:
    """Internal consistency of one beam tally; returns its digest lines."""
    counts = {effect.name: count for effect, count in result.counts.items()}
    total = sum(counts.values())
    expected = result.strikes_simulated + result.platform_strikes
    data.check(
        f"{name}: beam counts sum to strikes",
        total == expected,
        f"{total} counted, {expected} strikes",
    )
    illegal = set(counts) - LEGAL_CLASSES
    data.check(f"{name}: beam classes legal", not illegal, ",".join(sorted(illegal)))
    return [f"{name}|{key}|{counts[key]}" for key in sorted(counts)] + [
        f"{name}|strikes|{result.strikes_simulated}|{result.platform_strikes}"
    ]


# -- inject-default -----------------------------------------------------------


def inject_default(panel, seed, seconds, tiny, workdir, recorder=None) -> RunData:
    """``repro inject`` on three programs, default flags, cache bypassed."""
    from repro.injection.campaign import (
        CampaignConfig,
        build_fault_plan,
        prepare_image,
    )
    from repro.injection.parallel import run_injection_plan
    from repro.workloads import get_workload

    programs = TINY_PROGRAMS if tiny else PROGRAMS
    faults = 1 if tiny else max(1, seconds)
    config = CampaignConfig(faults_per_component=faults, seed=panel, jobs=1)
    probe_config = CampaignConfig(faults_per_component=1, seed=seed, jobs=1)
    data = RunData(
        "inject-default",
        {"programs": list(programs), "faults_per_component": faults,
         "components": 6, "jobs": 1,
         "probe": {"program": PROBE_PROGRAM, "faults_per_component": 1}},
    )
    telemetry = recording_telemetry()
    lines: list[str] = []
    start = clock()
    for name in programs:
        workload = get_workload(name)
        with _phase(recorder, "inject.setup", program=name):
            began = clock()
            golden, image = prepare_image(workload, config)
            data.setup_intervals.append((began, clock()))
        plan = build_fault_plan(config, golden.cycles)
        quarantined: list = []
        with _phase(recorder, "inject.plan", program=name):
            began = clock()
            effects = run_injection_plan(
                image, plan, jobs=1, telemetry=telemetry, quarantined=quarantined
            )
            data.phase_intervals.append((began, clock()))
        data.attempted += sum(len(column) for column in plan.values())
        data.failed += len(quarantined)
        lines += _effect_lines(name, plan, effects)
        if name == PROBE_PROGRAM:
            probe_image = (golden.cycles, image)
    data.close_window(start)
    data.fault_samples = list(telemetry.walls)
    data.check(
        "every planned fault classified",
        len(lines) == data.attempted
        and telemetry.completed + telemetry.quarantined == data.attempted,
        f"{len(lines)} lines, {data.attempted} planned",
    )
    data.digests["effects"] = effect_digest(lines)
    _telemetry_layer(data, telemetry)
    data.layer["injection.farm_busy_frac"] = (
        telemetry.injection_seconds / data.fault_phase_s if data.fault_phase_s else 0.0
    )

    cycles, image = probe_image
    plan = build_fault_plan(probe_config, cycles)
    quarantined = []
    effects = run_injection_plan(image, plan, jobs=1, quarantined=quarantined)
    data.attempted += sum(len(column) for column in plan.values())
    data.failed += len(quarantined)
    probe_lines = _effect_lines(PROBE_PROGRAM, plan, effects)
    data.check("probe classified", len(probe_lines) == 6)
    data.digests["probe_effects"] = effect_digest(probe_lines)
    return data


# -- beam-default -------------------------------------------------------------


def _timed_beam_experiment():
    """``BeamExperiment`` that timestamps each strike it executes.

    Two clock reads per strike (a strike takes milliseconds to seconds):
    the one per-strike hook an untraced run installs, because
    ``run_workload`` is the only public call and per-strike latency is a
    named metric.  Should a refactor stop calling the strike seam, the
    run fails its "every simulated strike timed" check.
    """
    from repro.beam.experiment import BeamExperiment

    class TimedBeamExperiment(BeamExperiment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            #: ``(end, seconds)`` per executed strike.
            self.strike_times: list[tuple[float, float]] = []
            self.first_strike: float | None = None

        def _strike_effect(self, *args, **kwargs):
            began = clock()
            if self.first_strike is None:
                self.first_strike = began
            try:
                return super()._strike_effect(*args, **kwargs)
            finally:
                ended = clock()
                self.strike_times.append((ended, ended - began))

    return TimedBeamExperiment


def beam_default(panel, seed, seconds, tiny, workdir, recorder=None) -> RunData:
    """``repro beam`` on the three programs, cache bypassed."""
    from repro.beam.experiment import BeamCampaignConfig
    from repro.workloads import get_workload

    programs = TINY_PROGRAMS if tiny else PROGRAMS
    hours = 12.0 if tiny else 3.0 * seconds
    data = RunData(
        "beam-default",
        {"programs": list(programs), "beam_hours": hours,
         "probe": {"program": PROBE_PROGRAM, "beam_hours": hours}},
    )
    experiment_cls = _timed_beam_experiment()

    def campaign(name: str, campaign_seed: int):
        experiment = experiment_cls(
            BeamCampaignConfig(beam_hours=hours, seed=campaign_seed),
            cache_dir=workdir / "beam-cache",
        )
        began = clock()
        result = experiment.run_workload(get_workload(name), use_cache=False)
        ended = clock()
        times = experiment.strike_times
        data.check(
            f"{name} seed {campaign_seed}: every simulated strike timed",
            len(times) == result.strikes_simulated,
            f"{len(times)} timed, {result.strikes_simulated} simulated",
        )
        first = experiment.first_strike or ended
        data.attempted += result.strikes_simulated + result.platform_strikes
        return result, times, (began, first), (first, ended)

    lines: list[str] = []
    strikes = 0
    start = clock()
    for name in programs:
        with _phase(recorder, "beam.program", program=name):
            result, times, setup, phase = campaign(name, panel)
        data.setup_intervals.append(setup)
        data.phase_intervals.append(phase)
        data.fault_samples += times
        strikes += result.strikes_simulated
        lines += check_beam_result(data, name, result)
    data.close_window(start)
    data.check("strikes simulated", strikes > 0, f"{strikes} strikes")
    data.info_digests["beam_tallies"] = effect_digest(lines)
    data.layer["beam.strikes"] = strikes
    data.layer["beam.strikes_per_s"] = (
        strikes / data.fault_phase_s if data.fault_phase_s else 0.0
    )

    result, *_ = campaign(PROBE_PROGRAM, seed)
    data.info_digests["probe_beam_tallies"] = effect_digest(
        check_beam_result(data, f"probe {PROBE_PROGRAM}", result)
    )
    return data


# -- fabric-loopback ----------------------------------------------------------


FABRIC_PROGRAM = "StringSearch"


def fabric_loopback(panel, seed, seconds, tiny, workdir, recorder=None) -> RunData:
    """Coordinator + loopback HTTP + one worker; a superset resubmission."""
    from repro.fabric import (
        CampaignSpec,
        Coordinator,
        FabricClient,
        FabricWorker,
        FaultStore,
    )
    from repro.fabric.coordinator import create_server
    from repro.injection.campaign import CampaignConfig, run_golden
    from repro.injection.journal import read_journal
    from repro.workloads import get_workload

    first = 1 if tiny else max(1, round(1.6 * seconds))
    data = RunData(
        "fabric-loopback",
        {"program": FABRIC_PROGRAM, "faults_per_component": [first, 2 * first],
         "components": 6, "lease_size": 8, "probe_faults_per_component": 1},
    )
    root = workdir / "fabric"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    telemetry = recording_telemetry()
    coordinator = Coordinator(FaultStore(root / "faults.db"), root / "journal",
                              telemetry=telemetry)
    server = create_server(coordinator, "127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever, name="perfbench-coordinator", daemon=True
    )
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    client = FabricClient(url, poll_interval=0.01)
    worker = FabricWorker(url, name="perfbench-worker", poll_interval=0.01)
    workload = get_workload(FABRIC_PROGRAM)
    # The worker builds its image inside its first lease of each campaign:
    # one prepare_image call per campaign, timed at that boundary.  One
    # span per lease window (eight injections), with its plan size, places
    # each reported injection where it ran.
    patcher = Patcher()
    boundary = SpanRecorder()
    patcher.function("repro.injection.campaign", "prepare_image",
                     boundary.wrap("prepare_image"))
    patcher.function(
        "repro.injection.parallel", "run_injection_plan",
        boundary.wrap("run_injection_plan", attrs=_plan_size),
    )

    def campaign(faults: int, campaign_seed: int):
        config = CampaignConfig(faults_per_component=faults, seed=campaign_seed)
        began = clock()
        golden = run_golden(workload, config.machine)
        golden_run = (began, clock())
        spec = CampaignSpec.from_config(workload.name, config, golden.cycles)
        summary = client.submit(spec)
        built = len(boundary.intervals("prepare_image"))
        began = clock()
        worker.run(max_idle_polls=1)
        phase = (began, clock())
        result = client.wait(summary["campaign_id"])
        _, records, quarantines = read_journal(
            root / "journal" / f"{summary['campaign_id']}.jsonl"
        )
        effects = {
            (record.component.name, record.index):
                f"{record.bit_index}|{record.cycle}|{record.effect.name}"
            for record in records
        }
        data.check(
            f"seed {campaign_seed} n={faults}: journal covers the plan",
            len(records) + len(quarantines) == 6 * faults,
            f"{len(records)} records",
        )
        tallied = sum(
            sum(tally.counts.values()) for tally in result.components.values()
        )
        data.check(
            f"seed {campaign_seed} n={faults}: result tallies match journal",
            tallied == len(records),
            f"{tallied} tallied, {len(records)} journaled",
        )
        lines = [
            f"{component}|{index}|{effect}"
            for (component, index), effect in sorted(effects.items())
        ]
        images = boundary.intervals("prepare_image")[built:]
        return summary, effects, lines, [golden_run, *images], phase

    campaigns = []
    try:
        start = clock()
        for faults in (first, 2 * first):
            with _phase(recorder, "fabric.campaign", faults=faults):
                outcome = campaign(faults, panel)
            data.setup_intervals += outcome[3]
            data.phase_intervals.append(outcome[4])
            data.phase_excluded += outcome[3][1:]
            campaigns.append(outcome)
        data.close_window(start)
        data.fault_samples = _place(
            telemetry.walls, boundary.named("run_injection_plan")
        )
        executed = worker.executed
        probe_lines = campaign(1, seed)[2]
    finally:
        patcher.restore()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        coordinator.close()
    data.attempted = worker.executed
    data.failed = telemetry.quarantined

    small, large = campaigns[0][1], campaigns[1][1]
    data.check(
        "superset campaign agrees on shared faults",
        all(large.get(key) == value for key, value in small.items()),
    )
    second = campaigns[1][0]
    data.check(
        "resubmission deduplicated the first campaign",
        second["already_done"] == len(small),
        f"{second['already_done']}/{second['total']}",
    )
    data.check("every panel fault executed once", executed == len(large),
               f"{executed} executed")
    data.digests["effects"] = effect_digest(campaigns[1][2])
    data.digests["probe_effects"] = effect_digest(probe_lines)
    _telemetry_layer(data, telemetry)
    data.layer["fabric.dedup_frac"] = second["already_done"] / second["total"]
    data.layer["fabric.phase_s"] = data.fault_phase_s
    return data


def _plan_size(image, plan, *args, **kwargs) -> dict:
    return {"faults": sum(len(faults) for faults in plan.values())}


def _place(walls: list, leases: list) -> list:
    """``(end, seconds)`` of each fabric injection, placed in its lease.

    The coordinator records a lease's injections when the report arrives,
    in the order the worker ran them; ``leases`` holds each lease's span
    on the worker, in the same order, so the ``faults`` next records ran
    back to back from its start.
    """
    placed: list = []
    records = iter(walls)
    for lease in leases:
        start = lease.start
        # A quarantined fault is counted in its lease but records no time.
        for _, seconds in itertools.islice(records, lease.attrs["faults"]):
            start += seconds
            placed.append((start, seconds))
    return placed


# -- report-cold --------------------------------------------------------------


def report_cold(panel, seed, seconds, tiny, workdir, recorder=None) -> RunData:
    """``repro report all`` from an empty cache and journal, ``jobs=2``.

    ``repro report`` takes no seed (its context always uses seed 0), so
    the whole report is the panel: its context seed is ``panel`` and
    ``seed`` has no probe here.
    """
    import importlib

    from repro.experiments import ExperimentContext
    from repro.injection.journal import read_journal

    faults = 1 if tiny else 2
    hours = 0.5 if tiny else 1.0
    # The reduced scale also covers the rawfit pattern test, whose 700
    # default beam hours would otherwise take 40% of the report.
    rawfit_hours = 7.0 if tiny else 35.0
    data = RunData(
        "report-cold",
        {"programs": 13, "drivers": len(REPORT_DRIVERS),
         "faults_per_component": faults, "beam_hours": hours,
         "rawfit_beam_hours": rawfit_hours, "jobs": 2},
    )
    root = workdir / "report"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    drivers = [
        (name, importlib.import_module(f"repro.experiments.{name}"))
        for name in REPORT_DRIVERS
    ]
    # Set-up and farm boundaries: each of these runs once per program.
    patcher = Patcher()
    boundary = SpanRecorder()
    patcher.function("repro.injection.campaign", "prepare_image",
                     boundary.wrap("prepare_image"))
    patcher.function("repro.injection.parallel", "run_injection_plan",
                     boundary.wrap("run_injection_plan"))
    patcher.method("repro.beam.experiment", "BeamExperiment._golden_beam_run",
                   boundary.wrap("beam_warmup"))
    patcher.function("repro.microarch.snapshot", "record_snapshots",
                     boundary.wrap("beam_snapshots"))
    render: dict[str, float] = {}
    try:
        start = clock()
        context = ExperimentContext(
            faults_per_component=faults,
            beam_hours=hours,
            cache_dir=root / "cache",
            seed=panel,
            jobs=2,
            journal_dir=root / "journal",
        )
        with _phase(recorder, "report.injection"):
            injection = context.injection_results()
        with _phase(recorder, "report.beam"):
            began = clock()
            beam = context.beam_results()
            beam_s = clock() - began
        for name, module in drivers:
            with _phase(recorder, f"report.render.{name}"):
                began = clock()
                if name == "rawfit":
                    text = module.render(context, beam_hours=rawfit_hours)
                else:
                    text = module.render(context)
                render[name] = clock() - began
            data.check(f"{name} rendered", bool(text and text.strip()))
        data.close_window(start)
    finally:
        patcher.restore()
    data.setup_intervals = (
        boundary.intervals("prepare_image") + boundary.intervals("beam_warmup")
        + boundary.intervals("beam_snapshots")
    )
    data.phase_intervals = boundary.intervals("run_injection_plan")
    beam_setup = boundary.total("beam_warmup") + boundary.total("beam_snapshots")

    telemetry = context.telemetry
    lines: list[str] = []
    by_component: dict[str, list[float]] = {}
    events = 0
    quarantined = 0
    for path in sorted((root / "journal").glob("*.jsonl")):
        meta, records, quarantines = read_journal(path)
        quarantined += len(quarantines)
        for record in records:
            data.fault_samples.append((None, record.wall_time))
            by_component.setdefault(record.component.name, []).append(
                record.wall_time
            )
            events += len(record.events)
        lines += sorted(
            f"{meta.workload}|{record.component.name}|{record.index}|"
            f"{record.bit_index}|{record.cycle}|{record.effect.name}"
            for record in records
        )
    planned = 13 * 6 * faults
    data.check("13 injection campaigns", len(injection) == 13, f"{len(injection)}")
    data.check(
        "journals cover every planned injection",
        len(lines) + quarantined == planned,
        f"{len(lines)}+{quarantined} of {planned}",
    )
    tallied = sum(
        sum(tally.counts.values())
        for result in injection.values()
        for tally in result.components.values()
    )
    data.check("tallies match journals", tallied == len(lines),
               f"{tallied} tallied, {len(lines)} journaled")
    data.digests["injection_effects"] = effect_digest(lines)
    data.failed = quarantined

    beam_lines: list[str] = []
    strikes = 0
    for name in sorted(beam):
        beam_lines += check_beam_result(data, name, beam[name])
        strikes += beam[name].strikes_simulated
    data.info_digests["beam_tallies"] = effect_digest(beam_lines)
    data.attempted = planned + sum(
        result.strikes_simulated + result.platform_strikes for result in beam.values()
    )

    _injection_layer(
        data,
        by_component,
        telemetry.ended_digest + telemetry.ended_dead_cell,
        events,
        telemetry.retries,
        telemetry.worker_deaths,
    )
    data.layer["injection.farm_busy_frac"] = (
        telemetry.injection_seconds / (2 * data.fault_phase_s)
        if data.fault_phase_s else 0.0
    )
    strike_phase = beam_s - beam_setup
    data.layer["beam.strikes"] = strikes
    data.layer["beam.strikes_per_s"] = strikes / strike_phase if strike_phase > 0 else 0.0
    data.layer["experiments.render_s"] = sum(render.values())
    for name in ("rawfit", "counters", "table1"):
        data.layer[f"experiments.render_s.{name}"] = render[name]
    return data


WORKLOADS = {
    "inject-default": inject_default,
    "beam-default": beam_default,
    "report-cold": report_cold,
    "fabric-loopback": fabric_loopback,
}
