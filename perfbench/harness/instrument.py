"""The traced run: span wrappers at every layer boundary, and the split.

:func:`install` wraps the callables named below (``src/`` is untouched)
and returns an :class:`Instrumentation` whose ``patcher.restore()`` puts
every original back.  :func:`layer_metrics` turns the recorded spans plus
the workload's own counters into the per-layer metrics.

One injection (``ImageInjector.run_fault``) or one beam strike
(``BeamExperiment._strike_effect``) opens a *unit* span; every span
beneath it carries the unit's id.  A listed callable that no longer
exists makes :func:`install` raise, so the traced run fails instead of
reporting the layer as unexercised.  Farm workers are forked processes:
their spans stay in the worker, so on report-cold the injection layers
are seen through the farm's own telemetry instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from harness.stats import harrell_davis, tail_percentile
from harness.tracing import Patcher, SpanRecorder

#: (module, function) pairs wrapped wherever the package refers to them.
FUNCTIONS = (
    ("repro.injection.campaign", "run_golden"),
    ("repro.injection.campaign", "record_golden_observables"),
    ("repro.injection.campaign", "prepare_image"),
    ("repro.injection.parallel", "run_injection_plan"),
    ("repro.microarch.snapshot", "record_snapshots"),
    ("repro.microarch.digest", "system_digest"),
    ("repro.microarch.digest", "arch_digest"),
    ("repro.observability.taint", "install_taint"),
    ("repro.injection.classify", "classify_run"),
)

#: (module, "Class.method") pairs wrapped on the class.
METHODS = (
    ("repro.microarch.system", "System.__init__"),
    ("repro.microarch.snapshot", "SystemSnapshot.restore"),
    ("repro.microarch.snapshot", "DeltaRestorer.restore"),
    ("repro.injection.journal", "InjectionJournal.record"),
    ("repro.beam.board", "BoardModel.sample_os_line_outcome"),
    ("repro.fabric.store", "FaultStore.complete"),
    ("repro.fabric.store", "FaultStore.quarantine"),
)


@dataclass
class Instrumentation:
    recorder: SpanRecorder
    patcher: Patcher
    #: ``(built at, injector)`` per ``ImageInjector`` built in this
    #: process (translator counters).
    injectors: list = field(default_factory=list)


def install(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer boundary; undo with ``.patcher.restore()``."""
    import repro.beam.experiment  # noqa: F401 - load every wrapped module
    import repro.experiments  # noqa: F401
    import repro.fabric  # noqa: F401
    import repro.injection.parallel  # noqa: F401

    patcher = Patcher()
    inst = Instrumentation(recorder, patcher)
    try:
        for module, name in FUNCTIONS:
            patcher.function(module, name, recorder.wrap(name))
        for module, qualname in METHODS:
            patcher.method(module, qualname, recorder.wrap(qualname))
        patcher.method("repro.injection.parallel", "ImageInjector.run_fault",
                       recorder.wrap("ImageInjector.run_fault", unit=True))
        patcher.method("repro.beam.experiment", "BeamExperiment._strike_effect",
                       recorder.wrap("BeamExperiment._strike_effect", unit=True))
        patcher.method("repro.beam.experiment", "BeamExperiment._golden_beam_run",
                       recorder.wrap("beam.golden_beam_run"))
        patcher.method("repro.microarch.system", "System.run", _run_wrapper(recorder))
        patcher.method("repro.workloads.base", "Workload.program",
                       _program_wrapper(recorder))
        patcher.method("repro.injection.parallel", "ImageInjector.__init__",
                       _collect(inst.injectors, recorder.clock))
        patcher.function("repro.fabric.protocol", "post_json",
                         _post_wrapper(recorder))
    except BaseException:
        patcher.restore()
        raise
    return inst


def _run_wrapper(recorder: SpanRecorder):
    """``System.run`` span; inside a unit it also counts simulated work."""

    def make_wrapper(original):
        def run(system, *args, **kwargs):
            span = recorder.open("System.run")
            core = system.core
            cycles, instructions = core.cycle, core.icount
            try:
                return original(system, *args, **kwargs)
            finally:
                if span.unit is not None:
                    span.attrs["cycles"] = core.cycle - cycles
                    span.attrs["instructions"] = core.icount - instructions
                recorder.close(span)

        run.__wrapped__ = original
        return run

    return make_wrapper


def _program_wrapper(recorder: SpanRecorder):
    """``Workload.program`` span, marked ``built`` when it assembled."""

    def make_wrapper(original):
        def program(workload, *args, **kwargs):
            memo = getattr(workload, "_programs", None)
            before = len(memo) if memo is not None else -1
            span = recorder.open("workloads.program")
            try:
                return original(workload, *args, **kwargs)
            finally:
                span.attrs["built"] = before < 0 or len(memo) > before
                recorder.close(span)

        program.__wrapped__ = original
        return program

    return make_wrapper


def _collect(injectors: list, clock):
    def make_wrapper(original):
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            injectors.append((clock(), self))

        init.__wrapped__ = original
        return init

    return make_wrapper


def _post_wrapper(recorder: SpanRecorder):
    """Fabric HTTP round trips, named by endpoint (``fabric.post.lease``)."""

    def make_wrapper(original):
        def post_json(url, *args, **kwargs):
            span = recorder.open("fabric.post." + url.rstrip("/").rsplit("/", 1)[-1])
            try:
                response = original(url, *args, **kwargs)
                span.attrs["idle"] = bool(response.get("idle"))
                return response
            finally:
                recorder.close(span)

        post_json.__wrapped__ = original
        return post_json

    return make_wrapper


def layer_metrics(inst: Instrumentation, data) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced workload run."""
    start, end = data.window
    rec = inst.recorder.clipped(start, end)
    spans = rec.spans

    def count(*names: str) -> int:
        return len(rec.named(*names))

    out: dict[str, float] = {}
    built = [s for s in spans if s.name == "workloads.program" and s.attrs.get("built")]
    out["workloads.program_build_s"] = sum(s.duration for s in built)
    out["workloads.program_builds"] = len(built)

    out["microarch.golden_run_s"] = rec.total("run_golden", "beam.golden_beam_run")
    out["microarch.capture_s"] = rec.total(
        "record_golden_observables", "record_snapshots"
    )
    out["microarch.system_build_s"] = rec.total("System.__init__")
    out["microarch.system_builds"] = count("System.__init__")
    restores = ("SystemSnapshot.restore", "DeltaRestorer.restore")
    out["microarch.restore_s"] = rec.total(*restores)
    out["microarch.restores"] = count(*restores)
    out["microarch.run_self_s"] = rec.self_time("System.run")
    unit_runs = [s for s in spans if s.name == "System.run" and s.unit is not None]
    cycles = sum(s.attrs.get("cycles", 0) for s in unit_runs)
    instructions = sum(s.attrs.get("instructions", 0) for s in unit_runs)
    out["microarch.sim_cycles"] = cycles
    out["microarch.ns_per_cycle"] = (
        rec.self_time("System.run", in_unit=True) / cycles * 1e9 if cycles else 0.0
    )
    # Injectors built after the window (the probe's) ran outside it.
    translators = [
        injector.translator
        for built, injector in inst.injectors
        if start <= built <= end and injector.translator is not None
    ]
    translated = sum(t.translated_instructions for t in translators)
    out["microarch.translated_frac"] = translated / instructions if instructions else 0.0
    out["microarch.blocks_compiled"] = sum(t.compiled for t in translators)
    out["microarch.digest_s"] = rec.total("system_digest", "arch_digest")
    out["microarch.digest_calls"] = count("system_digest", "arch_digest")

    out["observability.taint_install_s"] = rec.total("install_taint")
    out["observability.taint_installs"] = count("install_taint")

    out["injection.classify_s"] = rec.total("classify_run")
    out["injection.journal_append_s"] = rec.total("InjectionJournal.record")
    out["injection.journal_appends"] = count("InjectionJournal.record")

    strikes = data.layer.get("beam.strikes", 0)
    out["beam.warmup_s"] = rec.total("beam.golden_beam_run")
    board = [
        s for s in spans
        if s.name == "BoardModel.sample_os_line_outcome" and s.unit is not None
    ]
    out["beam.board_resolved_frac"] = len(board) / strikes if strikes else 0.0

    leases = [s for s in spans if s.name == "fabric.post.lease"]
    reports = [s for s in spans if s.name == "fabric.post.report"]
    out["fabric.lease_ms_p50"] = (
        harrell_davis([s.duration for s in leases], 0.5) * 1e3 if leases else 0.0
    )
    out["fabric.report_ms_p50"] = (
        harrell_davis([s.duration for s in reports], 0.5) * 1e3 if reports else 0.0
    )
    out["fabric.leases"] = sum(1 for s in leases if not s.attrs.get("idle"))
    phase = data.layer.get("fabric.phase_s", 0.0)
    worker_plans = rec.total("run_injection_plan") if leases else 0.0
    out["fabric.worker_busy_frac"] = worker_plans / phase if phase else 0.0
    out["fabric.store_commit_s"] = rec.total("FaultStore.complete", "FaultStore.quarantine")

    strike_times = [
        s.duration for s in spans if s.name == "BeamExperiment._strike_effect"
    ]
    if strike_times:
        tail = tail_percentile(len(strike_times)) / 100.0
        out["beam.strike_ms_p50"] = harrell_davis(strike_times, 0.5) * 1e3
        out["beam.strike_ms_tail"] = harrell_davis(strike_times, tail) * 1e3
    out["trace.unattributed_s"] = rec.unattributed(start, end)
    return out
