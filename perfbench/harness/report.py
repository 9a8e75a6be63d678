"""Metric names, units, and the assembly of one run's result."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
from pathlib import Path

from harness.stats import latency_summary

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "inj_per_s": "inj/s",
    "inj_ms_p50": "ms",
    "inj_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}

COMPONENTS = ("L2", "L1D", "L1I", "REGFILE", "DTLB", "ITLB")

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "workloads.program_build_s": "s",
    "workloads.program_builds": "count",
    "microarch.golden_run_s": "s",
    "microarch.capture_s": "s",
    "microarch.system_build_s": "s",
    "microarch.system_builds": "count",
    "microarch.restore_s": "s",
    "microarch.restores": "count",
    "microarch.run_self_s": "s",
    "microarch.sim_cycles": "cycles",
    "microarch.ns_per_cycle": "ns",
    "microarch.translated_frac": "ratio",
    "microarch.blocks_compiled": "count",
    "microarch.digest_s": "s",
    "microarch.digest_calls": "count",
    "observability.taint_install_s": "s",
    "observability.taint_installs": "count",
    "observability.events_per_inj": "events",
    **{f"injection.inj_per_s.{name}": "inj/s" for name in COMPONENTS},
    "injection.ended_early_frac": "ratio",
    "injection.classify_s": "s",
    "injection.farm_busy_frac": "ratio",
    "injection.journal_append_s": "s",
    "injection.journal_appends": "count",
    "injection.retries": "count",
    "injection.worker_deaths": "count",
    "failed_frac": "ratio",
    "beam.warmup_s": "s",
    "beam.board_resolved_frac": "ratio",
    "beam.strikes_per_s": "strikes/s",
    "beam.strike_ms_p50": "ms",
    "beam.strike_ms_tail": "ms",
    "experiments.render_s": "s",
    "experiments.render_s.rawfit": "s",
    "experiments.render_s.counters": "s",
    "experiments.render_s.table1": "s",
    "fabric.lease_ms_p50": "ms",
    "fabric.report_ms_p50": "ms",
    "fabric.leases": "count",
    "fabric.worker_busy_frac": "ratio",
    "fabric.store_commit_s": "s",
    "fabric.dedup_frac": "ratio",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(data, sampler=None) -> tuple[dict, dict]:
    """``(metrics, latency detail)`` of an untraced run.

    With a :class:`~harness.calibrate.SpeedSampler`, every time has the
    sampler's own time inside its interval removed and is divided by the
    host-speed factor of that interval (reference seconds); without one
    the values are raw host seconds.
    """

    def seconds(start: float, end: float, pad: float = 0.1) -> float:
        if sampler is None:
            return end - start
        busy = sampler.busy_between(start, end)
        return (end - start - busy) / sampler.factor_between(start, end, pad)

    def total(intervals) -> float:
        return sum(seconds(start, end) for start, end in intervals)

    # A fault run known only by its duration (a farm worker's) is judged
    # by the host speed over the whole fault phase.
    unplaced = (
        sampler.factor_over(data.phase_intervals) if sampler is not None else 1.0
    )
    phase = total(data.phase_intervals) - total(data.phase_excluded)
    # A single fault run spans few samples; judging it by the host speed
    # of the surrounding second trades a little locality for a factor
    # averaged over ~20 samples instead of 2.
    times = [
        seconds(end - duration, end, pad=0.5) if end is not None
        else duration / unplaced
        for end, duration in data.fault_samples
    ]
    latency = latency_summary(times) if times else {
        "p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 0, "samples": 0,
    }
    values = {
        "wall_s": seconds(*data.window),
        "setup_s": total(data.setup_intervals),
        "inj_per_s": len(times) / phase if phase > 0 else 0.0,
        "inj_ms_p50": latency["p50_ms"],
        "inj_ms_tail": latency["tail_ms"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, latency


def per_layer(data, spans: dict, overhead: float) -> dict:
    """Per-layer values: span-derived, workload counters, zero elsewhere.

    A layer the workload does not exercise reads 0.
    """
    values = {name: 0.0 for name in PER_LAYER}
    values.update({k: v for k, v in data.layer.items() if k in PER_LAYER})
    values.update(spans)
    values["failed_frac"] = data.failed / data.attempted if data.attempted else 0.0
    values["trace.overhead"] = overhead
    return values


def normalized(values: dict, units: dict, factor: float) -> dict:
    """Convert host times and rates to reference seconds (see calibrate)."""
    out = {}
    for name, unit in units.items():
        value = values[name]
        if unit in ("s", "ms", "ns"):
            value = value / factor
        elif unit.endswith("/s"):
            value = value * factor
        out[name] = value
    return out


def metrics_payload(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- context stamp ----------------------------------------------------------


def _git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def context_stamp(root: Path, args, scale: dict) -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": _git_revision(root),
        "src_digest": _source_digest(root / "src" / "repro"),
        "workload": args.workload,
        "seed": args.seed,
        "panel": args.panel,
        "seconds": args.seconds,
        "scale": args.scale,
        "workload_scale": scale,
        "trace": args.trace,
    }
