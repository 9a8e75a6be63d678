"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python -m pytest perfbench/tests -q

The smoke test runs every workload at ``--scale tiny``; report-cold still
renders all 14 drivers over the 13 programs, so the module takes a few
minutes.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from harness import instrument  # noqa: E402
from harness.report import COMPONENTS, END_TO_END, PER_LAYER  # noqa: E402
from harness.tracing import SpanRecorder  # noqa: E402
from harness.workloads import WORKLOADS, inject_default  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

#: Per-layer metrics the README's layer table says each workload
#: exercises; a wrapper that stops seeing its callable reads 0 here.
EXERCISED = {
    "inject-default": (
        "workloads.program_builds", "microarch.golden_run_s",
        "microarch.capture_s", "microarch.system_builds",
        "microarch.restore_s", "microarch.restores", "microarch.run_self_s",
        "microarch.sim_cycles", "microarch.ns_per_cycle",
        "microarch.translated_frac", "microarch.blocks_compiled",
        "microarch.digest_s", "microarch.digest_calls",
        "observability.taint_install_s", "observability.taint_installs",
        "observability.events_per_inj",
        *(f"injection.inj_per_s.{name}" for name in COMPONENTS),
        "injection.classify_s",
    ),
    "beam-default": (
        "microarch.golden_run_s", "microarch.system_build_s",
        "microarch.system_builds", "microarch.restore_s",
        "microarch.restores", "microarch.run_self_s", "microarch.sim_cycles",
        "microarch.ns_per_cycle", "beam.warmup_s", "beam.strikes_per_s",
        "beam.strike_ms_p50", "beam.strike_ms_tail",
    ),
    "report-cold": (
        "workloads.program_build_s", "workloads.program_builds",
        "microarch.golden_run_s", "microarch.capture_s",
        "injection.farm_busy_frac", "injection.journal_append_s",
        "injection.journal_appends", "beam.strikes_per_s",
        "experiments.render_s", "experiments.render_s.rawfit",
        "experiments.render_s.counters", "experiments.render_s.table1",
    ),
    "fabric-loopback": (
        "microarch.restores", "microarch.sim_cycles",
        "injection.journal_append_s", "injection.journal_appends",
        "fabric.lease_ms_p50", "fabric.report_ms_p50", "fabric.leases",
        "fabric.worker_busy_frac", "fabric.store_commit_s", "fabric.dedup_frac",
    ),
}


def run_bench(*args: str) -> tuple[int, dict, dict]:
    """Run the benchmark command; returns (exit code, record, result)."""
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    record = json.loads(lines[-2]) if len(lines) >= 2 else {}
    result = json.loads(lines[-1]) if lines else {}
    return completed.returncode, record, result


def test_tables_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_emits_every_metric(workload):
    """One traced run: its untraced child gives the end-to-end metrics."""
    code, record, result = run_bench(
        "--workload", workload, "--seed", "1", "--trace", "1", "--scale", "tiny"
    )
    assert code == 0, record.get("failed_checks")
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    untraced = record["untraced_metrics"]
    for spec in SPEC["end_to_end"]:
        metric = untraced[spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0, spec["name"]
    assert result["metrics"]["trace.overhead"]["value"] > 0
    context = record["context"]
    for key in ("cores", "python", "git_revision", "seed", "workload_scale"):
        assert key in context


def test_wrappers_do_not_leak(tmp_path):
    recorder = SpanRecorder()
    inst = instrument.install(recorder)
    wrapped = list(inst.patcher._undo)
    try:
        inject_default(0, 1, 1, True, tmp_path, recorder)
    finally:
        inst.patcher.restore()
    assert wrapped and recorder.spans
    for owner, attr, original in wrapped:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} still wrapped"
    recorded = len(recorder.spans)
    inject_default(0, 1, 1, True, tmp_path)
    assert len(recorder.spans) == recorded


def test_install_fails_on_a_missing_seam(monkeypatch):
    from repro.microarch.system import System

    init = System.__init__
    monkeypatch.setattr(
        instrument, "METHODS",
        instrument.METHODS + (("repro.microarch.system", "System.no_such_seam"),),
    )
    with pytest.raises(AttributeError, match="no_such_seam"):
        instrument.install(SpanRecorder())
    assert System.__init__ is init


def test_wrong_pinned_digest_fails(tmp_path, monkeypatch, capsys):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps(
        {"inject-default/tiny/panel0": {"effects": "0000000000000000"}}
    ))
    monkeypatch.setattr(bench_run, "PINS", pins)
    code = bench_run.main(["--workload", "inject-default", "--scale", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert any("effects" in check["check"] for check in record["failed_checks"])


def test_missing_sources_exit_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.rglob("*.py"):
        target = tmp_path / "perfbench" / path.relative_to(BENCH)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inject-default",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
