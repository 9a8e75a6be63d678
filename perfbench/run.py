"""Benchmark entry point: one workload, one fresh process, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload inject-default --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no per-injection
wrapper installed.  ``--trace 1`` is the separate traced run: it first
runs the same workload untraced in a child process (for
``trace.overhead``), then again in this process with a span at every
layer boundary, and prints the per-layer metrics.  Spans go to
``.perfbench/spans/<workload>-<scale>-seed<seed>.jsonl``.

The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by one ``record`` line carrying the context stamp (cores,
Python, git revision, seed, workload scale), the output digests and the
correctness checks.  The exit code is 0 only when every check passed and
every pinned digest matched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKDIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--panel", type=int, default=0,
        help="campaign seed of the timed reference panel (a held-out panel "
             "is any other value)",
    )
    parser.add_argument(
        "--scale", choices=("default", "tiny"), default="default",
        help="tiny shrinks every workload to a smoke test",
    )
    return parser.parse_args(argv)


def pin_keys(args) -> tuple[str, str]:
    """Pin keys of the panel's and the probe's digests."""
    scale = "tiny" if args.scale == "tiny" else f"s{args.seconds}"
    prefix = f"{args.workload}/{scale}"
    return f"{prefix}/panel{args.panel}", f"{prefix}/seed{args.seed}"


def check_pins(args, digests: dict) -> list:
    """``(name, ok, detail)`` per digest pinned in :data:`PINS`."""
    pins = json.loads(PINS.read_text())
    return [
        (f"digest {name} matches pin {key}", digests.get(name) == value,
         f"got {digests.get(name)}, pinned {value}")
        for key in pin_keys(args)
        for name, value in sorted(pins.get(key, {}).items())
    ]


def untraced_child(args) -> dict | None:
    """Run the same workload untraced in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--panel", str(args.panel),
        "--scale", args.scale,
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if not lines:
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from harness import instrument
    from harness.report import (
        END_TO_END,
        PER_LAYER,
        context_stamp,
        end_to_end,
        metrics_payload,
        normalized,
        per_layer,
    )
    from harness.calibrate import SpeedSampler
    from harness.tracing import SpanRecorder
    from harness.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    untraced = None
    if args.trace:
        untraced = untraced_child(args)
        if untraced is None:
            print("perfbench: untraced reference run failed", file=sys.stderr)
            return 1

    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    recorder = inst = None
    sampler = SpeedSampler().start()
    try:
        if args.trace:
            recorder = SpanRecorder()
            inst = instrument.install(recorder)
            try:
                data = run(args.panel, args.seed, args.seconds, tiny, workdir,
                           recorder)
            finally:
                inst.patcher.restore()
        else:
            data = run(args.panel, args.seed, args.seconds, tiny, workdir)
    except Exception:  # noqa: BLE001 - the run failed; report and exit non-zero
        traceback.print_exc()
        return 1
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    factor = sampler.factor()

    checks = list(data.checks) + check_pins(args, data.digests)
    if untraced is not None and not untraced.get("correct"):
        checks.append(("untraced reference run correct", False, ""))
    correct = all(ok for _, ok, _ in checks)
    context = context_stamp(ROOT, args, data.scale)

    raw, _ = end_to_end(data)
    values, latency = end_to_end(data, sampler)
    if args.trace:
        reference = untraced["metrics"]["wall_s"]["value"]
        layer = per_layer(
            data,
            instrument.layer_metrics(inst, data),
            values["wall_s"] / reference if reference else 0.0,
        )
        metrics = metrics_payload(normalized(layer, PER_LAYER, factor), PER_LAYER)
        spans_path = WORKDIR / "spans" / (
            f"{args.workload}-{'tiny' if tiny else f's{args.seconds}'}"
            f"-seed{args.seed}.jsonl"
        )
        recorder.write(spans_path, header={"context": context})
    else:
        metrics = metrics_payload(values, END_TO_END)

    record = {
        "record": "perfbench",
        "context": context,
        "digests": data.digests,
        "info_digests": data.info_digests,
        "pin_keys": list(pin_keys(args)),
        **({"untraced_metrics": untraced["metrics"]} if untraced else {}),
        "inj_ms_tail": {
            "percentile": latency["tail_percentile"],
            "samples": latency["samples"],
        },
        "host_speed": {
            "factor": factor,
            "samples": len(sampler.samples),
            "raw": raw,
        },
        "failed_checks": [
            {"check": name, "detail": detail}
            for name, ok, detail in checks if not ok
        ],
        "checks": len(checks),
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, data.attempted),
        "failed": data.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
