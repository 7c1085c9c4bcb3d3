"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with spans around every call into the program and prints the
per-layer metrics and the attribution table instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
correctness gate passed, 1 when one failed and 2 when the program's
source is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
from collections import Counter
from pathlib import Path

#: The repository root; the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "paper-sweep": "perfbench.paper_sweep",
    "sharded-ingest": "perfbench.sharded",
    "durable-ingest": "perfbench.durable",
    "serve-mixed": "perfbench.serve_mixed",
}

#: Bound on the spans one traced run keeps in memory.
MAX_SPANS = 1_000_000

#: Processes the multi-process workloads need at full width.
NEEDS_NPROC = {
    "paper-sweep": 1,
    "sharded-ingest": 2,
    "durable-ingest": 2,
    "serve-mixed": 2,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input-size multiplier (tests use small values)",
    )
    parser.add_argument(
        "--out", default=str(ROOT / ".perfbench"),
        help="directory for run records, traces and scratch files",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--seed must be >= 0, --seconds and --scale > 0")
    return args


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload, seed, trace, result, checks, record) -> str:
    """The human-readable part of the output."""
    from perfbench.common import END_TO_END, PER_LAYER

    lines = [
        f"# perfbench {workload} seed={seed} trace={trace} "
        f"degraded_run={record['degraded_run']}",
        "# machine: " + json.dumps(record["machine"], sort_keys=True),
    ]
    if "slots_per_worker" in result.info:
        spread = Counter(result.info["slots_per_worker"])
        lines.append(
            "# parallel.slots_per_worker (default sizing), rounds by value: "
            + ", ".join(f"{k}: {v}" for k, v in sorted(spread.items()))
        )
    catalogue = PER_LAYER if trace else END_TO_END
    values = result.layers if trace else result.metrics
    lines.append(f"{'metric':40s} {'value':>14s} unit")
    for name, unit in catalogue.items():
        lines.append(f"{name:40s} {_fmt(values.get(name, 0.0)):>14s} {unit}")
    ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    lines.append(
        f"{'failed_ratio':40s} {_fmt(ratio):>14s} ratio "
        f"({checks.failed} of {checks.attempted} operations)"
    )
    for message in checks.messages:
        lines.append(f"# FAILED: {message}")
    table = result.attribution
    if trace and table is not None:
        lines.append(
            f"# attribution ({table['unit']}, {table['basis']})"
        )
        for layer, value in sorted(table["rows"].items()):
            lines.append(f"  {layer:24s} {value:12.4f}")
        lines.append(f"  {'sum of rows':24s} {table['sum_of_rows']:12.4f}")
        lines.append(f"  {'end-to-end':24s} {table['total']:12.4f}")
        # With an unattributed row (a round's own self time), the
        # leftover is only the medians not adding up; without one, it is
        # the part no measured row covers.
        leftover = (
            "leftover" if "unattributed" in table["rows"]
            else "unattributed (leftover)"
        )
        lines.append(f"  {leftover:24s} {table['leftover']:12.4f}")
        verdict = "ok" if table["ok"] else "OUTSIDE TOLERANCE"
        lines.append(
            f"  residual {table['residual']:.4f} "
            f"(tolerance {table['tolerance']:.2f}): {verdict}"
        )
    return "\n".join(lines)


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for shared memory.

    The engines' ``SharedMemory`` blocks start a resource tracker that
    ends only a moment after this process does; stopping it here closes
    its pipe and waits until it has exited.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through the workloads' finally blocks, which
    # stop the processes they started (the serve daemon, engine workers).
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's source (src/repro) is not under "
            f"{ROOT}; nothing to measure",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import (
        END_TO_END,
        PER_LAYER,
        Context,
        cpu_ticks,
        machine_block,
        steal_share,
    )
    from repro.obs.trace import Tracer

    out = Path(args.out)
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        tracer=Tracer(max_events=MAX_SPANS) if args.trace else None,
        workdir=workdir,
        run_id=run_id,
        scale=args.scale,
    )
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        ticks = cpu_ticks()
        result = module.run(ctx)
        machine = machine_block(workdir)
        # Other guests' share of the host's CPUs while this run measured:
        # the first thing to look at when figures drift between runs.
        machine["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
        # How much slower than the reference host this run's host was
        # (median reading); each end-to-end timing is divided by the
        # readings taken around it.
        machine["slowdown"] = ctx.slowdown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()

    checks = ctx.checks
    catalogue = PER_LAYER if args.trace else END_TO_END
    values = result.layers if args.trace else result.metrics
    missing = sorted(set(END_TO_END) - set(result.metrics))
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine,
        "calibration_s": ctx.calibration,
        "degraded_run": (os.cpu_count() or 1) < NEEDS_NPROC[args.workload],
        "metrics": result.metrics,
        "layers": result.layers,
        "attribution": result.attribution,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "info": result.info,
    }
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["spans_dropped"] = ctx.tracer.dropped
        ctx.tracer.write(out / f"spans-{stem}.jsonl")
    (out / f"run-{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    print(report(args.workload, args.seed, args.trace, result, checks, record))
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in catalogue.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
