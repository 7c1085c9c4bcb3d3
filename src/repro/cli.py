"""Command-line interface: streaming quantiles over a file or stdin.

Usage examples::

    # median and tail quantiles of a column of numbers
    python -m repro --eps 0.001 --phi 0.5,0.99 < values.txt

    # deterministic guarantee, explicit algorithm
    python -m repro -a gk_array --eps 0.0001 --phi 0.5 values.txt

    # integer data over a fixed universe, turnstile algorithm
    python -m repro -a dcs --universe-log2 32 --eps 0.01 --phi 0.9 ints.txt

Input is one number per line (blank lines skipped).  Values are parsed
as floats unless the chosen algorithm needs a fixed universe, in which
case they must be non-negative integers below ``2**universe_log2``.
The report shows each requested quantile plus the summary's memory
footprint and throughput.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Iterable, Iterator, List, Optional, TextIO

from repro.core.errors import ReproError
from repro.core.registry import algorithms
from repro.evaluation.harness import build_sketch
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import report as metrics_report
from repro.obs.export import to_json as metrics_to_json


def _parse_phis(text: str) -> List[float]:
    try:
        phis = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad phi list {text!r}") from exc
    if not phis or not all(0.0 <= phi <= 1.0 for phi in phis):
        raise argparse.ArgumentTypeError(
            f"phis must be in [0, 1], got {text!r}"
        )
    return phis


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate quantiles over a stream of numbers.",
    )
    parser.add_argument(
        "input", nargs="?", default="-",
        help="input file of one number per line (default: stdin)",
    )
    parser.add_argument(
        "-a", "--algorithm", default="gk_array", choices=algorithms(),
        help="summary algorithm (default: gk_array)",
    )
    parser.add_argument(
        "--eps", type=float, default=1e-3,
        help="rank error budget as a fraction of n (default: 1e-3)",
    )
    parser.add_argument(
        "--phi", type=_parse_phis, default=[0.5],
        help="comma-separated quantile fractions (default: 0.5)",
    )
    parser.add_argument(
        "--universe-log2", type=int, default=None,
        help="log2 of the universe (required by fixed-universe "
             "algorithms: qdigest, dcm, dcs, post, rss)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed for randomized algorithms",
    )
    parser.add_argument(
        "--int", dest="as_int", action="store_true",
        help="parse values as integers",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="K",
        help="shard the stream across K worker processes and merge "
             "(mergeable algorithms only; see "
             "repro.core.registry.mergeable_algorithms())",
    )
    parser.add_argument(
        "--durable-dir", default=None, metavar="DIR",
        help="crash-safe ingest: write-ahead-log every batch to DIR and "
             "checkpoint the summary; reopening the same DIR recovers "
             "the durable state and resumes (see docs/durability.md). "
             "With --parallel the run is driven by the self-healing "
             "supervised engine",
    )
    parser.add_argument(
        "--json", dest="as_json", action="store_true",
        help="emit the report as a single JSON object",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect instrumentation during the run and print a "
             "metrics report (or embed it, with --json)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record tracing spans and write them as JSONL to PATH",
    )
    parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve live telemetry over HTTP for the duration of the "
             "run: /metrics (Prometheus), /healthz, /snapshot, /tracez, "
             "/flight, /timeline on 127.0.0.1:PORT (0 picks a free "
             "port, printed to stderr).  Implies --metrics",
    )
    parser.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="flight recorder: keep a bounded ring of structured events "
             "and dump it to DIR as JSONL whenever the run degrades "
             "(worker restart/abandon, torn WAL tail, checkpoint "
             "fallback, chaos fault)",
    )
    return parser


def _read_values(source: Iterable[str], as_int: bool) -> Iterator[float]:
    for lineno, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        try:
            yield int(line) if as_int else float(line)
        except ValueError:
            raise ReproError(
                f"line {lineno}: cannot parse {line!r} as a number"
            ) from None


def _scalar(value: Any) -> Any:
    """Convert numpy scalars to plain Python for JSON output."""
    return value.item() if hasattr(value, "item") else value


def run(
    argv: Optional[List[str]] = None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """CLI entry point; returns a process exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["serve"]:
        # The query-tier daemon has its own parser and long-running
        # event loop; hand the rest of the argv straight over.
        from repro.serve.daemon import main as serve_main

        return serve_main(list(argv[1:]))
    args = make_parser().parse_args(argv)

    registry = None
    tracer = None
    flight_rec = None
    server = None
    previous_recorder = obs_metrics.recorder()
    if args.telemetry_port is not None:
        args.metrics = True  # a server over a null recorder shows nothing
    if args.metrics:
        registry = obs_metrics.enable(obs_metrics.MetricsRegistry())
    if args.trace is not None:
        tracer = obs_trace.enable_tracing(obs_trace.Tracer())
    if args.flight_dir is not None:
        from repro.obs.events import enable_flight

        flight_rec = enable_flight(args.flight_dir)
    if args.telemetry_port is not None:
        from repro.obs.server import TelemetryServer

        server = TelemetryServer(port=args.telemetry_port).start()
        print(
            f"# telemetry: http://{server.host}:{server.port}/metrics",
            file=sys.stderr,
        )
    try:
        return _run(args, stdin, stdout, registry)
    finally:
        if server is not None:
            server.stop()
        if flight_rec is not None:
            from repro.obs.events import disable_flight

            disable_flight()
            for path in flight_rec.dump_paths:
                print(f"# flight record: {path}", file=sys.stderr)
        if args.metrics:
            obs_metrics._recorder = previous_recorder
        if tracer is not None:
            obs_trace.disable_tracing()
            tracer.write(args.trace)


def _run(
    args: argparse.Namespace,
    stdin: TextIO,
    stdout: TextIO,
    registry: Optional[obs_metrics.MetricsRegistry],
) -> int:
    def fail(message: str, code: int) -> int:
        if args.as_json:
            print(json.dumps({"error": message}), file=stdout)
        else:
            print(message if code == 1 else f"error: {message}", file=stdout)
        return code

    needs_int = args.universe_log2 is not None or args.algorithm in (
        "qdigest", "dcm", "dcs", "post", "rss"
    )
    if args.parallel is not None and args.parallel < 1:
        return fail(f"--parallel must be >= 1, got {args.parallel}", 2)
    durable_info: Optional[dict] = None
    try:
        if args.input == "-":
            lines: TextIO = stdin
        else:
            lines = open(args.input)
        if args.parallel is not None:
            import numpy as np

            from repro.parallel.engine import ShardedIngestEngine
            from repro.parallel.plan import ShardPlan

            as_int = args.as_int or needs_int
            values = np.asarray(
                list(_read_values(lines, as_int)),
                dtype=np.int64 if as_int else np.float64,
            )
            if args.input != "-":
                lines.close()
            plan = ShardPlan(
                seed=args.seed if args.seed is not None else 0,
                shards=args.parallel,
            )
            build_s = 0.0  # workers build their shard sketches
            if len(values) == 0:
                return fail("no input values", 1)
            with ShardedIngestEngine(
                args.algorithm, args.eps, plan,
                universe_log2=args.universe_log2,
                collect_metrics=registry is not None,
                dtype=values.dtype,
                durable=args.durable_dir,
            ) as engine:
                start = time.perf_counter()
                engine.ingest(values)
                sketch = engine.finish()
                elapsed = time.perf_counter() - start
            if args.durable_dir is not None:
                durable_info = {
                    "coverage": engine.coverage,
                    "effective_eps": engine.effective_eps,
                    "restarts": sum(engine.restarts),
                }
        elif args.durable_dir is not None:
            import numpy as np

            from repro.durability import DurableIngest

            as_int = args.as_int or needs_int
            values = np.asarray(
                list(_read_values(lines, as_int)),
                dtype=np.int64 if as_int else np.float64,
            )
            if args.input != "-":
                lines.close()
            build_start = time.perf_counter()
            store = DurableIngest(
                args.durable_dir, args.algorithm, args.eps,
                universe_log2=args.universe_log2, seed=args.seed,
                dtype=values.dtype,
            )
            build_s = time.perf_counter() - build_start
            start = time.perf_counter()
            for lo in range(0, len(values), 4096):
                store.ingest(values[lo: lo + 4096])
            sketch = store.finish()
            elapsed = time.perf_counter() - start
            durable_info = {
                "recovered": store.recovery.recovered,
                "replayed_batches": store.recovery.replayed_batches,
            }
        else:
            build_start = time.perf_counter()
            sketch = build_sketch(
                args.algorithm, args.eps,
                universe_log2=args.universe_log2, seed=args.seed,
            )
            build_s = time.perf_counter() - build_start
            start = time.perf_counter()
            sketch.extend(_read_values(lines, args.as_int or needs_int))
            elapsed = time.perf_counter() - start
            if args.input != "-":
                lines.close()
        if sketch.n == 0:
            return fail("no input values", 1)
        query_start = time.perf_counter()
        answers = sketch.query_batch(args.phi)
        query_s = time.perf_counter() - query_start
        rate = sketch.n / elapsed / 1e3 if elapsed > 0 else float("inf")
        if registry is not None:
            registry.inc("evaluation.updates", sketch.n, algo=sketch.name)
            registry.set("evaluation.stream.n", sketch.n)
            for phase, seconds in (
                ("build", build_s), ("update", elapsed), ("query", query_s)
            ):
                registry.observe(
                    "evaluation.phase_ns", 1e9 * seconds, phase=phase
                )
        if args.as_json:
            payload = {
                "algorithm": sketch.name,
                "eps": args.eps,
                "n": sketch.n,
                "quantiles": [
                    {"phi": phi, "value": _scalar(answer)}
                    for phi, answer in zip(args.phi, answers)
                ],
                "update_time_us": 1e6 * elapsed / sketch.n,
                "rate_per_s": sketch.n / elapsed if elapsed > 0 else None,
                "memory_bytes": sketch.size_bytes(),
                "peak_words": sketch.size_words(),
                "phases": {
                    "build_s": build_s,
                    "update_s": elapsed,
                    "query_s": query_s,
                },
            }
            if args.parallel is not None:
                payload["workers"] = args.parallel
            if durable_info is not None:
                payload["durable"] = durable_info
            if registry is not None:
                payload.update(metrics_to_json(registry))
            print(json.dumps(payload), file=stdout)
        else:
            for phi, answer in zip(args.phi, answers):
                print(f"phi={phi:g}\t{answer}", file=stdout)
            print(
                f"# n={sketch.n} algorithm={sketch.name} eps={args.eps:g} "
                f"memory={sketch.size_bytes()}B rate={rate:.0f}k/s",
                file=stdout,
            )
            if durable_info is not None:
                note = " ".join(
                    f"{key}={value}" for key, value in durable_info.items()
                )
                print(f"# durable: {note}", file=stdout)
            if registry is not None:
                print("", file=stdout)
                print(metrics_report(registry), file=stdout)
        return 0
    except ReproError as exc:
        return fail(str(exc), 2)


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover - python -m repro.cli
    main()
