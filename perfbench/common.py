"""Inputs, statistics, checks and the metric catalogue shared by workloads."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence

import numpy as np

#: The repository root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: Universe of every generated stream (the paper's 2**16 setting).
UNIVERSE_LOG2 = 16

#: The 99-point phi grid every summary is queried and checked on.
GRID = [(i + 1) / 100 for i in range(99)]

#: The paper's recommended families and the eps each one runs at.
FAMILIES = (
    ("gk_array", 1e-3),
    ("random", 1e-2),
    ("kll", 1e-2),
    ("qdigest", 1e-2),
    ("dcs", 1e-2),
)

#: End-to-end metrics (printed with tracing off) and their units.  Every
#: workload measures every one of them; README.md gives each workload's
#: definition.
END_TO_END = {
    "setup_s": "s",
    "ingest_ns_per_item": "ns/item",
    "query_grid_us": "us/quantile",
    "query_p50_ms": "ms",
    "recovery_s": "s",
    "space_words": "words",
    "rank_error_over_eps": "ratio",
}

_FAMILY_LAYERS = {
    f"kernel.{name}.{metric}": unit
    for name, _eps in FAMILIES
    for metric, unit in (
        ("update_ns", "ns/item"),
        ("chunk_us_p50", "us"),
        ("chunk_us_p99", "us"),
        ("query_grid_us", "us/quantile"),
        ("space_words", "words"),
    )
}

#: Per-layer metrics (printed with tracing on) and their units.  A
#: workload on which a layer does no work reports 0 for it.
PER_LAYER = {
    **_FAMILY_LAYERS,
    "sketches.hashplan.hit_ratio": "ratio",
    "sketches.hashplan.build_ms": "ms",
    "snapshot.encode_us": "us",
    "snapshot.restore_us": "us",
    "snapshot.bytes": "bytes",
    "parallel.start_ms": "ms",
    "parallel.ingest_call_ms_p50": "ms",
    "parallel.ingest_call_ms_p99": "ms",
    "parallel.finish_ms": "ms",
    "parallel.merge_ms": "ms",
    "parallel.chunks_per_ack": "ratio",
    "parallel.slots_per_worker": "count",
    "parallel.unattributed_ms": "ms",
    "durability.start_ms": "ms",
    "durability.ingest_call_ms_p50": "ms",
    "durability.ingest_call_ms_p99": "ms",
    "durability.finish_ms": "ms",
    "durability.wal.append_us_p50": "us",
    "durability.wal.append_us_p99": "us",
    "durability.wal.fsyncs": "count",
    "durability.wal.bytes_per_item": "bytes/item",
    "durability.checkpoint_ms": "ms",
    "durability.checkpoints": "count",
    "durability.recover.load_ms": "ms",
    "durability.recover.replay_ms": "ms",
    "durability.recover.replayed_batches": "count",
    "durability.unattributed_ms": "ms",
    "serve.server.request_ms_p50": "ms",
    "serve.server.request_ms_p99": "ms",
    "serve.server.query_ms_p50": "ms",
    "serve.server.query_ms_p99": "ms",
    "serve.transport_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.invalidations": "count",
    "serve.cache.stale_retries": "count",
    "serve.cache.coalesced": "count",
    "serve.flushes": "count",
    "serve.apply_ms": "ms",
    "serve.seal_ms": "ms",
    "serve.service.query_hit_us": "us",
    "serve.service.query_miss_us": "us",
    "kernel.read_ms_p90": "ms",
    "kernel.read_ms_p99": "ms",
    "loadgen.flush_ms_p50": "ms",
    "loadgen.read_ms_p90": "ms",
    "loadgen.read_ms_p99": "ms",
    "loadgen.late_ms_p99": "ms",
    "loadgen.sustained_rps": "req/s",
    "obs.summary.observe_ns": "ns",
    "obs.tracing_overhead": "ratio",
    "attribution.unattributed_ratio": "ratio",
    "attribution.residual": "ratio",
}


#: Seconds :func:`calibrate` took on the reference host, a 2-vCPU
#: shared VM (Python 3.11, numpy 2.4).  End-to-end timings are scaled
#: to that host (see :meth:`Context.host_scaled`).
REFERENCE_CALIBRATION_S = 0.0027

_CALIBRATION_DATA = np.random.default_rng(20130622).integers(
    0, 1 << UNIVERSE_LOG2, 100_000
)


def _calibration_task() -> None:
    np.sort(_CALIBRATION_DATA)
    total = 0
    for j in range(15000):
        total += j * j
    counts: Dict[int, int] = {}
    for j in range(5000):
        counts[j & 255] = counts.get(j & 255, 0) + 1


def calibrate() -> float:
    """Seconds a fixed task that runs no code of the program takes now:
    a numpy sort, an interpreter loop and dict updates, the same mix of
    work the kernels do; the fastest of five runs, since one run can
    lose a millisecond to an interrupt.

    The shared host's speed drifts by up to half within an hour, as
    neighbours come and go, and slows this task too; a change to the
    program cannot move it."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _calibration_task()
        times.append(time.perf_counter() - t0)
    return min(times)


def host_scaled(
    by_step: Sequence[Any], readings: Sequence[float]
) -> List[Any]:
    """Timings scaled to the reference host.  ``by_step[i]`` (one value,
    or one list of values) was measured between ``readings[i]`` and
    ``readings[i + 1]`` and is divided by their mean over
    ``REFERENCE_CALIBRATION_S``."""
    if len(by_step) != len(readings) - 1:
        raise ValueError(f"{len(by_step)} steps for {len(readings)} readings")
    out = []
    for i, value in enumerate(by_step):
        factor = (readings[i] + readings[i + 1]) / 2 / REFERENCE_CALIBRATION_S
        if isinstance(value, (list, tuple)):
            out.append([v / factor for v in value])
        else:
            out.append(value / factor)
    return out


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from ``seed`` and ``keys`` (SeedSequence)."""
    seq = np.random.SeedSequence([seed, *keys])
    return int(seq.generate_state(1)[0])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values``."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def round_percentiles(rounds: Sequence[Sequence[float]]) -> tuple:
    """``(p50, p90, p99)``: each round's percentile, then the median over
    rounds, so one round hit by a burst of outside load does not move
    the figure."""
    return tuple(
        median([percentile(r, q) for r in rounds]) for q in (0.5, 0.9, 0.99)
    )


def instrument_total(
    registry: Any, name: str, field: str = "value"
) -> float:
    """Sum of ``field`` over the registry's instruments called ``name``
    (0 without a registry)."""
    if registry is None:
        return 0.0
    return float(sum(
        getattr(inst, field) for inst in registry.instruments()
        if inst.name == name
    ))


def timed_reads(
    span: Any,
    sketches: Sequence[Any],
    pool: "PhiPool",
    rng: np.random.Generator,
    count: int,
) -> List[float]:
    """Latencies (ms) of ``count`` read requests, each one
    ``query_batch`` of a popular phi vector, on ``sketches`` in turn."""
    out = []
    with span("kernel.reads"):
        for i, index in enumerate(pool.draw(rng, count)):
            sketch = sketches[i % len(sketches)]
            phis = list(pool.sets[index])
            q0 = time.perf_counter_ns()
            sketch.query_batch(phis)
            out.append((time.perf_counter_ns() - q0) / 1e6)
    return out


#: Grid queries and snapshot restores per summary and round; each
#: round's figure is their median.
REPEATS = 5


def timed_grid(span: Any, label: str, sketch: Any) -> tuple:
    """``(answers, us per quantile)``: ``sketch.query_batch(GRID)``, the
    time being the median of ``REPEATS`` calls."""
    times = []
    for _ in range(REPEATS):
        q0 = time.perf_counter_ns()
        with span(label):
            answers = sketch.query_batch(GRID)
        times.append(time.perf_counter_ns() - q0)
    return answers, median(times) / 1e3 / len(GRID)


def snapshot_round_trip(span: Any, summary: Any) -> tuple:
    """``(blob, restored summary, encode ns, restore ns)``; the restore
    time is the median of ``REPEATS`` restores."""
    from repro.core.snapshot import restore, snapshot

    e0 = time.perf_counter_ns()
    with span("snapshot.encode"):
        blob = snapshot(summary)
    encode_ns = time.perf_counter_ns() - e0
    restore_ns = []
    for _ in range(REPEATS):
        r0 = time.perf_counter_ns()
        with span("snapshot.restore"):
            back = restore(blob)
        restore_ns.append(time.perf_counter_ns() - r0)
    return blob, back, encode_ns, median(restore_ns)


def geomean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def max_error_over_eps(sketch: Any, sorted_data: np.ndarray, eps: float) -> float:
    """Worst rank error of ``sketch`` against exact ranks on the paper's
    grid ``eps, 2 eps, ..., 1 - eps`` (at most 999 points), over ``eps``."""
    from repro.evaluation.metrics import phi_grid, rank_error

    phis = phi_grid(eps)
    answers = sketch.query_batch(phis)
    n = len(sorted_data)
    worst = max(
        rank_error(sorted_data, answer, phi * n)
        for phi, answer in zip(phis, answers)
    )
    return worst / n / eps


#: Largest max rank error (over eps) the accuracy gate accepts from a
#: randomized sketch.  A deterministic sketch (``sketch.deterministic``)
#: guarantees eps on every stream and is held to 1.0.  A randomized one
#: (random, kll, dcs) meets eps only with high probability: on correct
#: code, over about forty seeded runs, random reached 1.019 and 1.142 eps
#: (paper-sweep seeds 44 and 17) and kll 1.002 eps (serve-mixed seed 16).
#: At 1.0 those runs failed; 2.0 still fails a sketch that is broken.
RANDOMIZED_ERROR_LIMIT = 2.0


def expect_within_eps(
    checks: "Checks", sketch: Any, error: float, what: str
) -> None:
    """The accuracy gate: ``error`` (max rank error over eps) of
    ``sketch`` is within its guarantee."""
    limit = 1.0 if sketch.deterministic else RANDOMIZED_ERROR_LIMIT
    checks.expect(
        error <= limit,
        f"{what}: max rank error {error:.3f} eps exceeds {limit:g} eps",
    )


class PhiPool:
    """Seeded, skew-popular read requests: a pool of 64 phi vectors of 8
    phis each, drawn with Zipf(1.1) popularity, so a few vectors are asked
    for most of the time (a dashboard-style mix)."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.sets = [
            tuple(float(v) for v in np.round(rng.uniform(0.001, 0.999, 8), 4))
            for _ in range(64)
        ]
        weights = 1.0 / np.arange(1, 65) ** 1.1
        self.weights = weights / weights.sum()

    def draw(self, rng: np.random.Generator, count: int) -> List[int]:
        """``count`` pool indices drawn by popularity."""
        return [
            int(i)
            for i in rng.choice(len(self.sets), size=count, p=self.weights)
        ]


@dataclasses.dataclass
class Checks:
    """Correctness gates; every gate is one attempted operation."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = dataclasses.field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


@dataclasses.dataclass
class Context:
    """What a workload is given: its seed, time budget and tracer (a
    standalone ``repro.obs.trace.Tracer``, or None with tracing off)."""

    workload: str
    seed: int
    seconds: float
    tracer: Any
    workdir: Path
    run_id: str = ""
    #: Input-size multiplier (1.0 for real runs; tests shrink it).
    scale: float = 1.0
    nproc: int = dataclasses.field(default_factory=lambda: os.cpu_count() or 1)
    checks: Checks = dataclasses.field(default_factory=Checks)
    #: Every :func:`calibrate` reading of the run; :meth:`rounds` takes
    #: one before the first round and one after each.
    calibration: List[float] = dataclasses.field(default_factory=list)

    @property
    def trace(self) -> bool:
        return self.tracer is not None

    def span(self, name: str) -> Any:
        """A span in this run's tracer, labelled with the run id."""
        if self.tracer is None:
            return _NO_SPAN
        return self.tracer.span(name, {"run_id": self.run_id})

    def size(self, n: int, minimum: int = 4096) -> int:
        return max(minimum, int(n * self.scale))

    def rounds(self, min_rounds: int, max_rounds: int) -> Iterator[int]:
        """Round indices until ``seconds`` have passed and at least
        ``min_rounds`` ran, or ``max_rounds`` ran."""
        start = time.perf_counter()
        r = 0
        self.calibrate()
        while r < max_rounds and (
            r < min_rounds or time.perf_counter() - start < self.seconds
        ):
            yield r
            self.calibrate()
            r += 1

    def calibrate(self) -> float:
        """Take a :func:`calibrate` reading, keep it and return it."""
        reading = calibrate()
        self.calibration.append(reading)
        return reading

    def slowdown(self) -> float:
        """How much slower than the reference host the host ran over the
        whole run (the median reading)."""
        return median(self.calibration) / REFERENCE_CALIBRATION_S

    def host_scaled(self, by_round: Sequence[Any]) -> List[Any]:
        """Timings (one value, or one list of values, per round of
        :meth:`rounds`) scaled to the reference host."""
        return host_scaled(by_round, self.calibration)


@dataclasses.dataclass
class Result:
    """A workload's measurements."""

    metrics: Dict[str, float]
    layers: Dict[str, float]
    attribution: Any = None
    info: Dict[str, Any] = dataclasses.field(default_factory=dict)


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux only)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (
                    target == mount
                    or target.startswith(mount.rstrip("/") + "/")
                ) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def cpu_ticks() -> List[int]:
    """The ``cpu`` line of ``/proc/stat`` (empty where there is none)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings (the 8th field is ``steal``)."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def machine_block(workdir: Path) -> Dict[str, Any]:
    """The machine a run was measured on."""
    from repro.evaluation.context import git_sha

    return {
        "git_sha": git_sha(Path(__file__).resolve().parent) or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workdir_filesystem": filesystem_of(workdir),
    }


_NO_SPAN = contextlib.nullcontext()


def no_span(name: str) -> Any:
    return _NO_SPAN


def round_span(ctx: Context, r: int) -> Any:
    """The span factory for round ``r``: with tracing on, even rounds are
    traced and odd rounds are not, so one run yields both and their
    difference is the tracing overhead."""
    return ctx.span if ctx.trace and r % 2 == 0 else no_span


def tracing_overhead(walls: Sequence[tuple]) -> float:
    """``median(traced) / median(untraced) - 1`` over ``(traced, s)``,
    leaving out the first round, which pays one-off warm-up costs."""
    traced = [s for on, s in walls[1:] if on]
    plain = [s for on, s in walls[1:] if not on]
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain) - 1.0


def attribution_layers(ctx: Context) -> tuple:
    """The attribution table of a traced run and its two summary ratios."""
    from perfbench.spans import attribution_table, layer_rounds

    table = attribution_table(layer_rounds(ctx.tracer.events))
    if table is None:
        return None, {}
    total = table["total"] or 1.0
    return table, {
        "attribution.unattributed_ratio": (
            table["rows"].get("unattributed", 0.0) / total
        ),
        "attribution.residual": table["residual"],
    }
