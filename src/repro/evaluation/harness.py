"""The measurement harness: run one algorithm over one stream and record
the paper's five measurements (Section 4.1.2).

For every (algorithm, stream, eps) the harness reports:

1. the error parameter ``eps`` handed to the algorithm,
2. observed **maximum** rank error (KS divergence),
3. observed **average** rank error,
4. **update time** per element (wall clock),
5. **space** — peak words over the stream, 4 bytes each.

Streams are fed in chunks so peak space can be sampled between chunks and
batch-update fast paths can be used where they exist.  Randomized
algorithms are run ``repeats`` times with derived seeds and their error
measurements averaged, as in the paper (which uses 100 repetitions; the
default here is smaller because pure Python pays ~100x the update cost).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.base import QuantileSketch, TurnstileSketch
from repro.core.errors import InvalidParameterError
from repro.core.registry import get_algorithm
from repro.evaluation.metrics import ErrorReport, measure_errors
from repro.evaluation.space import PeakSpaceTracker
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

#: Constructor parameter names understood by fixed-universe algorithms.
_UNIVERSE_PARAM = "universe_log2"


@dataclasses.dataclass(frozen=True)
class RunResult:
    """One harness run: algorithm x stream x eps -> five measurements."""

    algorithm: str
    eps: float
    n: int
    update_time_us: float  #: mean wall-clock microseconds per element
    peak_words: int
    max_error: float
    avg_error: float
    repeats: int
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def peak_bytes(self) -> int:
        return self.peak_words * 4

    @property
    def peak_kb(self) -> float:
        return self.peak_bytes / 1024.0


def _needs_universe(cls: type) -> bool:
    import inspect

    return _UNIVERSE_PARAM in inspect.signature(cls.__init__).parameters


def _accepts_seed(cls: type) -> bool:
    import inspect

    return "seed" in inspect.signature(cls.__init__).parameters


def build_sketch(
    algorithm: str,
    eps: float,
    universe_log2: Optional[int] = None,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> QuantileSketch:
    """Instantiate a registered algorithm with only the kwargs it needs."""
    cls = get_algorithm(algorithm)
    params: Dict[str, Any] = dict(kwargs)
    params["eps"] = eps
    if _needs_universe(cls):
        if universe_log2 is None:
            raise InvalidParameterError(
                f"{algorithm} is fixed-universe: pass universe_log2"
            )
        params[_UNIVERSE_PARAM] = universe_log2
    if _accepts_seed(cls):
        params["seed"] = seed
    return cls(**params)


def apply_batch(sketch: QuantileSketch, batch: np.ndarray) -> None:
    """Feed one ndarray batch through the same kernel dispatch
    :func:`feed_stream` uses for its chunks.

    Turnstile sketches take the vectorized ``update_batch`` path,
    sketches with a batch ``extend`` override receive the array
    directly, and scalar-only sketches get plain Python elements.  The
    durable ingest store and the serving tier both apply batches through
    this function, so a WAL replay or a live-ingest flush lands in a
    state bit-identical to an offline :func:`feed_stream` run for
    deterministic sketches (error-equivalent for randomized ones).
    """
    if isinstance(sketch, TurnstileSketch):
        sketch.update_batch(batch)
    elif type(sketch).extend is not QuantileSketch.extend:
        sketch.extend(batch)
    else:
        sketch.extend(batch.tolist())


def feed_stream(
    sketch: QuantileSketch,
    data: np.ndarray,
    deletions: Optional[np.ndarray] = None,
    chunk: int = 4096,
    timings: Optional[Dict[str, Any]] = None,
    batch_size: Optional[int] = None,
) -> Tuple[float, int]:
    """Feed a stream (and optional trailing deletions) through a sketch.

    Returns ``(update_seconds, peak_words)``.  Uses the vectorized batch
    path for turnstile sketches and chunked ``extend`` otherwise, sampling
    peak space between chunks.  Sketches that override ``extend`` receive
    each chunk as a numpy array (their batch fast path); sketches on the
    default update-loop ``extend`` receive plain Python scalars, exactly
    as before.  ``batch_size`` overrides the chunk length (the knob for
    ingest-batching experiments; ``chunk`` is kept as the historical
    name).

    ``update_seconds`` covers only the sketch updates: space sampling
    between chunks is timed separately, so the meter's own cost no longer
    inflates the per-element update time.  Pass a dict as ``timings`` to
    receive the breakdown (``update_s``, ``sample_s``) plus the
    ``ingest_path`` actually taken (``update_batch`` for turnstile
    sketches, ``extend`` for batch fast paths, ``update-loop`` for the
    scalar fallback).
    """
    if batch_size is not None:
        if batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1, got {batch_size!r}"
            )
        chunk = batch_size
    tracker = PeakSpaceTracker(sketch)
    is_turnstile = isinstance(sketch, TurnstileSketch)
    # Turnstile sketches expose update_batch beyond the base interface.
    batch_target: Any = sketch
    has_batch_extend = type(sketch).extend is not QuantileSketch.extend
    if is_turnstile:
        ingest_path = "update_batch"
    elif has_batch_extend:
        ingest_path = "extend"
    else:
        ingest_path = "update-loop"
    rec = obs_metrics.recorder()
    update_s = 0.0
    sample_s = 0.0

    def feed_part(part: np.ndarray, delta: Optional[int] = None) -> None:
        nonlocal update_s, sample_s
        start = time.perf_counter()
        if delta is not None:
            batch_target.update_batch(part, delta)
        elif is_turnstile:
            batch_target.update_batch(part)
        elif has_batch_extend:
            sketch.extend(part)
        else:
            sketch.extend(part.tolist())
        mid = time.perf_counter()
        tracker.sample()
        done = time.perf_counter()
        update_s += mid - start
        sample_s += done - mid
        if rec.enabled:
            chunk_ns = 1e9 * (mid - start)
            rec.observe(
                "evaluation.chunk_update_ns", chunk_ns, algo=sketch.name
            )
            # Dogfooded: the same duration into a KLL summary, so the
            # exported p99 is a true quantile, not a bucket midpoint.
            rec.summary(
                "latency.chunk_update_ns", algo=sketch.name
            ).observe(chunk_ns)

    with span("evaluation.feed_stream", algo=sketch.name, n=len(data)):
        for lo in range(0, len(data), chunk):
            feed_part(data[lo : lo + chunk])
        if deletions is not None and len(deletions):
            if not is_turnstile:
                raise InvalidParameterError(
                    f"{sketch.name} cannot process deletions"
                )
            for lo in range(0, len(deletions), chunk):
                feed_part(deletions[lo : lo + chunk], -1)
        start = time.perf_counter()
        tracker.sample()
        sample_s += time.perf_counter() - start
    if rec.enabled:
        total = len(data) + (len(deletions) if deletions is not None else 0)
        rec.inc("evaluation.updates", total, algo=sketch.name)
    if timings is not None:
        timings["update_s"] = update_s
        timings["sample_s"] = sample_s
        timings["ingest_path"] = ingest_path
        timings["batch_size"] = float(chunk)
    return update_s, tracker.peak_words


def _feed_durable(
    store: Any,
    data: np.ndarray,
    chunk: int,
    timings: Dict[str, Any],
) -> Tuple[float, int]:
    """Durable analogue of :func:`feed_stream`: same chunking, same batch
    kernels, but every chunk goes through the WAL first.

    Returns ``(update_seconds, peak_words)``.  ``update_seconds``
    includes the WAL append — the durability overhead is exactly what a
    durable run is asked to measure.
    """
    sketch = store.sketch
    tracker = PeakSpaceTracker(sketch)
    rec = obs_metrics.recorder()
    update_s = 0.0
    sample_s = 0.0
    with span("evaluation.feed_stream", algo=sketch.name, n=len(data)):
        for lo in range(0, len(data), chunk):
            start = time.perf_counter()
            store.ingest(data[lo : lo + chunk])
            mid = time.perf_counter()
            tracker.sample()
            done = time.perf_counter()
            update_s += mid - start
            sample_s += done - mid
            if rec.enabled:
                chunk_ns = 1e9 * (mid - start)
                rec.observe(
                    "evaluation.chunk_update_ns", chunk_ns,
                    algo=sketch.name,
                )
                rec.summary(
                    "latency.chunk_update_ns", algo=sketch.name
                ).observe(chunk_ns)
        start = time.perf_counter()
        tracker.sample()
        sample_s += time.perf_counter() - start
    if rec.enabled:
        rec.inc("evaluation.updates", len(data), algo=sketch.name)
    timings["update_s"] = update_s
    timings["sample_s"] = sample_s
    timings["ingest_path"] = "durable"
    timings["batch_size"] = float(chunk)
    return update_s, tracker.peak_words


def run_experiment(
    algorithm: str,
    data: np.ndarray,
    eps: float,
    universe_log2: Optional[int] = None,
    deletions: Optional[np.ndarray] = None,
    repeats: int = 3,
    seed: int = 0,
    max_queries: int = 499,
    post_process: bool = False,
    collect_metrics: bool = False,
    batch_size: Optional[int] = None,
    parallel: Optional[int] = None,
    durable: Optional[Any] = None,
    telemetry_port: Optional[int] = None,
    flight_dir: Optional[Any] = None,
    **kwargs: Any,
) -> RunResult:
    """Run one full measurement: build, stream, and evaluate.

    Args:
        algorithm: registry name ("gk_array", "random", "dcs", ...).
        data: insertion stream (int64 values).
        eps: error parameter for the algorithm and the phi grid.
        universe_log2: required for fixed-universe algorithms.
        deletions: optional trailing deletion stream (turnstile only);
            ground truth becomes the remaining multiset.
        repeats: times to repeat with different seeds (errors averaged,
            times/space taken from the first run).  Deterministic
            algorithms always run once.
        seed: base seed; repeat ``i`` uses ``seed + 1000 * i``.
        max_queries: cap on the phi grid (see metrics.phi_grid).
        post_process: evaluate through the OLS snapshot (DCS only).
        collect_metrics: enable the process-wide metrics recorder for
            this run (it stays enabled afterwards so the caller can
            export; see :mod:`repro.obs`).
        batch_size: ingest chunk length handed to :func:`feed_stream`
            (``None`` keeps its default; with ``parallel`` it becomes
            the shard plan's chunk size).
        parallel: shard the stream across this many worker processes
            (:class:`repro.parallel.engine.ShardedIngestEngine`) and
            evaluate the *merged* summary.  Requires a mergeable
            algorithm and no deletions; ``None`` runs serially.
        durable: a :class:`repro.durability.DurabilityConfig` or store
            directory.  Serial runs feed through a crash-recoverable
            :class:`~repro.durability.ingest.DurableIngest` store (WAL +
            checkpoints; same chunking and batch kernels, so a zero-fault
            durable run is bit-identical to a non-durable one); with
            ``parallel`` the sharded run is driven by the self-healing
            :class:`~repro.durability.supervisor.SupervisedIngestEngine`.
            Each repeat gets its own ``run-<i>`` subdirectory (repeats
            use different seeds, and a store is pinned to one spec).
            Insertion-only.
        telemetry_port: serve live telemetry for the duration of the
            run: a :class:`repro.obs.TelemetryServer` on this port (0
            picks a free one; the bound port lands in
            ``RunResult.extra["telemetry_port"]``).  Implies
            ``collect_metrics``.
        flight_dir: install a flight recorder dumping JSONL post-mortems
            into this directory when the run degrades (supervisor
            restarts, torn WAL tails, ...).  It stays installed after
            the run, like the metrics recorder, so late events are
            still captured.
        **kwargs: forwarded to the algorithm constructor (width, depth,
            eta, ...).

    The per-phase wall-clock breakdown of the first repeat (``build_s``,
    ``update_s``, ``sample_s``, ``query_s``) lands in ``RunResult.extra``,
    alongside the ``ingest_path`` feed_stream actually took
    (``update_batch`` / ``extend`` / ``update-loop``).
    """
    if flight_dir is not None:
        from repro.obs.events import enable_flight

        enable_flight(flight_dir)
    server = None
    if telemetry_port is not None:
        from repro.obs.server import TelemetryServer

        # A server without a collecting registry would expose nothing.
        collect_metrics = True
        server = TelemetryServer(port=telemetry_port).start()
    try:
        if collect_metrics:
            obs_metrics.enable()
        if parallel is not None:
            if parallel < 1:
                raise InvalidParameterError(
                    f"parallel must be >= 1, got {parallel!r}"
                )
            if deletions is not None and len(deletions):
                raise InvalidParameterError(
                    "parallel ingest supports insertion-only streams; feed "
                    "deletion workloads serially"
                )
        durable_cfg = None
        if durable is not None:
            from repro.durability.ingest import DurabilityConfig

            durable_cfg = DurabilityConfig.coerce(durable)
            if deletions is not None and len(deletions):
                raise InvalidParameterError(
                    "durable ingest supports insertion-only streams: WAL "
                    "frames carry insertion batches"
                )
        if deletions is not None and len(deletions):
            counts: Dict[int, int] = {}
            for v in data.tolist():
                counts[v] = counts.get(v, 0) + 1
            for v in deletions.tolist():
                counts[v] = counts.get(v, 0) - 1
                if counts[v] < 0:
                    raise InvalidParameterError(
                        "deletions must form a sub-multiset of the insertions"
                    )
            remaining = [v for v, c in counts.items() for _ in range(c)]
            sorted_truth = np.sort(np.asarray(remaining, dtype=data.dtype))
        else:
            sorted_truth = np.sort(data)

        cls = get_algorithm(algorithm)
        effective_repeats = repeats if not cls.deterministic else 1
        post_eta = kwargs.pop("eta", 0.1) if post_process else None

        max_errors = []
        avg_errors = []
        elapsed = 0.0
        peak = 0
        phases: Dict[str, float] = {}
        extra: Dict[str, object] = {}
        durable_extra: Dict[str, object] = {}
        for i in range(effective_repeats):
            timings: Dict[str, Any] = {}
            repeat_durable = None
            if durable_cfg is not None:
                repeat_durable = dataclasses.replace(
                    durable_cfg,
                    directory=Path(durable_cfg.directory) / f"run-{i:02d}",
                )
            if parallel is not None:
                from repro.parallel.engine import ShardedIngestEngine
                from repro.parallel.plan import DEFAULT_CHUNK_SIZE, ShardPlan

                plan = ShardPlan(
                    seed=seed + 1000 * i,
                    shards=parallel,
                    chunk_size=(
                        batch_size if batch_size is not None
                        else DEFAULT_CHUNK_SIZE
                    ),
                )
                build_start = time.perf_counter()
                with ShardedIngestEngine(
                    algorithm, eps, plan,
                    universe_log2=universe_log2,
                    collect_metrics=collect_metrics,
                    dtype=data.dtype,
                    durable=repeat_durable,
                    **kwargs,
                ) as engine:
                    build_s = time.perf_counter() - build_start
                    feed_start = time.perf_counter()
                    engine.ingest(data)
                    sketch = engine.finish()
                    run_elapsed = time.perf_counter() - feed_start
                run_peak = engine.worker_peak_words
                timings.update(
                    update_s=run_elapsed,
                    sample_s=0.0,
                    ingest_path=f"parallel[{parallel}]",
                )
                if repeat_durable is not None:
                    timings["ingest_path"] = f"supervised[{parallel}]"
                    if i == 0:
                        durable_extra["coverage"] = engine.coverage
                        durable_extra["effective_eps"] = engine.effective_eps
            elif repeat_durable is not None:
                from repro.durability.ingest import DurableIngest

                build_start = time.perf_counter()
                store = DurableIngest(
                    repeat_durable, algorithm, eps,
                    universe_log2=universe_log2,
                    seed=seed + 1000 * i,
                    dtype=data.dtype,
                    **kwargs,
                )
                build_s = time.perf_counter() - build_start
                run_elapsed, run_peak = _feed_durable(
                    store, data,
                    batch_size if batch_size is not None else 4096,
                    timings,
                )
                sketch = store.finish()
                if i == 0:
                    durable_extra["durable"] = {
                        "fsync": repeat_durable.fsync,
                        "checkpoint_interval":
                            repeat_durable.checkpoint_interval,
                        "recovered": store.recovery.recovered,
                        "replayed_batches": store.recovery.replayed_batches,
                        "wal_appends": store.wal.batches(),
                    }
            else:
                build_start = time.perf_counter()
                sketch = build_sketch(
                    algorithm, eps, universe_log2, seed + 1000 * i, **kwargs
                )
                build_s = time.perf_counter() - build_start
                run_elapsed, run_peak = feed_stream(
                    sketch, data, deletions, timings=timings,
                    batch_size=batch_size,
                )
            # The OLS snapshot lives beyond the base interface (DCS only).
            target: Any = sketch
            if post_process:
                target = target.post_processed(eta=post_eta)
            query_start = time.perf_counter()
            with span("evaluation.measure_errors", algo=sketch.name):
                report: ErrorReport = measure_errors(
                    target, sorted_truth, eps, max_queries
                )
            query_s = time.perf_counter() - query_start
            if i == 0:
                elapsed, peak = run_elapsed, run_peak
                phases = {
                    "build_s": build_s,
                    "update_s": float(timings["update_s"]),
                    "sample_s": float(timings["sample_s"]),
                    "query_s": query_s,
                }
                extra = {**phases, "ingest_path": timings["ingest_path"]}
                if parallel is not None:
                    extra["workers"] = parallel
                extra.update(durable_extra)
            max_errors.append(report.max_error)
            avg_errors.append(report.avg_error)

        if server is not None:
            extra["telemetry_port"] = server.port
        n_effective = len(sorted_truth)
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.inc("evaluation.runs", 1, algo=algorithm)
            rec.set("evaluation.stream.n", len(data))
            for phase_name, seconds in phases.items():
                rec.observe(
                    "evaluation.phase_ns",
                    1e9 * seconds,
                    phase=phase_name[:-2],
                    algo=algorithm,
                )
        return RunResult(
            algorithm=algorithm + ("+post" if post_process else ""),
            eps=eps,
            n=n_effective,
            update_time_us=1e6 * elapsed / max(1, len(data)),
            peak_words=peak,
            max_error=float(np.mean(max_errors)),
            avg_error=float(np.mean(avg_errors)),
            repeats=effective_repeats,
            extra=extra,
        )
    finally:
        if server is not None:
            server.stop()


