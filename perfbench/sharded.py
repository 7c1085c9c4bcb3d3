"""sharded-ingest: ``random`` through ``ShardedIngestEngine`` on 2 shards.

``random`` is the cheapest kernel, so dealing chunks, the shared-memory
copy, ack waits and the merge make up most of the wall time.  Each round
builds an engine with the program's default slot sizing, feeds one
seeded sub-stream in fixed-size ``ingest()`` calls and runs
``finish()``.  Rounds cycle through ``SUBSTREAMS`` sub-streams; the
accuracy and space figures are medians over them, and a sub-stream seen
again must merge to the same snapshot bytes (plan determinism).

Two workers and the feeding parent share the box's two cores, so a
stretch of outside load slows every round it touches by a third or
more.  As in paper-sweep, each round's timings are scaled by the host's
slowdown around that round and the figures are medians over rounds.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from perfbench.common import (
    GRID,
    UNIVERSE_LOG2,
    Context,
    PhiPool,
    Result,
    attribution_layers,
    expect_within_eps,
    instrument_total,
    max_error_over_eps,
    median,
    no_span,
    percentile,
    round_percentiles,
    round_span,
    snapshot_round_trip,
    sub_seed,
    timed_grid,
    timed_reads,
    tracing_overhead,
)

ALGORITHM = "random"
EPS = 1e-2
#: Distinct sub-streams per run; the accuracy figure is their median.
SUBSTREAMS = 48
#: Elements per ``ingest()`` call (one plan chunk).
CALL = 65536
READS_PER_ROUND = 1000


def run(ctx: Context) -> Result:
    from repro.obs import metrics as obs_metrics
    from repro.parallel import ShardPlan, ShardedIngestEngine
    from repro.streams.generators import uniform_stream

    checks = ctx.checks
    n = ctx.size(1 << 18)
    shards = min(2, ctx.nproc)
    substreams = max(3, int(SUBSTREAMS * min(1.0, ctx.scale * 4)))
    pool = PhiPool(sub_seed(ctx.seed, 2))
    read_rng = np.random.default_rng(sub_seed(ctx.seed, 3))
    registry = (
        obs_metrics.enable(obs_metrics.MetricsRegistry()) if ctx.trace
        else None
    )

    setup, ingest_ns, grid_us, recovery, reads, walls = [], [], [], [], [], []
    start_ms, call_ms, finish_ms, merge_ms, close_ms = [], [], [], [], []
    encode_us, restore_us, snap_bytes, slots = [], [], [], []
    errors, space, digests = {}, {}, {}
    try:
        for r in ctx.rounds(min_rounds=substreams + 1, max_rounds=200):
            span = round_span(ctx, r)
            k = r % substreams
            seed = sub_seed(ctx.seed, 10, k)
            wall = time.perf_counter()
            with span("round"):
                with span("bench.generate"):
                    data = uniform_stream(n, UNIVERSE_LOG2, seed=seed)
                merge_before = instrument_total(
                    registry, "parallel.merge_ns", "total"
                )
                t0 = time.perf_counter()
                with span("parallel.construct"):
                    engine = ShardedIngestEngine(
                        ALGORITHM, EPS, ShardPlan(seed=seed, shards=shards),
                        universe_log2=UNIVERSE_LOG2,
                        collect_metrics=ctx.trace,
                    )
                try:
                    # The engine spawns its workers lazily on the first
                    # ingest(); starting them here (with the same data the
                    # first ingest() would size the slot pool from) keeps
                    # worker spawn in set-up time.
                    s0 = time.perf_counter()
                    with span("parallel.start"):
                        engine._start(data)
                    t1 = time.perf_counter()
                    setup.append(t1 - t0)
                    start_ms.append(1e3 * (t1 - s0))
                    slots.append(engine.slots_per_worker)
                    for lo in range(0, n, CALL):
                        c0 = time.perf_counter()
                        with span("parallel.ingest_call"):
                            engine.ingest(data[lo:lo + CALL])
                        call_ms.append(1e3 * (time.perf_counter() - c0))
                    f0 = time.perf_counter()
                    with span("parallel.finish"):
                        merged = engine.finish()
                    t2 = time.perf_counter()
                    finish_ms.append(1e3 * (t2 - f0))
                    ingest_ns.append(1e9 * (t2 - t1) / n)
                finally:
                    c0 = time.perf_counter()
                    with span("parallel.close"):
                        engine.close()
                    close_ms.append(1e3 * (time.perf_counter() - c0))
                merge_ms.append((instrument_total(
                    registry, "parallel.merge_ns", "total"
                ) - merge_before) / 1e6)

                answers, us = timed_grid(
                    span, "kernel.random.query_batch", merged
                )
                grid_us.append(us)
                reads.append(timed_reads(
                    span, [merged], pool, read_rng, READS_PER_ROUND
                ))
                blob, back, enc_ns, rest_ns = snapshot_round_trip(span, merged)
                encode_us.append(enc_ns / 1e3)
                restore_us.append(rest_ns / 1e3)
                recovery.append(rest_ns / 1e9)
                snap_bytes.append(len(blob))

                with span("bench.check"):
                    checks.expect(
                        merged.n == n,
                        f"round {r}: merged n {merged.n} != stream {n}",
                    )
                    checks.expect(
                        back.query_batch(GRID) == answers,
                        f"round {r}: restored snapshot answers differently",
                    )
                    if k not in errors:
                        errors[k] = max_error_over_eps(
                            merged, np.sort(data), EPS
                        )
                        space[k] = int(merged.size_words())
                        expect_within_eps(
                            checks, merged, errors[k], f"sub-stream {k}"
                        )
                    digest = hashlib.sha256(blob).hexdigest()
                    checks.expect(
                        digests.setdefault(k, digest) == digest,
                        f"sub-stream {k}: merged snapshot differs between "
                        "runs of one plan",
                    )
            walls.append((span is not no_span, time.perf_counter() - wall))
        chunks = instrument_total(registry, "parallel.chunks")
        acks = instrument_total(registry, "parallel.acks")
    finally:
        if registry is not None:
            obs_metrics.disable()

    _p50, read_p90, read_p99 = round_percentiles(reads)
    scaled = ctx.host_scaled
    metrics = {
        "setup_s": median(scaled(setup)),
        "ingest_ns_per_item": median(scaled(ingest_ns)),
        "query_grid_us": median(scaled(grid_us)),
        "query_p50_ms": median(
            [percentile(r, 0.5) for r in scaled(reads)]
        ),
        "recovery_s": median(scaled(recovery)),
        "space_words": median(list(space.values())),
        # A mean: each sub-stream's error is a draw of the same
        # quantity, and their mean moves less from seed to seed.
        "rank_error_over_eps": float(np.mean(list(errors.values()))),
    }
    layers = {
        "kernel.random.query_grid_us": median(grid_us),
        "kernel.random.space_words": median(list(space.values())),
        "snapshot.encode_us": median(encode_us),
        "snapshot.restore_us": median(restore_us),
        "snapshot.bytes": median(snap_bytes),
        "parallel.start_ms": median(start_ms),
        "parallel.ingest_call_ms_p50": percentile(call_ms, 0.50),
        "parallel.ingest_call_ms_p99": percentile(call_ms, 0.99),
        "parallel.finish_ms": median(finish_ms),
        "parallel.merge_ms": median(merge_ms),
        "parallel.chunks_per_ack": chunks / acks if acks else 0.0,
        "parallel.slots_per_worker": median(slots),
        "kernel.read_ms_p90": read_p90,
        "kernel.read_ms_p99": read_p99,
        "obs.tracing_overhead": tracing_overhead(walls),
    }
    table = None
    if ctx.trace:
        table, extra = attribution_layers(ctx)
        layers.update(extra)
        if table is not None:
            layers["parallel.unattributed_ms"] = table["rows"].get(
                "unattributed", 0.0
            )
    return Result(
        metrics=metrics,
        layers=layers,
        attribution=table,
        info={
            "n": n,
            "shards": shards,
            "substreams": substreams,
            "rounds": len(walls),
            "setup_s_by_round": setup,
            "ingest_ns_by_round": ingest_ns,
            "slots_per_worker": slots,
            "close_ms_median": median(close_ms),
            "snapshot_digests": [digests[k] for k in sorted(digests)],
            "rank_error_over_eps_by_substream": errors,
        },
    )

