"""durable-ingest: gk_array through ``SupervisedIngestEngine`` with a WAL.

Each round runs the supervised engine on 2 shards with small batches,
the WAL's default fsync policy ``rotate`` and periodic checkpoints, then drives a serial
``DurableIngest`` store through ``crash()`` and a reopen, which gives the
recovery time.  Gates: full coverage with no restarts, the merged
snapshot is bit-identical to a plain ``ShardedIngestEngine`` run of the
same plan, and the recovered store is bit-identical to an uninterrupted
one.  Rounds cycle through ``SUBSTREAMS`` sub-streams; the reference
runs behind the bit-identity gates are made once per sub-stream.

Set-up ends when every worker has opened its store and reported ready.
As in sharded-ingest, the end-to-end timings are medians over rounds of
timings scaled by the host's slowdown around each round.
"""

from __future__ import annotations

import hashlib
import shutil
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

ALGORITHM = "gk_array"
EPS = 1e-3
SUBSTREAMS = 3
#: Plan chunk = WAL batch size.
BATCH = 2048
#: Elements per ``ingest()`` call.
CALL = 8 * BATCH
#: Batches between checkpoints; the stream's batch count is not a
#: multiple of it, so a crash leaves a WAL tail to replay.
CHECKPOINT_INTERVAL = 24
#: ``always`` made the ingest figure move by 0.32 of its median between
#: seeds (every batch waits on a shared disk's fsync); see README.md.
FSYNC = "rotate"
READS_PER_ROUND = 1000


def _wal_append_summary(registry):
    """Every ``latency.wal_append_ns`` summary (workers and parent) merged."""
    from repro.obs.latency import Summary

    merged = Summary("latency.wal_append_ns")
    for inst in registry.instruments():
        if inst.name == "latency.wal_append_ns":
            merged.absorb(inst.export())
    return merged


def run(ctx: Context) -> Result:
    from repro.core.snapshot import snapshot
    from repro.durability import (
        CheckpointManager,
        DurabilityConfig,
        DurableIngest,
        SupervisedIngestEngine,
        WriteAheadLog,
    )
    from repro.evaluation.harness import apply_batch, build_sketch
    from repro.obs import metrics as obs_metrics
    from repro.parallel import ShardPlan, ShardedIngestEngine
    from repro.streams.generators import uniform_stream

    checks = ctx.checks
    n = ctx.size(1 << 17, minimum=4 * BATCH) // BATCH * BATCH
    shards = min(2, ctx.nproc)
    pool = PhiPool(sub_seed(ctx.seed, 2))
    read_rng = np.random.default_rng(sub_seed(ctx.seed, 3))
    registry = (
        obs_metrics.enable(obs_metrics.MetricsRegistry()) if ctx.trace
        else None
    )

    def config(path):
        return DurabilityConfig(
            directory=path,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            fsync=FSYNC,
        )

    setup, ingest_ns, grid_us, recovery, reads, walls = [], [], [], [], [], []
    start_ms, call_ms, finish_ms, load_ms, replay_ms = [], [], [], [], []
    encode_us, restore_us, snap_bytes = [], [], []
    replayed, restarts = [], []
    errors, space, plain_blobs, store_blobs = {}, {}, {}, {}
    items = 0
    try:
        for r in ctx.rounds(min_rounds=SUBSTREAMS + 1, max_rounds=100):
            span = round_span(ctx, r)
            k = r % SUBSTREAMS
            seed = sub_seed(ctx.seed, 20, k)
            plan = ShardPlan(seed=seed, shards=shards, chunk_size=BATCH)
            root = ctx.workdir / f"round-{r}"
            wall = time.perf_counter()
            with span("round"):
                with span("bench.generate"):
                    data = uniform_stream(n, UNIVERSE_LOG2, seed=seed)
                t0 = time.perf_counter()
                with span("durability.construct"):
                    engine = SupervisedIngestEngine(
                        ALGORITHM, EPS, plan, config(root / "engine"),
                        universe_log2=UNIVERSE_LOG2,
                        collect_metrics=ctx.trace,
                    )
                try:
                    # Workers spawn lazily on the first ingest(); start
                    # them here, and wait until each has opened its store
                    # and said ready, so all of that counts as set-up.
                    s0 = time.perf_counter()
                    with span("durability.start"):
                        engine._start()
                        # An abandoned worker never says ready; the
                        # coverage gate reports it.
                        while not all(
                            ready or gone for ready, gone
                            in zip(engine._ready, engine._abandoned)
                        ):
                            engine._pump(0.05)
                    t1 = time.perf_counter()
                    setup.append(t1 - t0)
                    start_ms.append(1e3 * (t1 - s0))
                    for lo in range(0, n, CALL):
                        c0 = time.perf_counter()
                        with span("durability.ingest_call"):
                            engine.ingest(data[lo:lo + CALL])
                        call_ms.append(1e3 * (time.perf_counter() - c0))
                    f0 = time.perf_counter()
                    with span("durability.finish"):
                        result = engine.finish()
                    t2 = time.perf_counter()
                    finish_ms.append(1e3 * (t2 - f0))
                    ingest_ns.append(1e9 * (t2 - t1) / n)
                finally:
                    with span("durability.close"):
                        engine.close()
                items += 2 * n  # the engine's stream and the store's
                merged = result.summary
                restarts.append(sum(result.restarts))

                answers, us = timed_grid(
                    span, "kernel.gk_array.query_batch", merged
                )
                grid_us.append(us)
                reads.append(timed_reads(
                    span, [merged], pool, read_rng, READS_PER_ROUND
                ))
                blob, back, enc_ns, rest_ns = snapshot_round_trip(span, merged)
                encode_us.append(enc_ns / 1e3)
                restore_us.append(rest_ns / 1e3)
                snap_bytes.append(len(blob))

                # Serial store: ingest, crash with a WAL tail, reopen.
                store_cfg = config(root / "store")
                store = DurableIngest(
                    store_cfg, ALGORITHM, EPS, seed=seed,
                )
                try:
                    for lo in range(0, n, BATCH):
                        with span("durability.store_ingest"):
                            store.ingest(data[lo:lo + BATCH])
                finally:
                    store.crash()
                r0 = time.perf_counter()
                with span("durability.recover"):
                    reopened = DurableIngest(
                        store_cfg, ALGORITHM, EPS, seed=seed,
                    )
                recovery.append(time.perf_counter() - r0)
                recovered = snapshot(reopened.sketch)
                replayed.append(reopened.recovery.replayed_batches)
                reopened.close()
                if ctx.trace:
                    # The same recovery, layer by layer: checkpoint load,
                    # then WAL replay and apply.
                    l0 = time.perf_counter()
                    with span("durability.recover_load"):
                        latest = CheckpointManager(
                            root / "store" / "checkpoints"
                        ).load_latest()
                    l1 = time.perf_counter()
                    with span("durability.recover_replay"):
                        wal = WriteAheadLog(
                            root / "store" / "wal", fsync=FSYNC
                        )
                        if latest is None:  # no checkpoint yet: all WAL
                            sketch, after = build_sketch(
                                ALGORITHM, EPS, seed=seed
                            ), -1
                        else:
                            sketch, after = latest.summary, latest.wal_seq
                        for _seq, batch in wal.replay(after):
                            apply_batch(sketch, batch)
                        wal.close()
                    load_ms.append(1e3 * (l1 - l0))
                    replay_ms.append(1e3 * (time.perf_counter() - l1))

                with span("bench.check"):
                    checks.expect(
                        result.coverage == 1.0 and not result.abandoned_shards,
                        f"round {r}: coverage {result.coverage}, abandoned "
                        f"{result.abandoned_shards}",
                    )
                    checks.expect(
                        restarts[-1] == 0,
                        f"round {r}: {restarts[-1]} worker restarts",
                    )
                    checks.expect(
                        reopened.recovery.replayed_batches > 0,
                        f"round {r}: the crash left no WAL tail to replay",
                    )
                    if k not in errors:
                        errors[k] = max_error_over_eps(
                            merged, np.sort(data), EPS
                        )
                        space[k] = int(merged.size_words())
                        expect_within_eps(
                            checks, merged, errors[k], f"sub-stream {k}"
                        )
                with span("bench.reference"), obs_metrics.paused():
                    if k not in plain_blobs:
                        with ShardedIngestEngine(
                            ALGORITHM, EPS, plan,
                            universe_log2=UNIVERSE_LOG2,
                        ) as plain:
                            plain.ingest(data)
                            plain_blobs[k] = snapshot(plain.finish())
                        uninterrupted = DurableIngest(
                            config(root / "uninterrupted"),
                            ALGORITHM, EPS, seed=seed,
                        )
                        for lo in range(0, n, BATCH):
                            uninterrupted.ingest(data[lo:lo + BATCH])
                        store_blobs[k] = snapshot(uninterrupted.finish())
                with span("bench.check"):
                    checks.expect(
                        blob == plain_blobs[k],
                        f"round {r}: supervised merge differs from the "
                        "plain engine on the same plan",
                    )
                    checks.expect(
                        recovered == store_blobs[k],
                        f"round {r}: recovered store differs from an "
                        "uninterrupted one",
                    )
                with span("bench.cleanup"):
                    shutil.rmtree(root, ignore_errors=True)
            walls.append((span is not no_span, time.perf_counter() - wall))
        wal_layers = {}
        if registry is not None:
            wal_layers = _wal_layers(registry, items, len(walls))
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
        "rank_error_over_eps": median(list(errors.values())),
    }
    layers = {
        "kernel.gk_array.query_grid_us": median(grid_us),
        "kernel.gk_array.space_words": median(list(space.values())),
        "snapshot.encode_us": median(encode_us),
        "snapshot.restore_us": median(restore_us),
        "snapshot.bytes": median(snap_bytes),
        "durability.start_ms": median(start_ms),
        "durability.ingest_call_ms_p50": percentile(call_ms, 0.50),
        "durability.ingest_call_ms_p99": percentile(call_ms, 0.99),
        "durability.finish_ms": median(finish_ms),
        "durability.recover.replayed_batches": median(replayed),
        "kernel.read_ms_p90": read_p90,
        "kernel.read_ms_p99": read_p99,
        "obs.tracing_overhead": tracing_overhead(walls),
        **wal_layers,
    }
    table = None
    if ctx.trace:
        layers["durability.recover.load_ms"] = median(load_ms)
        layers["durability.recover.replay_ms"] = median(replay_ms)
        table, extra = attribution_layers(ctx)
        layers.update(extra)
        if table is not None:
            layers["durability.unattributed_ms"] = table["rows"].get(
                "unattributed", 0.0
            )
    return Result(
        metrics=metrics,
        layers=layers,
        attribution=table,
        info={
            "n": n,
            "shards": shards,
            "fsync": FSYNC,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "rounds": len(walls),
            "setup_s_by_round": setup,
            "ingest_ns_by_round": ingest_ns,
            "restarts": restarts,
            "snapshot_digests": [
                hashlib.sha256(plain_blobs[k] + store_blobs[k]).hexdigest()
                for k in sorted(plain_blobs)
            ],
            "rank_error_over_eps_by_substream": errors,
        },
    )


def _wal_layers(registry, items: int, rounds: int) -> dict:
    """WAL and checkpoint counters of a traced run, per round."""
    appends = _wal_append_summary(registry)
    saves = instrument_total(
        registry, "durability.checkpoint.save_ns", "count"
    )
    return {
        "durability.wal.append_us_p50": appends.quantile(0.5) / 1e3,
        "durability.wal.append_us_p99": appends.quantile(0.99) / 1e3,
        "durability.wal.fsyncs": (
            instrument_total(registry, "durability.wal.fsyncs") / rounds
        ),
        "durability.wal.bytes_per_item": (
            instrument_total(registry, "durability.wal.bytes") / items
            if items else 0.0
        ),
        "durability.checkpoint_ms": (
            instrument_total(
                registry, "durability.checkpoint.save_ns", "total"
            ) / saves / 1e6
            if saves else 0.0
        ),
        "durability.checkpoints": saves / rounds,
    }
