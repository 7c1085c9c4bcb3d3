"""paper-sweep: the paper's experiment on the five recommended families.

One seeded stream over a 2**16 universe is fed in 4096-element chunks
through ``apply_batch`` into gk_array (eps=1e-3) and random, kll, qdigest
and dcs (eps=1e-2); dcs then receives a trailing seeded share of
deletions.  Each family is queried on the 99-point grid and checked
against exact ranks.  Every round repeats the same stream from empty
summaries, so the deterministic outputs must repeat exactly.

On a shared host the process's CPU runs fast for a few rounds, then up
to 1.8x slower for a few, as neighbours come and go.  Each round's
timings are therefore divided by how slow a fixed calibration task ran
around that round (:meth:`Context.host_scaled`), and the end-to-end
figures are medians over rounds of those scaled timings.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from perfbench.common import (
    FAMILIES,
    GRID,
    UNIVERSE_LOG2,
    Context,
    PhiPool,
    Result,
    attribution_layers,
    expect_within_eps,
    geomean,
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

CHUNK = 4096
#: Share of the stream dcs deletes after the inserts.
DELETE_SHARE = 0.1
#: Read requests per round; each asks one family for one phi vector,
#: the families taking turns.
READS_PER_ROUND = 200


def run(ctx: Context) -> Result:
    from repro.evaluation.harness import apply_batch, build_sketch
    from repro.sketches import hashplan
    from repro.streams.generators import uniform_stream

    checks = ctx.checks
    n = ctx.size(200_000)
    data = uniform_stream(n, UNIVERSE_LOG2, seed=ctx.seed)
    rng = np.random.default_rng(sub_seed(ctx.seed, 1))
    gone = rng.choice(n, size=int(n * DELETE_SHARE), replace=False)
    deletions = data[gone]
    truth = {name: np.sort(data) for name, _eps in FAMILIES}
    truth["dcs"] = np.sort(np.delete(data, gone))
    pool = PhiPool(sub_seed(ctx.seed, 2))
    read_rng = np.random.default_rng(sub_seed(ctx.seed, 3))

    setup, recovery, walls, reads = [], [], [], []
    update_ns = {name: [] for name, _ in FAMILIES}
    chunk_us = {name: [] for name, _ in FAMILIES}
    grid_us = {name: [] for name, _ in FAMILIES}
    encode_us, restore_us, plane_ms = [], [], []
    plane_hits = plane_misses = 0
    space = {}
    errors = {}
    digest = None
    for r in ctx.rounds(min_rounds=3, max_rounds=60):
        span = round_span(ctx, r)
        wall = time.perf_counter()
        with span("round"):
            start = time.perf_counter()
            with span("sketches.plane_cache_clear"):
                hashplan.cache().clear()
            sketches = {}
            for name, eps in FAMILIES:
                with span(f"kernel.{name}.build"):
                    sketches[name] = build_sketch(
                        name, eps, UNIVERSE_LOG2, seed=ctx.seed
                    )
            # Cold hash-plane build: a throwaway dcs with the same seed
            # (hence the same hash functions) fills the plane cache.
            warm = time.perf_counter()
            with span("sketches.plane_warm"):
                apply_batch(
                    build_sketch(
                        "dcs", dict(FAMILIES)["dcs"], UNIVERSE_LOG2,
                        seed=ctx.seed,
                    ),
                    data[:CHUNK],
                )
            now = time.perf_counter()
            plane_ms.append(1e3 * (now - warm))
            setup.append(now - start)

            before = hashplan.cache().stats()
            for name, _eps in FAMILIES:
                sketch = sketches[name]
                label = f"kernel.{name}.apply_batch"
                begin = time.perf_counter_ns()
                for lo in range(0, n, CHUNK):
                    c0 = time.perf_counter_ns()
                    with span(label):
                        apply_batch(sketch, data[lo:lo + CHUNK])
                    chunk_us[name].append((time.perf_counter_ns() - c0) / 1e3)
                items = n
                if name == "dcs":
                    for lo in range(0, len(deletions), CHUNK):
                        with span(label):
                            sketch.update_batch(deletions[lo:lo + CHUNK], -1)
                    items += len(deletions)
                update_ns[name].append(
                    (time.perf_counter_ns() - begin) / items
                )
            after = hashplan.cache().stats()
            plane_hits += after["hits"] - before["hits"]
            plane_misses += after["misses"] - before["misses"]

            answers = {}
            for name, eps in FAMILIES:
                sketch = sketches[name]
                answers[name], us = timed_grid(
                    span, f"kernel.{name}.query_batch", sketch
                )
                grid_us[name].append(us)
                with span("bench.check"):
                    # Rounds repeat one input (the digest gate below holds
                    # them equal), so the slow per-phi loop runs once.
                    checks.expect(
                        r > 0
                        or answers[name] == [sketch.query(p) for p in GRID],
                        f"{name}: query_batch differs from the query loop",
                    )
                    err = max_error_over_eps(sketch, truth[name], eps)
                    expect_within_eps(checks, sketch, err, name)
                errors[name] = err
                space[name] = int(sketch.size_words())

            reads.append(timed_reads(
                span, list(sketches.values()), pool, read_rng, READS_PER_ROUND
            ))

            blobs = []
            enc = rest = 0
            for name, _eps in FAMILIES:
                blob, back, enc_ns, rest_ns = snapshot_round_trip(
                    span, sketches[name]
                )
                enc += enc_ns
                rest += rest_ns
                blobs.append(blob)
                with span("bench.check"):
                    checks.expect(
                        back.query_batch(GRID) == answers[name],
                        f"{name}: restored snapshot answers differently",
                    )
            encode_us.append(enc / 1e3)
            restore_us.append(rest / 1e3)
            recovery.append(rest / 1e9)
            round_digest = hashlib.sha256(b"".join(blobs)).hexdigest()
            if digest is None:
                digest = round_digest
                snapshot_bytes = sum(len(b) for b in blobs)
            checks.expect(
                round_digest == digest,
                f"round {r}: snapshots differ from round 0 on the same input",
            )
        walls.append((span is not no_span, time.perf_counter() - wall))

    _p50, read_p90, read_p99 = round_percentiles(reads)
    scaled = ctx.host_scaled
    metrics = {
        "setup_s": median(scaled(setup)),
        "ingest_ns_per_item": geomean([
            median(scaled(update_ns[name])) for name, _ in FAMILIES
        ]),
        "query_grid_us": float(np.mean([
            median(scaled(grid_us[name])) for name, _ in FAMILIES
        ])),
        # Per family, then the geometric mean (each family counts
        # equally): the p50 of all reads together lands between two
        # families' costs and jumps with their mix.
        "query_p50_ms": median([
            geomean([
                percentile(r[k::len(FAMILIES)], 0.5)
                for k in range(len(FAMILIES))
            ])
            for r in scaled(reads)
        ]),
        "recovery_s": median(scaled(recovery)),
        "space_words": float(sum(space.values())),
        "rank_error_over_eps": max(errors.values()),
    }
    layers = {}
    for name, _eps in FAMILIES:
        layers[f"kernel.{name}.update_ns"] = median(update_ns[name])
        layers[f"kernel.{name}.chunk_us_p50"] = percentile(chunk_us[name], 0.5)
        layers[f"kernel.{name}.chunk_us_p99"] = percentile(
            chunk_us[name], 0.99
        )
        layers[f"kernel.{name}.query_grid_us"] = median(
            grid_us[name]
        )
        layers[f"kernel.{name}.space_words"] = float(space[name])
    lookups = plane_hits + plane_misses
    layers.update({
        "sketches.hashplan.hit_ratio": plane_hits / lookups if lookups else 0.0,
        "sketches.hashplan.build_ms": median(plane_ms),
        "snapshot.encode_us": median(encode_us),
        "snapshot.restore_us": median(restore_us),
        "snapshot.bytes": float(snapshot_bytes),
        "kernel.read_ms_p90": read_p90,
        "kernel.read_ms_p99": read_p99,
        "obs.tracing_overhead": tracing_overhead(walls),
    })
    table, extra = attribution_layers(ctx) if ctx.trace else (None, {})
    layers.update(extra)
    return Result(
        metrics=metrics,
        layers=layers,
        attribution=table,
        info={
            "n": n,
            "deletions": len(deletions),
            "rounds": len(walls),
            "read_requests": sum(len(r) for r in reads),
            "snapshot_digests": [digest],
            "setup_s_by_round": setup,
            "recovery_s_by_round": recovery,
            "query_grid_us_by_round": grid_us,
            "ingest_ns_by_round": {
                name: update_ns[name] for name, _ in FAMILIES
            },
            "rank_error_over_eps_by_family": errors,
        },
    )
