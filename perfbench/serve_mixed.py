"""serve-mixed: the daemon as a separate process under an open-loop mix.

The daemon (``python -m repro serve --persist-dir ...``) holds three
sketches of paper families.  An open-loop generator with at most
``nproc`` connections sends seeded, skew-popular ``/v1/query`` reads on
a fixed schedule and, at a fixed share, ``ingest`` + ``flush`` writes
that bump epochs, invalidate cached answers and seal the sketch to
disk.  Every latency is timed from when its request was due.  After a
write, the writer asks for the 99-point grid of the sketch it wrote (a
cache miss).  Every answer must equal an offline sketch fed the same
acknowledged batches, at the epoch the answer names.

The mix (offered rate, write share, phi-vector popularity) is chosen,
not derived: nothing in the repository records a production mix, so
these are unverified assumptions (see README.md).
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from perfbench.common import (
    GRID,
    ROOT,
    UNIVERSE_LOG2,
    Context,
    PhiPool,
    Result,
    expect_within_eps,
    host_scaled,
    max_error_over_eps,
    median,
    no_span,
    percentile,
    snapshot_round_trip,
    sub_seed,
)
from perfbench.spans import table

#: (sketch name, algorithm, eps, universe_log2, seed).  No qdigest: its
#: 6-10 ms query, recomputed on the event loop for every cached phi
#: vector a write invalidates, would make the read p99 measure that
#: query alone (paper-sweep measures it).
SKETCHES = (
    ("gk_array", "gk_array", 1e-3, None, None),
    ("kll", "kll", 1e-2, None, 7),
    ("random", "random", 1e-2, None, 11),
)
#: Offered rate of the measured load (requests per second).
NOMINAL_RPS = 250
#: The measured load is cut into this many equal parts; each read
#: latency figure is a per-part percentile, then the median over the
#: parts, so a burst of outside disk or CPU load in one part does not
#: move it.
PARTS = 4
#: The offered-rate ladder behind ``loadgen.sustained_rps`` (traced runs).
LADDER_RPS = (200, 400, 800, 1600)
#: Read p99 limit (ms) a ladder rung must meet.
P99_LIMIT_MS = 50.0
#: One op in ``WRITE_EVERY`` is a write (1 %).  A write is an ingest
#: request, then a flush request, which applies the batch, seals the
#: sketch (fsync) and invalidates its cached answers on the daemon's
#: event loop, then a 99-point grid read.  At 5 % writes the loop was
#: held a tenth of the time and the read p50 moved by 0.19 of its median
#: over five seeds; at 1 % it moved by 0.04 to 0.12.
WRITE_EVERY = 100
WRITE_VALUES = 4096
SETUPS = 7
RESTARTS = 9
#: Cache-missing 99-point grid requests per sketch behind
#: ``query_grid_us``, sent in ``GRID_STEPS`` steps.
GRID_MISSES = 100
GRID_STEPS = 10
#: ``/healthz`` round trips behind the attribution table's transport row.
PROBES = 200
BOOT_TIMEOUT_S = 60.0
_READY = re.compile(r"# serving quantiles on (http://\S+)")


class Daemon:
    """One ``python -m repro serve`` process; ready once it prints its URL."""

    def __init__(self, root: Path, persist_dir: Path) -> None:
        # The daemon shuts down on SIGINT.  A process started in the
        # background by a non-interactive shell has SIGINT ignored and
        # passes that on through exec; a handled signal is reset to the
        # default instead, so the daemon gets a working SIGINT.
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + (
                [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
            )
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--persist-dir", str(persist_dir),
                "--port", "0", "--flush-threshold", "0",
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.url = self._wait_ready()

    def _read(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put("")

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        seen = []
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=deadline - time.monotonic())
            except queue.Empty:
                break
            if not line:
                break
            seen.append(line)
            match = _READY.search(line)
            if match:
                return match.group(1)
        self.stop()
        raise RuntimeError(
            "serve daemon did not become ready:\n" + "".join(seen[-20:])
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._reader.join(timeout=10)
        self.proc.stderr.close()


class Model:
    """The offline view: every acknowledged batch, by sketch and epoch."""

    def __init__(self) -> None:
        self.batches = {name: {} for name, *_ in SKETCHES}
        self.answers = []  # (sketch, epoch, phis, values)
        self.lock = threading.Lock()

    def replay(self, name: str):
        """Yield ``(epoch, offline sketch)`` for every acknowledged epoch."""
        from repro.evaluation.harness import apply_batch
        from repro.serve.registry import SketchSpec

        spec = next(SketchSpec(*s[1:]) for s in SKETCHES if s[0] == name)
        offline = spec.build()
        for epoch in sorted(self.batches[name]):
            batch = np.asarray(self.batches[name][epoch], dtype=spec.dtype)
            apply_batch(offline, batch)
            yield epoch, offline

    def values(self, name: str) -> np.ndarray:
        return np.sort(np.concatenate([
            self.batches[name][e] for e in sorted(self.batches[name])
        ]))


def _plain(value):
    return value.item() if hasattr(value, "item") else value


def _boot(ctx: Context, persist: Path, preload, model) -> tuple:
    """Boot, create and preload; returns (daemon, seconds)."""
    from repro.serve.client import ServeClient

    t0 = time.perf_counter()
    with ctx.span("serve.boot"):
        daemon = Daemon(ROOT, persist)
    try:
        with ServeClient(daemon.url) as client, ctx.span("serve.preload"):
            for name, algorithm, eps, universe, seed in SKETCHES:
                client.create(
                    name, algorithm=algorithm, eps=eps,
                    universe_log2=universe, seed=seed,
                )
                ack = client.ingest(name, preload[name].tolist(), flush=True)
                if model is not None:
                    model.batches[name][ack["epoch"]] = preload[name]
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - t0


def _schedule(rng, pool: PhiPool, count: int, every: int) -> list:
    """``count`` ops, every ``every``-th a write (none for ``every=0``),
    so the number of writes (and the size of each sketch) does not
    depend on the seed."""
    reads = iter(pool.draw(rng, count))
    ops = []
    for i in range(count):
        if every and i % every == every // 2:
            name = SKETCHES[i % len(SKETCHES)][0]
            ops.append((
                "write", name,
                rng.integers(0, 1 << UNIVERSE_LOG2, WRITE_VALUES),
            ))
        else:
            index = next(reads)
            ops.append(("read", SKETCHES[index % len(SKETCHES)][0], index))
    return ops


def _drive(url, ops, rate, connections, pool, model, traced=None) -> list:
    """Send ``ops`` at ``rate`` per second (open loop) and return one
    ``(kind, due, sent, done, ok, extra, sketch)`` record per op.

    With ``traced`` (the run's context), each connection records its
    client spans into a tracer of its own (spans nest per thread),
    merged into the run's tracer with a ``connection`` label when the
    load ends."""
    from repro.obs.trace import Tracer
    from repro.serve.client import ServeClient

    records = [None] * len(ops)
    cursor = iter(range(len(ops)))
    cursor_lock = threading.Lock()
    write_locks = {name: threading.Lock() for name, *_ in SKETCHES}
    t0 = time.perf_counter() + 0.05

    def one(client, op, span):
        kind, name = op[0], op[1]
        if kind == "read":
            phis = list(pool.sets[op[2]])
            with span("serve.client.read"):
                got = client.query([{"sketch": name, "phis": phis}])[0]
            values = [q["value"] for q in got["quantiles"]]
            with model.lock:
                model.answers.append((name, got["epoch"], phis, values))
            return None
        with write_locks[name]:
            with span("serve.client.ingest"):
                client.ingest(name, op[2].tolist())
            written = time.perf_counter()
            with span("serve.client.flush"):
                ack = client.flush(name)
            flushed = time.perf_counter()
            with model.lock:
                model.batches[name][ack["epoch"]] = op[2]
            with span("serve.client.grid"):
                got = client.quantile(name, GRID)
            grid_s = time.perf_counter() - flushed
        values = [q["value"] for q in got["quantiles"]]
        with model.lock:
            model.answers.append((name, got["epoch"], list(GRID), values))
        return written, grid_s, flushed - written

    def worker(index):
        client = ServeClient(url)
        span = no_span
        if traced is not None:
            own = Tracer(max_events=traced.tracer.max_events)
            labels = {"run_id": traced.run_id, "connection": index}
            span = lambda name: own.span(name, labels)  # noqa: E731
        try:
            while True:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = t0 + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    extra, ok = one(client, ops[i], span), True
                except Exception as exc:  # a failed op must not stop the load
                    extra, ok = repr(exc), False
                done = time.perf_counter()
                if ok and extra is not None:
                    done = extra[0]
                records[i] = (ops[i][0], due, sent, done, ok, extra, ops[i][1])
        finally:
            client.close()
            if traced is not None:
                with merge_lock:
                    traced.tracer.ingest(own.export_batch())

    merge_lock = threading.Lock()
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _parts(records) -> list:
    """:func:`_window` of each of ``PARTS`` equal slices of ``records``."""
    size = len(records) // PARTS
    return [_window(records[i * size:(i + 1) * size]) for i in range(PARTS)]


def _window(records) -> dict:
    reads = [r for r in records if r[0] == "read"]
    writes = [r for r in records if r[0] == "write" and r[4]]
    by_sketch = defaultdict(lambda: ([], []))
    for r in writes:
        by_sketch[r[6]][0].append(1e3 * (r[3] - r[1]))
        by_sketch[r[6]][1].append(1e6 * r[5][1] / len(GRID))
    read_ms = [
        1e3 * (r[3] - r[1]) if r[4] else float("inf") for r in reads
    ]
    late = [1e3 * (r[2] - r[1]) for r in records]
    third = max(1, len(late) // 3)
    return {
        "read_ms": read_ms,
        "write_ms": [1e3 * (r[3] - r[1]) for r in writes],
        "flush_ms": [1e3 * r[5][2] for r in writes],
        #: Due to the ingest request's answer (before the flush), mean
        #: over sketches of each sketch's median: the sketches' costs
        #: differ widely, so a plain median would jump with the mix.
        "write_ms_by_sketch": float(np.mean(
            [median(w) for w, _g in by_sketch.values()]
        )) if by_sketch else 0.0,
        "grid_us_by_sketch": float(np.mean(
            [median(g) for _w, g in by_sketch.values()]
        )) if by_sketch else 0.0,
        "late_ms": late,
        "late_growing": (
            percentile(late[-third:], 0.9)
            > percentile(late[:third], 0.9) + 5.0
        ),
        "failed": sum(1 for r in records if not r[4]),
    }


#: The daemon's request and query-handler latency summaries in /metrics.
_SUMMARIES = {
    "request": "repro_latency_serve_request_ns",
    "query": "repro_latency_serve_query_ns",
}


def _grid_misses(ctx: Context, url: str, model: Model) -> dict:
    """``query_grid_us``: 99-point ``/quantile`` requests that miss the
    answer cache, on one connection, each asking for the grid shifted
    down by its own multiple of 1e-6 (so no write is needed to make it a
    miss).  They go in ``GRID_STEPS`` steps of ``GRID_MISSES //
    GRID_STEPS`` per sketch, with a calibration reading between steps
    that scales each step's latencies to the reference host.  Returns
    each sketch's median latency per quantile."""
    from repro.serve.client import ServeClient

    per_step = GRID_MISSES // GRID_STEPS
    times = {name: [] for name, *_ in SKETCHES}  # scaled, all steps
    steps, readings = [], [ctx.calibrate()]
    with ServeClient(url) as client, ctx.span("serve.client.grid_misses"):
        for step in range(GRID_STEPS):
            step_times = {name: [] for name in times}
            for j in range(step * per_step, (step + 1) * per_step):
                phis = [round(phi - (j + 1) * 1e-6, 9) for phi in GRID]
                for name in times:
                    q0 = time.perf_counter()
                    got = client.quantile(name, phis)
                    step_times[name].append(
                        1e6 * (time.perf_counter() - q0) / len(GRID)
                    )
                    values = [q["value"] for q in got["quantiles"]]
                    with model.lock:
                        model.answers.append(
                            (name, got["epoch"], phis, values)
                        )
            steps.append(step_times)
            readings.append(ctx.calibrate())
    for name, scaled in times.items():
        for values in host_scaled([step[name] for step in steps], readings):
            scaled.extend(values)
    return {name: median(v) for name, v in times.items()}


def _summaries(text: str) -> dict:
    """``{key: {"sum", "count", "p50", "p99"}}`` (ns) of :data:`_SUMMARIES`
    in a /metrics text; the summaries cover every request since boot."""
    out = {}
    for key, metric in _SUMMARIES.items():
        fields = {}
        for field, pattern in (
            ("sum", rf"^{metric}_sum (\S+)$"),
            ("count", rf"^{metric}_count (\S+)$"),
            ("p50", rf'^{metric}{{quantile="0.5"}} (\S+)$'),
            ("p99", rf'^{metric}{{quantile="0.99"}} (\S+)$'),
        ):
            match = re.search(pattern, text, re.M)
            fields[field] = float(match.group(1)) if match else 0.0
        out[key] = fields
    return out


def _window_mean_ms(before: dict, after: dict, key: str, extra=(0.0, 0)):
    """Mean (ms) of the ``key`` summary's observations between two
    scrapes, less ``extra`` = (ns, count) that were not in the window."""
    count = after[key]["count"] - before[key]["count"] - extra[1]
    total = after[key]["sum"] - before[key]["sum"] - extra[0]
    return total / count / 1e6 if count > 0 else 0.0


def _cache_layers(url: str) -> dict:
    """Cache and flush counters from ``/v1/stats``."""
    from repro.serve.client import ServeClient

    with ServeClient(url) as client:
        stats = client.stats()
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.cache.invalidations": float(cache["invalidations"]),
        "serve.cache.stale_retries": float(cache["stale_retries"]),
        "serve.cache.coalesced": float(cache["coalesced"]),
        "serve.flushes": float(stats["counters"]["flushes"]),
    }


def _attribute(ctx: Context, url: str, ops, connections, pool, model):
    """The traced read window and its attribution table.

    The window holds reads only and is the first load the daemon sees
    after set-up; its first half is traced, its second half is not (the
    two halves' p50s give the tracing overhead).  Each row is measured
    on its own, as a mean over the window: the load generator's wait
    from due to sent (client clock), the daemon's request time and
    query-handler time (its /metrics summaries, scraped right before
    and right after the window), and the transport of a request the
    daemon does no work for (client round trip of ``/healthz`` probes
    minus the daemon's time for them).  Whatever these rows do not
    cover is the unattributed leftover.  Returns ``(table, layers)``.
    """
    from repro.serve.client import ServeClient

    half = len(ops) // 2
    with ServeClient(url) as client:
        first = _summaries(client.metrics_text())
        before = _summaries(client.metrics_text())
        # A scrape is accounted after its own text is built, so the
        # next scrape carries it: one scrape's time, to take out again.
        scrape = (before["request"]["sum"] - first["request"]["sum"], 1)
        traced = _drive(
            url, ops[:half], NOMINAL_RPS, connections, pool, model, ctx
        )
        plain = _drive(url, ops[half:], NOMINAL_RPS, connections, pool, model)
        after = _summaries(client.metrics_text())
        rtt = []
        for _ in range(PROBES):
            h0 = time.perf_counter()
            client.healthz()
            rtt.append(time.perf_counter() - h0)
            time.sleep(1.0 / NOMINAL_RPS)
        probed = _summaries(client.metrics_text())
    reads = [r for r in traced + plain if r[0] == "read" and r[4]]
    total = float(np.mean([1e3 * (r[3] - r[1]) for r in reads]))
    request = _window_mean_ms(before, after, "request", scrape)
    query = _window_mean_ms(before, after, "query")
    transport = 1e3 * float(np.mean(rtt)) - _window_mean_ms(
        after, probed, "request", scrape
    )
    rows = {
        "loadgen (due to sent)": float(
            np.mean([1e3 * (r[2] - r[1]) for r in reads])
        ),
        "serve (request outside the handler)": request - query,
        "serve (query handler)": query,
        "transport (healthz probe)": transport,
    }
    attribution = table(
        rows, total, f"mean over {len(reads)} reads at {NOMINAL_RPS} req/s"
    )
    layers = {
        f"serve.server.{key}_ms_{q}": after[key][q] / 1e6
        for key in _SUMMARIES for q in ("p50", "p99")
    }
    layers.update({
        "serve.transport_ms": transport,
        "attribution.unattributed_ratio": attribution["leftover"] / total,
        "attribution.residual": attribution["residual"],
        "obs.tracing_overhead": (
            percentile(_window(traced)["read_ms"], 0.5)
            / percentile(_window(plain)["read_ms"], 0.5) - 1.0
        ),
    })
    return attribution, layers


def _in_process(ctx: Context, model: Model) -> dict:
    """``LiveSketch.apply`` / ``ServeRegistry.seal`` on the acknowledged
    batches, ``QuantileService`` hit and miss reads, and
    ``Summary.observe`` on a summary already holding 1e5 values."""
    import asyncio

    from repro.obs.latency import Summary
    from repro.serve.registry import ServeRegistry, SketchSpec
    from repro.serve.service import QuantileService

    registry = ServeRegistry(persist_dir=ctx.workdir / "in-process")
    apply_ms, seal_ms = [], []
    for name, *spec in SKETCHES:
        entry = registry.create(name, SketchSpec(*spec))
        for epoch in sorted(model.batches[name]):
            entry.buffer(model.batches[name][epoch])
            a0 = time.perf_counter()
            entry.apply()
            a1 = time.perf_counter()
            registry.seal(entry)
            apply_ms.append(1e3 * (a1 - a0))
            seal_ms.append(1e3 * (time.perf_counter() - a1))
    encode_us, restore_us, nbytes = 0.0, 0.0, 0
    for name, *_ in SKETCHES:
        blob, _back, enc_ns, rest_ns = snapshot_round_trip(
            no_span, registry.get(name).sketch
        )
        encode_us += enc_ns / 1e3
        restore_us += rest_ns / 1e3
        nbytes += len(blob)
    service = QuantileService(registry=registry)
    phis = list(GRID[::11])

    async def reads(miss: bool) -> list:
        out = []
        for i in range(300):
            name = SKETCHES[i % len(SKETCHES)][0]
            if miss:
                service.cache.invalidate(name)
            q0 = time.perf_counter_ns()
            await service.quantiles(name, phis)
            out.append((time.perf_counter_ns() - q0) / 1e3)
        return out

    asyncio.run(reads(False))  # fill the cache
    hit_us = asyncio.run(reads(False))
    miss_us = asyncio.run(reads(True))
    summary = Summary("probe")
    rng = np.random.default_rng(sub_seed(ctx.seed, 9))
    for value in rng.exponential(1e5, 100_000):
        summary.observe(value)
    probe = rng.exponential(1e5, 20_000).tolist()
    o0 = time.perf_counter_ns()
    for value in probe:
        summary.observe(value)
    observe_ns = (time.perf_counter_ns() - o0) / len(probe)
    return {
        "snapshot.encode_us": encode_us,
        "snapshot.restore_us": restore_us,
        "snapshot.bytes": float(nbytes),
        "serve.apply_ms": median(apply_ms),
        "serve.seal_ms": median(seal_ms),
        "serve.service.query_hit_us": median(hit_us),
        "serve.service.query_miss_us": median(miss_us),
        "obs.summary.observe_ns": observe_ns,
    }


def _check_answers(ctx: Context, model: Model) -> dict:
    """Every served answer against the offline sketch at its epoch;
    returns the final rank error over eps of each sketch."""
    checks = ctx.checks
    by_key = defaultdict(list)
    for name, epoch, phis, values in model.answers:
        by_key[(name, epoch)].append((phis, values))
    errors = {}
    for name, _algorithm, eps, _universe, _seed in SKETCHES:
        offline = None
        for epoch, offline in model.replay(name):
            for phis, values in by_key.pop((name, epoch), ()):
                expected = [_plain(v) for v in offline.query_batch(phis)]
                checks.expect(
                    values == expected,
                    f"{name}@{epoch}: served {values[:3]}... != offline "
                    f"{expected[:3]}...",
                )
        errors[name] = max_error_over_eps(offline, model.values(name), eps)
        expect_within_eps(checks, offline, errors[name], name)
    for (name, epoch), answers in by_key.items():
        checks.expect(
            False, f"{len(answers)} answers at unacknowledged {name}@{epoch}"
        )
    return errors


def run(ctx: Context) -> Result:
    from repro.serve.client import ServeClient

    checks = ctx.checks
    connections = max(1, min(2, ctx.nproc))
    rng = np.random.default_rng(sub_seed(ctx.seed, 1))
    preload = {
        name: rng.integers(0, 1 << UNIVERSE_LOG2, ctx.size(1 << 16))
        for name, *_ in SKETCHES
    }
    pool = PhiPool(sub_seed(ctx.seed, 2))
    op_rng = np.random.default_rng(sub_seed(ctx.seed, 3))
    model = Model()
    persist = ctx.workdir / "persist"
    ops = max(PARTS * WRITE_EVERY, int(NOMINAL_RPS * ctx.seconds))
    ops -= ops % PARTS
    setup, restart_s = [], []
    layers, attribution = {}, None
    daemon = None
    try:
        setup_cal = [ctx.calibrate()]
        for i in range(SETUPS):
            last = i == SETUPS - 1
            daemon, seconds = _boot(
                ctx, persist if last else ctx.workdir / f"boot-{i}",
                preload, model if last else None,
            )
            setup.append(seconds)
            if not last:
                daemon.stop()
            setup_cal.append(ctx.calibrate())

        if ctx.trace:
            attribution, traced = _attribute(
                ctx, daemon.url, _schedule(op_rng, pool, ops // 2, 0),
                connections, pool, model,
            )
            layers.update(traced)
        # No reading during the load: the calibration would hold the
        # generator threads' GIL and make them late.
        ctx.calibrate()
        records = _drive(
            daemon.url, _schedule(op_rng, pool, ops, WRITE_EVERY),
            NOMINAL_RPS, connections, pool, model,
        )
        ctx.calibrate()
        mixed = _window(records)
        parts = _parts(records)
        checks.expect(
            mixed["failed"] == 0,
            f"{mixed['failed']} failed requests at {NOMINAL_RPS} req/s",
        )
        if ctx.trace:
            sustained = 0.0
            for rate in LADDER_RPS:
                rung = _window(_drive(
                    daemon.url,
                    _schedule(
                        op_rng, pool, max(50, int(rate * ctx.seconds / 8)),
                        WRITE_EVERY,
                    ),
                    rate, connections, pool, model,
                ))
                checks.expect(
                    rung["failed"] == 0,
                    f"{rung['failed']} failed requests at {rate} req/s",
                )
                if (
                    percentile(rung["read_ms"], 0.99) > P99_LIMIT_MS
                    or rung["late_growing"]
                ):
                    break
                sustained = float(rate)
            layers.update(_cache_layers(daemon.url))
            layers.update({
                "loadgen.flush_ms_p50": median(mixed["flush_ms"]),
                "loadgen.read_ms_p90": median(
                    [percentile(part["read_ms"], 0.90) for part in parts]
                ),
                "loadgen.read_ms_p99": median(
                    [percentile(part["read_ms"], 0.99) for part in parts]
                ),
                "loadgen.late_ms_p99": percentile(mixed["late_ms"], 0.99),
                "loadgen.sustained_rps": sustained,
            })
        grid_us = _grid_misses(ctx, daemon.url, model)
        with ServeClient(daemon.url) as client:
            infos = {info["name"]: info for info in client.sketches()}
        daemon.stop()
        daemon = None

        restart_cal = [ctx.calibrate()]
        for _ in range(RESTARTS):
            r0 = time.perf_counter()
            with ctx.span("serve.restart"):
                daemon = Daemon(ROOT, persist)
                with ServeClient(daemon.url) as client:
                    restored = {i["name"]: i for i in client.sketches()}
            restart_s.append(time.perf_counter() - r0)
            with ServeClient(daemon.url) as client:
                for name, *_ in SKETCHES:
                    got = client.quantile(name, GRID)
                    model.answers.append((
                        name, got["epoch"], list(GRID),
                        [q["value"] for q in got["quantiles"]],
                    ))
            checks.expect(
                all(
                    restored.get(name, {}).get("epoch") == info["epoch"]
                    for name, info in infos.items()
                ),
                "warm restart did not restore every sealed epoch",
            )
            daemon.stop()
            daemon = None
            restart_cal.append(ctx.calibrate())
    finally:
        if daemon is not None:
            daemon.stop()

    errors = _check_answers(ctx, model)
    if ctx.trace:
        layers.update(_in_process(ctx, model))
    # Each boot and restart is scaled by the readings on either side of
    # it.  The load, with no reading inside, is scaled by the run's
    # median reading: over five seeds that left the read p50 a spread of
    # 0.06, against 0.18 with the two readings around the load alone.
    slowdown = ctx.slowdown()
    metrics = {
        "setup_s": median(host_scaled(setup, setup_cal)),
        "ingest_ns_per_item": (
            1e6 * mixed["write_ms_by_sketch"] / WRITE_VALUES / slowdown
        ),
        "query_grid_us": float(np.mean(list(grid_us.values()))),
        "query_p50_ms": median(
            [percentile(part["read_ms"], 0.50) for part in parts]
        ) / slowdown,
        "recovery_s": median(host_scaled(restart_s, restart_cal)),
        "space_words": float(sum(i["size_words"] for i in infos.values())),
        "rank_error_over_eps": max(errors.values()),
    }
    return Result(
        metrics=metrics,
        layers=layers,
        attribution=attribution,
        info={
            "connections": connections,
            "nominal_rps": NOMINAL_RPS,
            "reads": len(mixed["read_ms"]),
            "writes": len(mixed["write_ms"]),
            "flush_ms_p50": median(mixed["flush_ms"]),
            "grid_after_write_us": mixed["grid_us_by_sketch"],
            "query_grid_us_by_sketch": grid_us,
            "late_ms_p99": percentile(mixed["late_ms"], 0.99),
            "read_ms_quantiles": {
                q: percentile(mixed["read_ms"], q)
                for q in (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
            },
            "read_ms_p50_by_part": [
                percentile(part["read_ms"], 0.5) for part in parts
            ],
            "rank_error_over_eps_by_sketch": errors,
        },
    )
