"""The multi-core sharded ingest engine.

One stream, ``K`` persistent worker processes, one merged summary:

1. The parent cuts the stream into :class:`~repro.parallel.plan.ShardPlan`
   chunks and deals them round-robin into per-worker shared-memory slots
   (:mod:`repro.parallel.shm`) — the hot path moves bytes with two
   ``ndarray`` copies and never pickles element data.
2. Each worker owns one sketch, seeded from the plan
   (``plan.sketch_seed``), and ingests its chunks through the batch
   kernels (``extend`` / ``update_batch``).  Workers persist for the
   whole stream; they are built once, not per chunk.
3. ``finish()`` ships each worker's summary back as a checksummed
   snapshot envelope, re-registers worker metrics/spans in the parent,
   and folds the ``K`` summaries with a binary merge tree into one
   summary whose error bound is the same ``eps`` the shards ran at
   (see :mod:`repro.cash_register.gk_batch` for the GK argument; linear
   sketches merge by counter addition; weighted-sample sketches by
   collapse).

Determinism: for a fixed ``(algorithm, data, ShardPlan)`` the merged
summary is identical run to run — chunk dealing, worker seeds, and the
merge-tree order are all pure functions of the plan.  Workers that
crash or hang raise :class:`~repro.core.errors.ParallelIngestError` in
the parent rather than deadlocking the session.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.base import QuantileSketch, TurnstileSketch
from repro.core.errors import (
    InvalidParameterError,
    ParallelIngestError,
    UnmergeableSketchError,
)
from repro.core.registry import merge_shares_seed, supports_merge
from repro.core.snapshot import restore, snapshot
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parallel.plan import ShardPlan
from repro.parallel.shm import (
    MAX_SLOTS_PER_WORKER,
    attach_slots,
    create_slot_pool,
)

#: Seconds the parent waits on worker replies before declaring it dead.
_REPLY_TIMEOUT_S = 120.0

#: Default shared-memory slots per worker, fixed so that no behaviour
#: depends on the box's timing.  In perfbench's sharded-ingest rounds
#: the median was 299.0 ns/item at depth 2, 272.9 at depth 4 and 268.6
#: at depth 8: four slots get nearly all of eight's overlap.
DEFAULT_SLOTS_PER_WORKER = 4


def _start_method() -> str:
    """Prefer fork (fast, Linux default); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _shard_worker(
    worker_id: int,
    plan: ShardPlan,
    spec: Dict[str, Any],
    slot_names: List[str],
    dtype_str: str,
    task_queue: Any,
    reply_queue: Any,
    collect_metrics: bool,
    collect_spans: bool,
) -> None:
    """Worker entry point: one sketch, fed from shared-memory slots.

    Every random draw in the worker flows from the plan: the sketch seed
    is ``plan.sketch_seed(worker_id, shares_seed)`` (REP006).  Messages
    on ``task_queue`` are ``("chunk", slot, count)``, ``("finish",)``,
    or ``("stop",)``; replies are ``("ack", worker, [slots])`` — one ack
    per *drained group*, not per chunk — sent after every drained chunk
    is copied out of shared memory (so the parent refills the whole
    group while the sketch ingests), ``("result", worker, blob, metrics,
    spans)``, and ``("error", worker, traceback)``.

    The drain keeps chunk ingest order identical to send order (chunks
    are copied out and ingested in queue order, one ``update_batch`` /
    ``extend`` call per chunk), so the merged result stays a pure
    function of the plan regardless of how the drain groups land.
    """
    # Imported here, not at module top, to keep the worker's fork-time
    # surface identical to the parent's (spawn re-imports this module).
    import queue as queue_module

    from repro.evaluation.harness import build_sketch

    registry = None
    tracer = None
    try:
        if collect_metrics:
            registry = obs_metrics.enable(obs_metrics.MetricsRegistry())
        if collect_spans:
            tracer = obs_trace.enable_tracing(obs_trace.Tracer())
        seed = plan.sketch_seed(worker_id, spec["shares_seed"])
        sketch = build_sketch(
            spec["algorithm"],
            spec["eps"],
            spec["universe_log2"],
            seed,
            **spec["kwargs"],
        )
        is_turnstile = isinstance(sketch, TurnstileSketch)
        slots = attach_slots(
            slot_names, plan.chunk_size, np.dtype(dtype_str)
        )
        rec = obs_metrics.recorder()
        pending: List[Any] = []
        while True:
            message = pending.pop() if pending else task_queue.get()
            kind = message[0]
            if kind == "chunk":
                # Drain whatever else already sits in the queue (bounded
                # by the slot-pool depth), copy every drained chunk out,
                # then free the whole slot group with a single ack.
                group = [message]
                while len(group) < len(slots) and not pending:
                    try:
                        extra = task_queue.get_nowait()
                    except queue_module.Empty:
                        break
                    if extra[0] == "chunk":
                        group.append(extra)
                    else:
                        pending.append(extra)
                chunks = [
                    (count, slots[slot].read(count))
                    for _, slot, count in group
                ]
                reply_queue.put(
                    ("ack", worker_id, [slot for _, slot, _ in group])
                )
                if rec.enabled:
                    rec.inc("parallel.acks", 1)
                    rec.inc("parallel.acked_slots", len(group))
                for count, values in chunks:
                    start = time.perf_counter_ns()
                    with obs_trace.span(
                        "parallel.ingest_chunk", algo=sketch.name, n=count
                    ):
                        if is_turnstile:
                            sketch.update_batch(values)
                        else:
                            sketch.extend(values)
                    if rec.enabled:
                        elapsed = time.perf_counter_ns() - start
                        rec.observe(
                            "parallel.ingest_ns", elapsed, algo=sketch.name
                        )
                        rec.summary(
                            "latency.ingest_chunk_ns", algo=sketch.name
                        ).observe(elapsed)
            elif kind == "finish":
                blob = snapshot(sketch)
                metrics_state = (
                    obs_metrics.export_state(registry)
                    if registry is not None
                    else []
                )
                # Ship the anchored batch (not the raw event list) so the
                # parent can re-base worker spans onto its timeline.
                span_batch = (
                    tracer.export_batch() if tracer is not None else None
                )
                reply_queue.put(
                    ("result", worker_id, blob, metrics_state, span_batch)
                )
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol bug guard
                raise InvalidParameterError(
                    f"unknown worker message {message!r}"
                )
        for slot in slots:
            slot.close()
    except Exception:  # pragma: no cover - exercised via crash tests
        reply_queue.put(("error", worker_id, traceback.format_exc()))


class ShardedIngestEngine:
    """Feed one stream through ``K`` worker processes and merge.

    Args:
        algorithm: registry name; must support merging
            (:func:`repro.core.registry.mergeable_algorithms`).
        eps: error parameter for every shard *and* the merged summary.
        plan: the :class:`ShardPlan` fixing shard count, chunking, and
            every seed.
        universe_log2: for fixed-universe algorithms.
        collect_metrics: run a metrics registry in every worker and
            absorb each into the parent recorder (labeled ``worker=i``)
            at ``finish()``.  Worker spans are shipped the same way when
            the parent has tracing enabled.
        dtype: element dtype of the stream (slots are sized for it).
        slots_per_worker: shared-memory slots per worker, at most
            :data:`~repro.parallel.shm.MAX_SLOTS_PER_WORKER`.  ``None``
            (default) means :data:`DEFAULT_SLOTS_PER_WORKER`.  Pool
            depth sets only how far refill runs ahead of ingest, never
            the merged result.
        **kwargs: forwarded to the algorithm constructor.

    Use as a context manager, or call :meth:`close` — slots are
    shared-memory segments that must be unlinked.
    """

    def __init__(
        self,
        algorithm: str,
        eps: float,
        plan: ShardPlan,
        universe_log2: Optional[int] = None,
        collect_metrics: bool = False,
        dtype: Any = np.int64,
        slots_per_worker: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        if not supports_merge(algorithm):
            raise UnmergeableSketchError(
                f"{algorithm} cannot shard: it defines no merge operation "
                "(see repro.core.registry.mergeable_algorithms())"
            )
        if slots_per_worker is not None and not (
            1 <= slots_per_worker <= MAX_SLOTS_PER_WORKER
        ):
            raise InvalidParameterError(
                f"slots_per_worker must be in [1, {MAX_SLOTS_PER_WORKER}], "
                f"got {slots_per_worker!r}"
            )
        self.algorithm = algorithm
        self.eps = eps
        self.plan = plan
        self._spec: Dict[str, Any] = {
            "algorithm": algorithm,
            "eps": eps,
            "universe_log2": universe_log2,
            "kwargs": dict(kwargs),
            "shares_seed": merge_shares_seed(algorithm),
        }
        self._dtype = np.dtype(dtype)
        self._collect_metrics = collect_metrics
        self.slots_per_worker = (
            DEFAULT_SLOTS_PER_WORKER
            if slots_per_worker is None
            else slots_per_worker
        )
        self._ctx = mp.get_context(_start_method())
        self._workers: List[Any] = []
        self._task_queues: List[Any] = []
        self._reply_queue: Optional[Any] = None
        self._slots: List[List[Any]] = []
        self._free: List[List[int]] = []
        self._chunk_counter = 0
        self._elements = 0
        #: Combined ``size_words()`` of the worker summaries as restored
        #: at :meth:`finish` — the live-summary footprint of the run.
        self.worker_peak_words = 0
        self._finished = False
        self._closed = False
        self._started = False

    # -- lifecycle ------------------------------------------------------

    def _start(self, data: Optional[np.ndarray] = None) -> None:
        """Create the slot pools and spawn the workers (idempotent).

        ``data`` is accepted so that a caller holding the stream can
        start the engine ahead of the first :meth:`ingest`; the pool
        depth does not depend on it.
        """
        if self._started:
            return
        collect_spans = obs_trace.tracer() is not None
        self._slots = create_slot_pool(
            self.plan.shards, self.slots_per_worker, self.plan.chunk_size,
            self._dtype,
        )
        self._reply_queue = self._ctx.Queue()
        for worker_id in range(self.plan.shards):
            task_queue = self._ctx.Queue()
            process = self._ctx.Process(
                target=_shard_worker,
                args=(
                    worker_id,
                    self.plan,
                    self._spec,
                    [slot.name for slot in self._slots[worker_id]],
                    self._dtype.str,
                    task_queue,
                    self._reply_queue,
                    self._collect_metrics,
                    collect_spans,
                ),
                daemon=True,
            )
            process.start()
            self._workers.append(process)
            self._task_queues.append(task_queue)
            self._free.append(list(range(self.slots_per_worker)))
        self._started = True
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.set("parallel.workers", self.plan.shards)
            rec.set("parallel.slots_per_worker", self.slots_per_worker)
            rec.set("telemetry.engine.up", 1)
            for worker_id in range(self.plan.shards):
                rec.set("telemetry.shard.alive", 1, worker=worker_id)

    def __enter__(self) -> "ShardedIngestEngine":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # -- reply handling -------------------------------------------------

    def _next_reply(self) -> Any:
        """One reply from any worker, or raise if a worker died."""
        import queue as queue_module

        try:
            reply = self._reply_queue.get(timeout=_REPLY_TIMEOUT_S)
        except queue_module.Empty:
            dead = [
                i for i, p in enumerate(self._workers) if not p.is_alive()
            ]
            raise ParallelIngestError(
                f"no worker reply within {_REPLY_TIMEOUT_S:.0f}s; "
                f"dead workers: {dead or 'none'}"
            ) from None
        if reply[0] == "error":
            raise ParallelIngestError(
                f"worker {reply[1]} failed:\n{reply[2]}"
            )
        return reply

    def _absorb_ack(self, reply: Any) -> None:
        """Return an acked slot group to its worker's free pool."""
        if reply[0] != "ack":  # pragma: no cover - protocol guard
            raise ParallelIngestError(
                f"unexpected reply {reply[0]!r} while waiting for acks"
            )
        self._free[reply[1]].extend(reply[2])

    def _drain_acks(self) -> None:
        """Absorb every already-arrived ack without blocking.

        Called opportunistically during the deal so free lists restock
        as soon as workers drain, keeping the parent's slot writes
        overlapped with worker ingest instead of bursting at stalls.
        """
        import queue as queue_module

        while True:
            try:
                reply = self._reply_queue.get_nowait()
            except queue_module.Empty:
                return
            if reply[0] == "error":
                raise ParallelIngestError(
                    f"worker {reply[1]} failed:\n{reply[2]}"
                )
            self._absorb_ack(reply)

    def _take_free_slot(self, worker_id: int) -> int:
        """A free slot for ``worker_id``, draining acks until one shows."""
        while not self._free[worker_id]:
            self._absorb_ack(self._next_reply())
        return self._free[worker_id].pop()

    # -- ingest ---------------------------------------------------------

    def ingest(self, data: np.ndarray) -> None:
        """Deal a stream (or a piece of one) across the workers.

        May be called repeatedly; the round-robin chunk deal continues
        where the previous call stopped, so ``ingest(a); ingest(b)`` is
        the same deal as ``ingest(concat(a, b))`` when ``len(a)`` is a
        multiple of the chunk size.
        """
        if self._finished:
            raise InvalidParameterError(
                "engine already finished; build a new one to ingest more"
            )
        data = np.asarray(data, dtype=self._dtype)
        self._start()
        rec = obs_metrics.recorder()
        chunks = 0
        for index, lo, hi in self.plan.chunks(
            len(data), first_chunk=self._chunk_counter
        ):
            worker_id = self.plan.shard_of_chunk(index)
            self._drain_acks()
            slot = self._take_free_slot(worker_id)
            count = self._slots[worker_id][slot].write(data[lo:hi])
            self._task_queues[worker_id].put(("chunk", slot, count))
            chunks += 1
        self._chunk_counter += chunks
        self._elements += len(data)
        if rec.enabled:
            rec.inc("parallel.chunks", chunks, algo=self.algorithm)
            rec.inc("parallel.elements", len(data), algo=self.algorithm)

    # -- finish ---------------------------------------------------------

    def finish(self) -> QuantileSketch:
        """Collect every worker's summary and merge to one.

        Returns the merged summary (error bound ``eps`` over the union
        stream).  Worker metrics and spans, when collected, are absorbed
        into the parent's recorder/tracer labeled ``worker=<shard>``.
        """
        if self._finished:
            raise InvalidParameterError("engine already finished")
        self._start()
        self._finished = True
        for task_queue in self._task_queues:
            task_queue.put(("finish",))
        blobs: Dict[int, bytes] = {}
        rec = obs_metrics.recorder()
        parent_tracer = obs_trace.tracer()
        while len(blobs) < self.plan.shards:
            reply = self._next_reply()
            if reply[0] == "ack":
                self._free[reply[1]].extend(reply[2])
                continue
            _, worker_id, blob, metrics_state, span_batch = reply
            blobs[worker_id] = blob
            if metrics_state and isinstance(
                rec, obs_metrics.MetricsRegistry
            ):
                obs_metrics.absorb_state(
                    rec, metrics_state, worker=worker_id
                )
            if span_batch and parent_tracer is not None:
                parent_tracer.ingest(span_batch, worker=worker_id)
        sketches = [restore(blobs[i]) for i in range(self.plan.shards)]
        self.worker_peak_words = sum(s.size_words() for s in sketches)
        with obs_trace.span(
            "parallel.merge_tree", algo=self.algorithm,
            shards=self.plan.shards,
        ):
            while len(sketches) > 1:
                merged: List[QuantileSketch] = []
                for i in range(0, len(sketches) - 1, 2):
                    start = time.perf_counter_ns()
                    sketches[i].merge(sketches[i + 1])
                    if rec.enabled:
                        rec.inc("parallel.merges", 1, algo=self.algorithm)
                        rec.observe(
                            "parallel.merge_ns",
                            time.perf_counter_ns() - start,
                            algo=self.algorithm,
                        )
                    merged.append(sketches[i])
                if len(sketches) % 2:
                    merged.append(sketches[-1])
                sketches = merged
        result = sketches[0]
        result.validate()
        return result

    def close(self) -> None:
        """Stop workers and release the shared-memory slots."""
        if self._closed:
            return
        self._closed = True
        rec = obs_metrics.recorder()
        if rec.enabled and self._started:
            rec.set("telemetry.engine.up", 0)
            for worker_id in range(self.plan.shards):
                rec.set("telemetry.shard.alive", 0, worker=worker_id)
        for task_queue in self._task_queues:
            try:
                task_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover
                pass
        for process in self._workers:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()  # replint: disable=REP007
                process.join(timeout=5.0)
        for pool in self._slots:
            for slot in pool:
                slot.close()
                slot.unlink()


def parallel_feed(
    algorithm: str,
    data: np.ndarray,
    eps: float,
    plan: ShardPlan,
    universe_log2: Optional[int] = None,
    collect_metrics: bool = False,
    **kwargs: Any,
) -> tuple:
    """One-shot convenience: shard ``data``, merge, return the summary.

    Returns ``(summary, seconds)`` where ``seconds`` is the wall-clock
    time of ingest plus merge (the parallel analogue of the harness's
    update phase).
    """
    with ShardedIngestEngine(
        algorithm,
        eps,
        plan,
        universe_log2=universe_log2,
        collect_metrics=collect_metrics,
        dtype=np.asarray(data).dtype,
        **kwargs,
    ) as engine:
        start = time.perf_counter()
        engine.ingest(data)
        merged = engine.finish()
        elapsed = time.perf_counter() - start
    return merged, elapsed
