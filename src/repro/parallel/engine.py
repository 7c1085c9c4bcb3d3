"""The multi-core sharded ingest engine, optionally durable.

One stream, ``K`` persistent worker processes, one merged summary:

1. The parent cuts the stream into :class:`~repro.parallel.plan.ShardPlan`
   chunks and deals them round-robin into per-worker shared-memory slots
   (:mod:`repro.parallel.shm`) — the hot path moves bytes with two
   ``ndarray`` copies and never pickles element data.
2. Each worker owns one sketch, seeded from the plan
   (``plan.sketch_seed``), and ingests its chunks through the batch
   kernels.  Workers persist for the whole stream.
3. ``finish()`` ships each worker's summary back as a checksummed
   snapshot envelope, re-registers worker metrics/spans in the parent,
   and folds the ``K`` summaries with a binary merge tree into one
   summary whose error bound is the same ``eps`` the shards ran at
   (see :mod:`repro.cash_register.gk_batch` for the GK argument).

Replies travel over a **per-worker pipe** multiplexed with
:func:`multiprocessing.connection.wait`, never a shared queue: a shared
queue's pipe-write lock dies with whichever worker a SIGKILL catches
holding it, silencing every other worker, whereas a crashed worker can
only tear its own pipe, which the parent reads as an immediate EOF.  A
pipe EOF or a dead process is a failure at once; a live worker silent
past :attr:`SupervisorConfig.hung_timeout_s` with work outstanding is
hung and killed.

Without ``durable`` any worker failure raises
:class:`~repro.core.errors.ParallelIngestError`.  With a
:class:`~repro.durability.ingest.DurabilityConfig` every worker owns a
:class:`~repro.durability.ingest.DurableIngest` store under
``<dir>/shard-<k>/`` and acks chunks only once durably applied; the
parent keeps a copy of every unacked chunk, restarts a failed worker
with exponential backoff, resends the chunks at or above the high-water
mark the new incarnation recovered to, and abandons a shard whose
restart budget is spent, salvaging what its store durably holds.
:attr:`~ShardedIngestEngine.coverage` and ``effective_eps`` then follow
:func:`repro.distributed.protocols.merge_summaries` (``coverage * eps +
(1 - coverage)``).

Determinism: for a fixed ``(algorithm, data, ShardPlan)`` the merged
summary is identical run to run, durable or not.  Worker kills and
stalls come only from the seeded :class:`~repro.distributed.faults.FaultPlan`,
consumed inside the worker, so a crash is a real SIGKILL of a real
process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, replace
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.core.base import QuantileSketch
from repro.core.errors import (
    CorruptSummaryError,
    DurabilityError,
    InvalidParameterError,
    ParallelIngestError,
    UnmergeableSketchError,
)
from repro.core.registry import merge_shares_seed, supports_merge
from repro.core.snapshot import restore, snapshot
from repro.distributed.faults import FaultInjector, FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.events import record_event
from repro.parallel import shm
from repro.parallel.plan import ShardPlan

if TYPE_CHECKING:
    from repro.durability.ingest import DurabilityConfig, DurableIngest

_Engine = TypeVar("_Engine", bound="ShardedIngestEngine")


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-handling knobs for :class:`ShardedIngestEngine`.

    Args:
        max_restarts: restarts each durable shard may consume before it
            is abandoned (and salvaged from its durable store).
        restart_backoff_s: delay before the first restart of a shard.
        backoff_factor: multiplier per further restart (exponential).
        hung_timeout_s: a worker with outstanding work that has not
            replied for this long is declared hung and killed.
        poll_interval_s: reply-pipe poll granularity; bounds how fast
            death/hang detection reacts.

    Restarts apply to durable engines only: without a store there is
    no state to restart from, so any failure raises.
    """

    max_restarts: int = 2
    restart_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    hung_timeout_s: float = 30.0
    poll_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise InvalidParameterError(
                f"max_restarts must be >= 0, got {self.max_restarts!r}"
            )
        if self.restart_backoff_s < 0 or self.backoff_factor < 1.0:
            raise InvalidParameterError(
                "restart_backoff_s must be >= 0 and backoff_factor >= 1"
            )
        if self.hung_timeout_s <= 0 or self.poll_interval_s <= 0:
            raise InvalidParameterError(
                "hung_timeout_s and poll_interval_s must be > 0"
            )


def _start_method() -> str:
    """Prefer fork (fast, Linux default); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _shard_dir(directory: Union[str, Path], worker_id: int) -> Path:
    """Where shard ``worker_id`` of a durable engine keeps its store."""
    return Path(directory) / f"shard-{worker_id:03d}"


def _open_store(
    durable: "DurabilityConfig",
    spec: Dict[str, Any],
    plan: ShardPlan,
    worker_id: int,
    dtype: np.dtype,
) -> "DurableIngest":
    """Open shard ``worker_id``'s durable store, recovering its state."""
    from repro.durability.ingest import DurableIngest

    return DurableIngest(
        replace(durable, directory=_shard_dir(durable.directory, worker_id)),
        spec["algorithm"],
        spec["eps"],
        universe_log2=spec["universe_log2"],
        seed=plan.sketch_seed(worker_id, spec["shares_seed"]),
        dtype=dtype,
        **spec["kwargs"],
    )


def _shard_worker(
    worker_id: int,
    incarnation: int,
    plan: ShardPlan,
    spec: Dict[str, Any],
    durable: Optional["DurabilityConfig"],
    slot_names: List[str],
    dtype_str: str,
    task_queue: Any,
    reply_conn: Any,
    faults: FaultPlan,
    collect_metrics: bool,
    collect_spans: bool,
) -> None:
    """Worker entry point: one sketch (or durable store) per shard.

    Every random draw flows from the plan: the sketch seed is
    ``plan.sketch_seed(worker_id, shares_seed)`` (REP006).  Replies go
    over this worker's private ``reply_conn`` and carry ``incarnation``
    so the parent can drop messages from a dead predecessor:

    * ``("ready", worker, incarnation, next_seq)`` once built (or the
      store recovered); ``next_seq`` is the durable high-water mark
      (per-shard chunk ordinal), 0 without a store.
    * ``("chunk", slot, count, ordinal)`` in, ``("ack", worker,
      incarnation, [(slot, ordinal), ...])`` out.  Without a store, one
      ack per *drained group*, sent once the group is copied out of
      shared memory; with one, one ack per chunk, sent after its
      durable apply.
    * ``("finish",)`` in, ``("result", worker, incarnation, blob,
      metrics, spans)`` out; ``("stop",)`` ends the loop; any exception
      becomes ``("error", worker, incarnation, traceback)``.

    Chunks are ingested one batch call each, in queue order, so the
    merged result is a pure function of the plan however the drain
    groups land.  Chaos faults fire here: ``kill_worker_at`` is a real
    ``SIGKILL`` of this process, ``stall_worker`` a real sleep.
    """
    # Imported here, not at module top, to keep the worker's fork-time
    # surface identical to the parent's (spawn re-imports this module).
    import queue as queue_module

    from repro.evaluation.harness import apply_batch, build_sketch

    registry = None
    tracer = None
    injector = FaultInjector(faults)
    try:
        if collect_metrics:
            registry = obs_metrics.enable(obs_metrics.MetricsRegistry())
        if collect_spans:
            tracer = obs_trace.enable_tracing(obs_trace.Tracer())
        dtype = np.dtype(dtype_str)
        store = None
        if durable is None:
            sketch = build_sketch(
                spec["algorithm"], spec["eps"], spec["universe_log2"],
                plan.sketch_seed(worker_id, spec["shares_seed"]),
                **spec["kwargs"],
            )
            next_seq = 0
        else:
            store = _open_store(durable, spec, plan, worker_id, dtype)
            sketch, next_seq = store.sketch, store.wal.next_seq
        slots = shm.attach_slots(slot_names, plan.chunk_size, dtype)
        kill_after = injector.kill_after_chunks(worker_id, incarnation)
        stall = injector.stall_seconds(worker_id, incarnation)
        applied = 0
        rec = obs_metrics.recorder()
        reply_conn.send(("ready", worker_id, incarnation, next_seq))
        held: List[Any] = []
        while True:
            message = held.pop() if held else task_queue.get()
            kind = message[0]
            if kind == "chunk":
                # A plain worker drains whatever else already sits in the
                # queue (bounded by the slot-pool depth) and acks it as one
                # group before ingesting, so the parent refills while the
                # sketch works.  A durable worker acks each chunk only once
                # it is durable, so it takes one chunk at a time and the
                # parent refills slot by slot.
                group = [message]
                while store is None and len(group) < len(slots) and not held:
                    try:
                        extra = task_queue.get_nowait()
                    except queue_module.Empty:
                        break
                    if extra[0] == "chunk":
                        group.append(extra)
                    else:
                        held.append(extra)
                if stall > 0.0:
                    time.sleep(stall)
                    stall = 0.0
                chunks = [
                    (ordinal, slots[slot].read(count))
                    for _, slot, count, ordinal in group
                ]
                ack = ("ack", worker_id, incarnation, [
                    (slot, ordinal) for _, slot, _, ordinal in group
                ])
                if store is None:
                    reply_conn.send(ack)
                for ordinal, values in chunks:
                    if kill_after is not None and applied >= kill_after:
                        # The scheduled chaos crash: die before this
                        # chunk is applied, exactly as a real fault would.
                        os.kill(os.getpid(), signal.SIGKILL)
                    applied += 1
                    if store is not None and ordinal < store.wal.next_seq:
                        continue  # durably applied by an earlier incarnation
                    start = time.perf_counter_ns()
                    with obs_trace.span(
                        "parallel.ingest_chunk", algo=sketch.name,
                        n=len(values),
                    ):
                        if store is None:
                            apply_batch(sketch, values)
                        else:
                            store.ingest(values)
                    if rec.enabled:
                        elapsed = time.perf_counter_ns() - start
                        rec.observe(
                            "parallel.ingest_ns", elapsed, algo=sketch.name
                        )
                        rec.summary(
                            "latency.ingest_chunk_ns", algo=sketch.name
                        ).observe(elapsed)
                if store is not None:
                    reply_conn.send(ack)
                if rec.enabled:
                    rec.inc("parallel.acks", 1)
                    rec.inc("parallel.acked_slots", len(group))
            elif kind == "finish":
                blob = snapshot(sketch if store is None else store.finish())
                # Ship the anchored span batch (not the raw event list)
                # so the parent can re-base worker spans on its timeline.
                reply_conn.send((
                    "result", worker_id, incarnation, blob,
                    obs_metrics.export_state(registry)
                    if registry is not None else [],
                    tracer.export_batch() if tracer is not None else None,
                ))
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol bug guard
                raise InvalidParameterError(
                    f"unknown worker message {message!r}"
                )
        if store is not None:
            store.close()
        for slot in slots:
            slot.close()
    except Exception:  # pragma: no cover - exercised via crash tests
        reply_conn.send(
            ("error", worker_id, incarnation, traceback.format_exc())
        )
    finally:
        reply_conn.close()


def _merge_tree(
    sketches: List[QuantileSketch], algorithm: str
) -> QuantileSketch:
    """Fold summaries pairwise, level by level, in shard order."""
    rec = obs_metrics.recorder()
    with obs_trace.span(
        "parallel.merge_tree", algo=algorithm, shards=len(sketches)
    ):
        while len(sketches) > 1:
            merged: List[QuantileSketch] = []
            for i in range(0, len(sketches) - 1, 2):
                start = time.perf_counter_ns()
                sketches[i].merge(sketches[i + 1])
                if rec.enabled:
                    rec.inc("parallel.merges", 1, algo=algorithm)
                    rec.observe(
                        "parallel.merge_ns",
                        time.perf_counter_ns() - start,
                        algo=algorithm,
                    )
                merged.append(sketches[i])
            if len(sketches) % 2:
                merged.append(sketches[-1])
            sketches = merged
    result = sketches[0]
    result.validate()
    return result


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
        durable: a :class:`~repro.durability.ingest.DurabilityConfig`
            (or directory path) for per-shard durable stores; ``None``
            (default) keeps shard state in memory only.
        faults: seeded chaos plan for worker kills and stalls (and, when
            durable, storage damage before a restart); ``None`` means
            lossless.
        supervisor: failure-handling knobs.
        **kwargs: forwarded to the algorithm constructor.

    Every worker gets :data:`repro.parallel.shm.SLOTS_PER_WORKER` slots
    (:attr:`slots_per_worker`).  Pool depth sets only how far refill
    runs ahead of ingest, never the merged result.

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
        durable: Any = None,
        faults: Optional[FaultPlan] = None,
        supervisor: Optional[SupervisorConfig] = None,
        **kwargs: Any,
    ) -> None:
        if not supports_merge(algorithm):
            raise UnmergeableSketchError(
                f"{algorithm} cannot shard: it defines no merge operation "
                "(see repro.core.registry.mergeable_algorithms())"
            )
        self.algorithm = algorithm
        self.eps = eps
        self.plan = plan
        self.durable: Optional["DurabilityConfig"] = None
        if durable is not None:
            from repro.durability.ingest import DurabilityConfig

            self.durable = DurabilityConfig.coerce(durable)
        self.faults = faults if faults is not None else FaultPlan.lossless()
        self.supervisor = supervisor or SupervisorConfig()
        self._spec: Dict[str, Any] = {
            "algorithm": algorithm,
            "eps": eps,
            "universe_log2": universe_log2,
            "kwargs": dict(kwargs),
            "shares_seed": merge_shares_seed(algorithm),
        }
        self._dtype = np.dtype(dtype)
        self._collect_metrics = collect_metrics
        self._collect_spans = False
        self.slots_per_worker = shm.SLOTS_PER_WORKER
        self._ctx = mp.get_context(_start_method())
        shards = plan.shards
        self._procs: List[Optional[Any]] = [None] * shards
        self._task_queues: List[Any] = [None] * shards
        self._reply_conns: List[Optional[Any]] = [None] * shards
        self._slots: List[List[Any]] = []
        self._free: List[List[int]] = [[] for _ in range(shards)]
        #: Durable mode: a copy of every sent, not yet acked chunk.
        self._pending: List["OrderedDict[int, np.ndarray]"] = [
            OrderedDict() for _ in range(shards)
        ]
        self._incarnation = [0] * shards
        self._abandoned = [False] * shards
        #: Whether the shard's current worker may be sent chunks; a
        #: durable worker must first report its recovered high-water mark.
        self._ready = [False] * shards
        self._last_reply = [0.0] * shards
        self._results: Dict[int, bytes] = {}
        self._chunk_counter = 0
        self._elements = 0
        #: Restarts consumed, per shard.
        self.restarts = [0] * shards
        self.resent_chunks = 0
        self.hung_detected = 0
        #: Combined ``size_words()`` of the worker summaries as restored
        #: at :meth:`finish` — the live-summary footprint of the run.
        self.worker_peak_words = 0
        #: Set by :meth:`finish`: the merged share of the dealt stream,
        #: the error bound it implies, and the salvaged shards.
        self.elements_merged = 0
        self.coverage = 1.0
        self.effective_eps = eps
        self.salvaged_shards: Tuple[int, ...] = ()
        self._finishing = False
        self._finished = False
        self._closed = False
        self._started = False

    # -- lifecycle ------------------------------------------------------

    def __enter__(self: _Engine) -> _Engine:
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def _start(self, data: Optional[np.ndarray] = None) -> None:
        """Create the slot pools and spawn the workers (idempotent).

        ``data`` is accepted so that a caller holding the stream can
        start the engine ahead of the first :meth:`ingest`; the pool
        depth does not depend on it.  Never waits for the workers.
        """
        if self._started:
            return
        self._collect_spans = obs_trace.tracer() is not None
        self._slots = shm.create_slot_pool(
            self.plan.shards, self.slots_per_worker, self.plan.chunk_size,
            self._dtype,
        )
        self._started = True
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.set("telemetry.engine.up", 1)
            rec.set("parallel.workers", self.plan.shards)
            rec.set("parallel.slots_per_worker", self.slots_per_worker)
        for worker_id in range(self.plan.shards):
            self._spawn(worker_id)

    def _spawn(self, worker_id: int) -> None:
        task_queue = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shard_worker,
            args=(
                worker_id, self._incarnation[worker_id], self.plan,
                self._spec, self.durable,
                [slot.name for slot in self._slots[worker_id]],
                self._dtype.str, task_queue, send_conn, self.faults,
                self._collect_metrics, self._collect_spans,
            ),
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end: once the worker dies,
        # its pipe hits EOF and the death is visible immediately.
        send_conn.close()
        self._procs[worker_id] = process
        self._task_queues[worker_id] = task_queue
        self._reply_conns[worker_id] = recv_conn
        # A plain worker queues chunks while it builds; a durable one
        # waits to be told where its store's high-water mark is.
        accepting = self.durable is None
        self._ready[worker_id] = accepting
        self._free[worker_id] = (
            list(range(self.slots_per_worker)) if accepting else []
        )
        self._last_reply[worker_id] = time.monotonic()
        # Heartbeat gauges the /healthz endpoint reads live.
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.set("telemetry.shard.alive", 1, worker=worker_id)
            if self.durable is not None:
                rec.set(
                    "telemetry.shard.restarts_remaining",
                    self.supervisor.max_restarts - self.restarts[worker_id],
                    worker=worker_id,
                )

    # -- supervision ----------------------------------------------------

    def _pump(self, timeout: float) -> bool:
        """Handle ready worker replies; on silence, run the health check.

        A pipe that reads as EOF is a worker that died mid-write — the
        torn message is treated as lost (a real crash loses it too) and
        the failure handled right away.  Returns whether any reply was
        handled.
        """
        if self._closed:
            raise ParallelIngestError("sharded engine is closed")
        owners = {
            conn: worker_id
            for worker_id, conn in enumerate(self._reply_conns)
            if conn is not None
        }
        handled = False
        for conn in mp_connection.wait(list(owners), timeout):
            worker_id = owners[conn]
            if self._reply_conns[worker_id] is not conn:
                continue  # replaced by a restart earlier in this sweep
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self._on_failure(worker_id, "worker process died")
                continue
            handled = True
            self._dispatch(reply)
        if not handled and timeout > 0:
            self._check_health()
        return handled

    def _dispatch(self, reply: Any) -> None:
        kind, worker_id, incarnation = reply[:3]
        if incarnation != self._incarnation[worker_id]:
            return  # from a dead predecessor
        self._last_reply[worker_id] = time.monotonic()
        if kind == "ready":
            self._on_ready(worker_id, reply[3])
        elif kind == "ack":
            self._on_ack(worker_id, reply[3])
        elif kind == "result":
            self._on_result(worker_id, *reply[3:])
        elif kind == "error":
            self._on_failure(worker_id, f"worker error:\n{reply[3]}")

    def _on_ready(self, worker_id: int, next_seq: int) -> None:
        if self._ready[worker_id]:
            return  # a plain worker has been accepting chunks all along
        self._ready[worker_id] = True
        self._free[worker_id] = list(range(self.slots_per_worker))
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.set(
                "telemetry.shard.high_water_seq", next_seq,
                worker=worker_id,
            )
        pending = self._pending[worker_id]
        self._pending[worker_id] = OrderedDict()
        resend = 0
        for ordinal in sorted(pending):
            if ordinal < next_seq:
                continue  # durably applied before the crash
            self._send_chunk(worker_id, ordinal, pending[ordinal])
            resend += 1
        if resend:
            self.resent_chunks += resend
            if rec.enabled:
                rec.inc("durability.supervisor.resent_chunks", resend)
        if self._finishing:
            # A restarted incarnation was never told to finish.
            self._task_queues[worker_id].put(("finish",))

    def _on_ack(self, worker_id: int, acked: List[Any]) -> None:
        for slot, ordinal in acked:
            self._free[worker_id].append(slot)
            self._pending[worker_id].pop(ordinal, None)
        rec = obs_metrics.recorder()
        if self.durable is not None and rec.enabled:
            # The ack means every ordinal in it is durably applied.
            rec.set(
                "telemetry.shard.high_water_seq", acked[-1][1] + 1,
                worker=worker_id,
            )

    def _on_result(
        self, worker_id: int, blob: bytes, metrics_state: Any, span_batch: Any
    ) -> None:
        self._results[worker_id] = blob
        rec = obs_metrics.recorder()
        if metrics_state and isinstance(rec, obs_metrics.MetricsRegistry):
            obs_metrics.absorb_state(rec, metrics_state, worker=worker_id)
        parent_tracer = obs_trace.tracer()
        if span_batch and parent_tracer is not None:
            parent_tracer.ingest(span_batch, worker=worker_id)

    def _check_health(self) -> None:
        now = time.monotonic()
        for worker_id in range(self.plan.shards):
            process = self._procs[worker_id]
            if self._abandoned[worker_id] or process is None:
                continue
            if not process.is_alive():
                self._on_failure(worker_id, "worker process died")
                continue
            waiting = (
                not self._ready[worker_id]
                or len(self._free[worker_id]) < self.slots_per_worker
                or (self._finishing and worker_id not in self._results)
            )
            silent_s = now - self._last_reply[worker_id]
            if waiting and silent_s > self.supervisor.hung_timeout_s:
                self.hung_detected += 1
                rec = obs_metrics.recorder()
                if rec.enabled:
                    rec.inc("durability.supervisor.hung_detected", 1)
                record_event(
                    "supervisor.hung",
                    worker=worker_id,
                    silent_s=round(silent_s, 3),
                )
                # Remediation of a hung worker the seeded plan stalled —
                # the fault itself was injected in-worker via the plan.
                process.kill()  # replint: disable=REP007
                self._on_failure(worker_id, "worker hung (no heartbeat)")

    def _on_failure(self, worker_id: int, reason: str) -> None:
        process = self._procs[worker_id]
        if process is not None:
            if process.is_alive():
                process.kill()  # replint: disable=REP007
            process.join(timeout=5.0)
        self._procs[worker_id] = None
        conn = self._reply_conns[worker_id]
        if conn is not None:
            conn.close()
            self._reply_conns[worker_id] = None
        self._ready[worker_id] = False
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.set("telemetry.shard.alive", 0, worker=worker_id)
        if self.durable is None:
            raise ParallelIngestError(f"worker {worker_id} failed: {reason}")
        if self.restarts[worker_id] >= self.supervisor.max_restarts:
            # Budget spent: abandon the shard; finish() salvages its store.
            self._abandoned[worker_id] = True
            self._pending[worker_id] = OrderedDict()
            self._free[worker_id] = []
            if rec.enabled:
                rec.inc("durability.supervisor.abandoned", 1)
                rec.set("telemetry.shard.abandoned", 1, worker=worker_id)
                rec.set(
                    "telemetry.shard.restarts_remaining", 0,
                    worker=worker_id,
                )
            record_event(
                "supervisor.abandon",
                worker=worker_id,
                restarts_used=self.restarts[worker_id],
                reason=reason.splitlines()[0] if reason else "",
            )
            return
        delay = (
            self.supervisor.restart_backoff_s
            * self.supervisor.backoff_factor ** self.restarts[worker_id]
        )
        if delay > 0:
            time.sleep(delay)
        # First restart of a shard also applies the plan's storage
        # faults, so recovery is exercised against the damaged store.
        if self.restarts[worker_id] == 0:
            from repro.durability.chaos import apply_storage_faults

            apply_storage_faults(
                _shard_dir(self.durable.directory, worker_id),
                self.faults,
                store_id=worker_id,
            )
        self.restarts[worker_id] += 1
        self._incarnation[worker_id] += 1
        if rec.enabled:
            rec.inc("durability.supervisor.restarts", 1)
        record_event(
            "supervisor.restart",
            worker=worker_id,
            incarnation=self._incarnation[worker_id],
            restarts_used=self.restarts[worker_id],
            reason=reason.splitlines()[0] if reason else "",
        )
        with obs_trace.span(
            "durability.supervisor.restart",
            worker=worker_id,
            incarnation=self._incarnation[worker_id],
        ):
            self._spawn(worker_id)

    # -- ingest ---------------------------------------------------------

    def _send_chunk(
        self, worker_id: int, ordinal: int, values: np.ndarray
    ) -> None:
        # Resolve the queue before popping the slot: raising with the
        # slot already off the free list would leak it (REP011).
        task_queue = self._task_queues[worker_id]
        if task_queue is None:
            raise ParallelIngestError(f"shard {worker_id} has no live worker")
        slot = self._free[worker_id].pop()
        count = self._slots[worker_id][slot].write(values)
        if self.durable is not None:
            self._pending[worker_id][ordinal] = np.array(values, copy=True)
        task_queue.put(("chunk", slot, count, ordinal))

    def _await_slot(self, worker_id: int) -> bool:
        """Block until the shard has a free slot (False: abandoned)."""
        while not self._abandoned[worker_id] and not self._free[worker_id]:
            self._pump(self.supervisor.poll_interval_s)
        return not self._abandoned[worker_id]

    def ingest(self, data: np.ndarray) -> None:
        """Deal a stream (or a piece of one) across the workers.

        May be called repeatedly; the round-robin chunk deal continues
        where the previous call stopped, so ``ingest(a); ingest(b)`` is
        the same deal as ``ingest(concat(a, b))`` when ``len(a)`` is a
        multiple of the chunk size.  Chunks of an abandoned shard are
        dropped (and show up as lost coverage).
        """
        if self._finished or self._finishing:
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
            chunks += 1
            # Restock free lists as soon as acks land, keeping the slot
            # writes overlapped with worker ingest.
            self._pump(0.0)
            if not self._await_slot(worker_id):
                continue
            # Round-robin deal: this is the shard's ordinal-th chunk.
            ordinal = index // self.plan.shards
            self._send_chunk(worker_id, ordinal, data[lo:hi])
        self._chunk_counter += chunks
        self._elements += len(data)
        if rec.enabled:
            rec.inc("parallel.chunks", chunks, algo=self.algorithm)
            rec.inc("parallel.elements", len(data), algo=self.algorithm)

    # -- finish ---------------------------------------------------------

    def _salvage(
        self, worker_id: int, durable: "DurabilityConfig"
    ) -> Optional[QuantileSketch]:
        """Recover an abandoned shard's durable state in the parent."""
        try:
            store = _open_store(
                durable, self._spec, self.plan, worker_id, self._dtype
            )
        except (DurabilityError, CorruptSummaryError):
            return None
        sketch = store.sketch
        store.close()
        return sketch

    def _collect(self) -> Optional[QuantileSketch]:
        """Finish every live shard, salvage abandoned ones, and merge.

        Sets :attr:`coverage`, :attr:`effective_eps`,
        :attr:`elements_merged`, :attr:`salvaged_shards` and
        :attr:`worker_peak_words`.  Returns None only when a durable run
        lost every shard outright.
        """
        if self._finished:
            raise InvalidParameterError("engine already finished")
        self._start()
        self._finishing = True
        for worker_id in range(self.plan.shards):
            if not self._abandoned[worker_id] and self._ready[worker_id]:
                self._task_queues[worker_id].put(("finish",))
        while any(
            not self._abandoned[w] and w not in self._results
            for w in range(self.plan.shards)
        ):
            self._pump(self.supervisor.poll_interval_s)
        self._finished = True
        sketches: List[QuantileSketch] = []
        salvaged: List[int] = []
        for worker_id in range(self.plan.shards):
            if worker_id in self._results:
                sketches.append(restore(self._results[worker_id]))
            elif self._abandoned[worker_id] and self.durable is not None:
                sketch = self._salvage(worker_id, self.durable)
                if sketch is not None:
                    sketches.append(sketch)
                    salvaged.append(worker_id)
        self.worker_peak_words = sum(s.size_words() for s in sketches)
        summary = _merge_tree(sketches, self.algorithm) if sketches else None
        self.elements_merged = summary.n if summary is not None else 0
        total = self._elements
        self.coverage = (self.elements_merged / total) if total else 1.0
        self.effective_eps = self.coverage * self.eps + (1.0 - self.coverage)
        self.salvaged_shards = tuple(salvaged)
        return summary

    def finish(self) -> QuantileSketch:
        """Collect every worker's summary and merge to one.

        Returns the merged summary (error bound ``eps`` over the union
        stream; :attr:`effective_eps` over the dealt stream when a
        durable run abandoned shards).  Worker metrics and spans, when
        collected, are absorbed into the parent's recorder/tracer
        labeled ``worker=<shard>``.
        """
        summary = self._collect()
        if summary is None:
            raise ParallelIngestError("every shard was lost; nothing to merge")
        return summary

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
            if task_queue is None:
                continue
            try:
                task_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover
                pass
        for process in self._procs:
            if process is None:
                continue
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()  # replint: disable=REP007
                process.join(timeout=5.0)
        for conn in self._reply_conns:
            if conn is not None:
                conn.close()
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
        algorithm, eps, plan, universe_log2=universe_log2,
        collect_metrics=collect_metrics, dtype=np.asarray(data).dtype,
        **kwargs,
    ) as engine:
        start = time.perf_counter()
        engine.ingest(data)
        merged = engine.finish()
        elapsed = time.perf_counter() - start
    return merged, elapsed
