"""The query-tier coordinator: registry + cache + coalesced reads.

:class:`QuantileService` is the daemon's brain, HTTP-free so tests and
in-process embedding drive it directly.  All methods run on one asyncio
event loop.  The read path::

    entry = registry.get(name)           # current epoch e
    key = (name, e, kind, params)
    value, status = await cache.get_or_compute(key, compute)

``compute`` itself contains **no await points** around the sketch
query, so on the real daemon a flush can never interleave with a
computation.  The cache still defends in depth: if a computation *is*
suspended across a flush (tests do this deliberately), the flush marks
it stale and every reader retries against the new epoch — see
:mod:`repro.serve.cache`.

Writes: ``ingest`` buffers values (reads keep answering from the sealed
epoch), auto-flushing past ``flush_threshold`` pending elements;
``flush`` applies the buffer through the offline batch kernels, bumps
the epoch, seals to disk when persistence is on, and invalidates the
cache — in that order, atomically with respect to the loop.  Bulk
ingest can be routed through the multi-core sharded engine
(``workers=K``) for mergeable algorithms: the engine builds a summary
of the batch in parallel and the service merges it into the sealed
state as one epoch step.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import validate_phi
from repro.core.errors import (
    EmptySummaryError,
    InvalidParameterError,
    UnmergeableSketchError,
)
from repro.core.registry import merge_shares_seed, supports_merge
from repro.obs import metrics as obs_metrics
from repro.serve.cache import STALE, AnswerCache, CacheKey
from repro.serve.registry import LiveSketch, ServeRegistry, SketchSpec

#: Epoch-advance retries before a read falls back to an uncached
#: computation (each retry means a flush landed mid-read).
_MAX_EPOCH_RETRIES = 4

#: Auto-flush once this many elements are pending (0 disables).
DEFAULT_FLUSH_THRESHOLD = 65536


class QuantileService:
    """Registry + answer cache behind an async query surface."""

    def __init__(
        self,
        registry: Optional[ServeRegistry] = None,
        cache: Optional[AnswerCache] = None,
        persist_dir: Optional[str] = None,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
    ) -> None:
        if registry is not None and persist_dir is not None:
            raise InvalidParameterError(
                "pass persist_dir to the registry or to the service, "
                "not both"
            )
        if flush_threshold < 0:
            raise InvalidParameterError(
                f"flush_threshold must be >= 0, got {flush_threshold!r}"
            )
        self.registry = (
            registry if registry is not None
            else ServeRegistry(persist_dir=persist_dir)
        )
        self.cache = cache if cache is not None else AnswerCache()
        self.flush_threshold = flush_threshold
        self._started_ns = time.perf_counter_ns()

    # -- admin ---------------------------------------------------------

    def recover(self) -> List[str]:
        """Warm-restart: reload every sealed sketch (see registry)."""
        return self.registry.recover()

    async def create(self, name: str, spec: SketchSpec) -> Dict[str, Any]:
        entry = self.registry.create(name, spec)
        return entry.info()

    async def drop(self, name: str) -> None:
        self.registry.drop(name)
        self.cache.invalidate(name)

    def infos(self) -> List[Dict[str, Any]]:
        return self.registry.infos()

    def info(self, name: str) -> Dict[str, Any]:
        return self.registry.get(name).info()

    # -- writes --------------------------------------------------------

    async def ingest(
        self,
        name: str,
        values: Union[np.ndarray, List[Any]],
        flush: bool = False,
        workers: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Buffer ``values`` for ``name``; optionally flush immediately.

        ``workers=K`` routes the batch through the sharded parallel
        engine instead of the buffer: K processes sketch the batch and
        the merged result folds into the sealed state as one epoch
        step.  Worth it for bulk loads; see docs/serving.md.
        """
        entry = self.registry.get(name)
        if workers is not None:
            accepted = await self._ingest_parallel(entry, values, workers)
            self.cache.invalidate(name)
            return {
                "name": name,
                "accepted": accepted,
                "pending_elements": entry.pending_elements,
                "epoch": entry.epoch,
                "flushed": True,
            }
        accepted = entry.buffer(values)
        rec = obs_metrics.recorder()
        if rec.enabled and accepted:
            rec.inc("serve.ingested", accepted)
        flushed = False
        if flush or (
            self.flush_threshold
            and entry.pending_elements >= self.flush_threshold
        ):
            flushed = await self.flush(name)
        return {
            "name": name,
            "accepted": accepted,
            "pending_elements": entry.pending_elements,
            "epoch": entry.epoch,
            "flushed": flushed,
        }

    async def _ingest_parallel(
        self, entry: LiveSketch, values: Union[np.ndarray, List[Any]],
        workers: int,
    ) -> int:
        from repro.parallel.engine import parallel_feed
        from repro.parallel.plan import ShardPlan

        spec = entry.spec
        if not supports_merge(spec.algorithm):
            raise UnmergeableSketchError(
                f"{spec.algorithm} cannot take the parallel ingest "
                "route (no merge support); ingest serially"
            )
        if merge_shares_seed(spec.algorithm):
            raise InvalidParameterError(
                f"{spec.algorithm} shards must share the live sketch's "
                "hash seed; the parallel ingest route would build an "
                "incompatible summary — ingest serially"
            )
        if workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {workers!r}"
            )
        batch = np.asarray(values, dtype=spec.dtype).reshape(-1)
        if len(batch) == 0:
            return 0
        plan = ShardPlan(
            seed=spec.seed if spec.seed is not None else 0,
            shards=workers,
        )
        # The engine forks workers and blocks on their reply pipes; run
        # it in the default executor so the loop keeps serving reads
        # (REP008 — this was the one call that stalled every in-flight
        # request for the duration of a bulk load).
        loop = asyncio.get_running_loop()
        shard_summary, _seconds = await loop.run_in_executor(
            None,
            lambda: parallel_feed(
                spec.algorithm, batch, spec.eps, plan,
                universe_log2=spec.universe_log2,
            ),
        )
        # Reads ran while the engine did; if the sketch was dropped (or
        # dropped and re-created) across the await, discard the batch
        # rather than mutate a zombie entry.
        if self.registry.get(entry.name) is not entry:
            raise InvalidParameterError(
                f"sketch {entry.name!r} was replaced during parallel "
                "ingest; the batch was discarded — retry"
            )
        entry.merge_in(shard_summary)
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.inc("serve.ingested", len(batch))
        if self.registry.persist_dir is not None:
            self.registry.seal(entry)
        return len(batch)

    async def flush(self, name: str) -> bool:
        """Apply pending ingest, advance the epoch, drop stale answers.

        Epoch bump and cache invalidation happen with no await point in
        between: no reader can observe the new epoch with the old
        cache, or vice versa.
        """
        advanced = self.registry.flush(name)
        if advanced:
            self.cache.invalidate(name)
        return advanced

    async def flush_all(self) -> List[str]:
        flushed = []
        for name in self.registry.names():
            if await self.flush(name):
                flushed.append(name)
        return flushed

    # -- reads ---------------------------------------------------------

    async def quantiles(
        self, name: str, phis: Sequence[float]
    ) -> Dict[str, Any]:
        """Answer ``phis`` from the sealed epoch (cached + coalesced)."""
        params = tuple(validate_phi(phi) for phi in phis)
        if not params:
            raise InvalidParameterError("phis must be non-empty")
        values, epoch, count, status = await self._read(name, "q", params)
        return {
            "name": name,
            "epoch": epoch,
            "n": count,
            "cache": status,
            "quantiles": [
                {"phi": phi, "value": value}
                for phi, value in zip(params, values)
            ],
        }

    async def ranks(
        self, name: str, targets: Sequence[float]
    ) -> Dict[str, Any]:
        """Fractional ranks of ``targets`` under the sealed epoch."""
        if not targets:
            raise InvalidParameterError("values must be non-empty")
        params = tuple(float(value) for value in targets)
        values, epoch, count, status = await self._read(name, "r", params)
        return {
            "name": name,
            "epoch": epoch,
            "n": count,
            "cache": status,
            "ranks": [
                {"value": target, "rank": rank}
                for target, rank in zip(params, values)
            ],
        }

    async def cdf(self, name: str, points: int) -> Dict[str, Any]:
        """A ``points``-step staircase CDF of the sealed epoch."""
        if points < 1:
            raise InvalidParameterError(
                f"points must be >= 1, got {points!r}"
            )
        values, epoch, count, status = await self._read(
            name, "c", (int(points),)
        )
        return {
            "name": name,
            "epoch": epoch,
            "n": count,
            "cache": status,
            "points": values,
        }

    async def query_batch(
        self, queries: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Fan a batch of quantile queries out through the cache.

        Each query is ``{"sketch": name, "phis": [...]}``; identical
        (sketch, phi-vector) pairs inside one batch coalesce to a
        single computation like concurrent requests do.
        """
        results: List[Dict[str, Any]] = []
        for query in queries:
            if "sketch" not in query:
                raise InvalidParameterError(
                    "each query needs a 'sketch' field"
                )
            results.append(
                await self.quantiles(
                    str(query["sketch"]), query.get("phis", (0.5,))
                )
            )
        return results

    async def _read(
        self, name: str, kind: str, params: Tuple[Any, ...]
    ) -> Tuple[List[Any], int, int, str]:
        """The cached read path; returns (values, epoch, n, status)."""
        rec = obs_metrics.recorder()
        start = time.perf_counter_ns()
        try:
            for _attempt in range(_MAX_EPOCH_RETRIES):
                entry = self.registry.get(name)
                self._check_readable(entry)
                epoch = entry.epoch
                count = int(entry.sketch.n)  # the sealed epoch's n
                key: CacheKey = (name, epoch, kind, params)
                value, status = await self.cache.get_or_compute(
                    key, lambda: self._compute(entry, kind, params)
                )
                if value is not STALE:
                    return list(value), epoch, count, status
            # Flushes keep landing mid-read; answer uncached from the
            # now-current epoch rather than looping forever.
            entry = self.registry.get(name)
            self._check_readable(entry)
            value = await self._compute(entry, kind, params)
            return (
                list(value), entry.epoch, int(entry.sketch.n), "uncached"
            )
        finally:
            if rec.enabled:
                rec.inc("serve.queries", len(params))
                rec.summary("latency.serve.query_ns").observe(
                    time.perf_counter_ns() - start
                )

    @staticmethod
    def _check_readable(entry: LiveSketch) -> None:
        if entry.sketch.n == 0:
            raise EmptySummaryError(
                f"sketch {entry.name!r} is empty at epoch {entry.epoch} "
                "(ingest and flush before querying)"
            )

    async def _compute(
        self, entry: LiveSketch, kind: str, params: Tuple[Any, ...]
    ) -> List[Any]:
        """Compute one answer vector; the patch point for race tests.

        Deliberately free of await points around the sketch query: the
        event loop cannot run a flush while the vector is being built.
        """
        sketch = entry.sketch
        if kind == "q":
            return [_plain(v) for v in sketch.query_batch(list(params))]
        if kind == "r":
            count = max(1, sketch.n)
            return [float(sketch.rank(v)) / count for v in params]
        if kind == "c":
            return [_plain(v) for v in sketch.cdf_points(params[0])]
        raise InvalidParameterError(f"unknown query kind {kind!r}")

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-ready service statistics (the /v1/stats payload)."""
        rec = obs_metrics.recorder()

        def counter(metric: str) -> int:
            # Sum across label sets (serve.requests is per-endpoint).
            if not isinstance(rec, obs_metrics.MetricsRegistry):
                return 0
            return int(sum(
                inst.value for inst in rec.instruments()
                if inst.name == metric and inst.kind == "counter"
            ))

        payload: Dict[str, Any] = {
            "uptime_s": (
                (time.perf_counter_ns() - self._started_ns) / 1e9
            ),
            "sketches": self.infos(),
            "cache": dict(self.cache.stats()),
            "collecting": bool(rec.enabled),
        }
        payload["cache"].update(
            hits=counter("serve.cache.hits"),
            misses=counter("serve.cache.misses"),
            coalesced=counter("serve.cache.coalesced"),
            evictions=counter("serve.cache.evictions"),
            invalidations=counter("serve.cache.invalidations"),
            stale_retries=counter("serve.cache.stale_retries"),
        )
        payload["counters"] = {
            "requests": counter("serve.requests"),
            "queries": counter("serve.queries"),
            "ingested": counter("serve.ingested"),
            "flushes": counter("serve.flushes"),
            "errors": counter("serve.errors"),
        }
        if rec.enabled:
            summary = rec.get("latency.serve.request_ns")
            if summary is not None and summary.count:
                payload["request_latency_ns"] = {
                    "count": summary.count,
                    "p50": summary.quantile(0.5),
                    "p99": summary.quantile(0.99),
                }
        return payload


def _plain(value: Any) -> Any:
    """numpy scalar -> plain Python (JSON encoders choke otherwise)."""
    return value.item() if hasattr(value, "item") else value
