"""The sharded ingest engine: transport, merging, observability.

Worker counts stay at 2-3 and streams small: every engine test forks
real processes, and correctness (not throughput) is what is being
checked here — the scaling curve lives in
``benchmarks/bench_parallel.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.errors import (
    InvalidParameterError,
    ParallelIngestError,
    UnmergeableSketchError,
)
from repro.core.snapshot import restore, snapshot
from repro.distributed.faults import FaultPlan
from repro.evaluation.harness import build_sketch
from repro.evaluation.metrics import measure_errors
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parallel import (
    ChunkSlot,
    ShardPlan,
    ShardedIngestEngine,
    parallel_feed,
)
from repro.parallel.shm import attach_slots

EPS = 0.05
PHIS = [i / 10 for i in range(1, 10)]


@pytest.fixture
def stream(rng) -> np.ndarray:
    return rng.integers(0, 1 << 12, size=6_000, dtype=np.int64)


class TestChunkSlot:
    def test_roundtrip(self) -> None:
        slot = ChunkSlot(capacity=16, dtype=np.dtype(np.int64))
        try:
            data = np.arange(10, dtype=np.int64)
            assert slot.write(data) == 10
            out = slot.read(10)
            assert out.tolist() == data.tolist()
        finally:
            slot.close()
            slot.unlink()

    def test_read_is_a_detached_copy(self) -> None:
        slot = ChunkSlot(capacity=8, dtype=np.dtype(np.int64))
        try:
            slot.write(np.full(4, 7, dtype=np.int64))
            first = slot.read(4)
            slot.write(np.full(4, 9, dtype=np.int64))
            assert first.tolist() == [7, 7, 7, 7]
        finally:
            slot.close()
            slot.unlink()

    def test_attach_by_name_sees_writes(self) -> None:
        owner = ChunkSlot(capacity=8, dtype=np.dtype(np.int64))
        try:
            owner.write(np.arange(5, dtype=np.int64))
            (view,) = attach_slots(
                [owner.name], 8, np.dtype(np.int64)
            )
            assert view.read(5).tolist() == [0, 1, 2, 3, 4]
            view.close()
        finally:
            owner.close()
            owner.unlink()

    def test_oversized_write_rejected(self) -> None:
        slot = ChunkSlot(capacity=4, dtype=np.dtype(np.int64))
        try:
            with pytest.raises(InvalidParameterError):
                slot.write(np.arange(5, dtype=np.int64))
        finally:
            slot.close()
            slot.unlink()


class TestEngine:
    @pytest.mark.parametrize(
        "algorithm,universe_log2",
        [("gk_array", None), ("kll", None), ("qdigest", 12), ("dcs", 12)],
    )
    def test_sharded_error_within_eps(
        self, stream, algorithm, universe_log2
    ) -> None:
        plan = ShardPlan(seed=3, shards=2, chunk_size=512)
        merged, _ = parallel_feed(
            algorithm, stream, EPS, plan, universe_log2=universe_log2
        )
        assert merged.n == len(stream)
        report = measure_errors(merged, np.sort(stream), EPS)
        assert report.max_error <= EPS + 1e-9

    def test_deterministic_for_fixed_plan(self, stream) -> None:
        plan = ShardPlan(seed=3, shards=3, chunk_size=512)
        first, _ = parallel_feed("kll", stream, EPS, plan)
        second, _ = parallel_feed("kll", stream, EPS, plan)
        assert first.query_batch(PHIS) == second.query_batch(PHIS)

    def test_split_ingest_matches_single_ingest(self, stream) -> None:
        """Chunk-aligned ingest(a); ingest(b) is the same deal as one
        ingest(a+b) call, so the merged summary is identical."""
        plan = ShardPlan(seed=3, shards=2, chunk_size=1000)
        with ShardedIngestEngine("gk_array", EPS, plan) as engine:
            engine.ingest(stream[:3000])
            engine.ingest(stream[3000:])
            split = engine.finish()
        whole, _ = parallel_feed("gk_array", stream, EPS, plan)
        assert split.query_batch(PHIS) == whole.query_batch(PHIS)

    def test_worker_peak_words_populated(self, stream) -> None:
        plan = ShardPlan(seed=3, shards=2, chunk_size=512)
        with ShardedIngestEngine("gk_array", EPS, plan) as engine:
            engine.ingest(stream)
            engine.finish()
            assert engine.worker_peak_words > 0

    def test_unmergeable_algorithm_rejected_up_front(self) -> None:
        plan = ShardPlan(seed=3, shards=2)
        with pytest.raises(UnmergeableSketchError):
            ShardedIngestEngine("reservoir", EPS, plan)

    def test_ingest_after_finish_rejected(self, stream) -> None:
        plan = ShardPlan(seed=3, shards=2, chunk_size=512)
        with ShardedIngestEngine("gk_array", EPS, plan) as engine:
            engine.ingest(stream)
            engine.finish()
            with pytest.raises(InvalidParameterError):
                engine.ingest(stream)
            with pytest.raises(InvalidParameterError):
                engine.finish()

    @pytest.mark.slow
    def test_killed_worker_fails_promptly_without_durability(
        self, stream
    ) -> None:
        # No durable store means nothing to restart from: worker 1's
        # real SIGKILL must surface as an error naming it, seen through
        # its torn reply pipe rather than after a reply timeout.
        plan = ShardPlan(seed=3, shards=2, chunk_size=512)
        faults = FaultPlan(seed=3, kill_worker_at={1: 1})
        start = time.monotonic()
        with ShardedIngestEngine(
            "gk_array", EPS, plan, faults=faults
        ) as engine:
            with pytest.raises(ParallelIngestError, match="worker 1"):
                engine.ingest(stream)
                engine.finish()
        assert time.monotonic() - start < 10.0

    def test_close_is_idempotent(self, stream) -> None:
        plan = ShardPlan(seed=3, shards=2, chunk_size=512)
        engine = ShardedIngestEngine("gk_array", EPS, plan)
        engine.ingest(stream)
        engine.finish()
        engine.close()
        engine.close()


class TestObservability:
    def test_worker_metrics_absorbed_with_labels(self, stream) -> None:
        registry = obs_metrics.enable(obs_metrics.MetricsRegistry())
        try:
            plan = ShardPlan(seed=3, shards=2, chunk_size=512)
            merged, _ = parallel_feed(
                "gk_array", stream, EPS, plan, collect_metrics=True
            )
            assert merged.n == len(stream)
            snap = registry.snapshot()

            def total(metric: str) -> float:
                return sum(
                    entry["value"] for entry in snap
                    if entry["name"] == metric and "value" in entry
                )

            assert total("parallel.chunks") == 12  # ceil(6000 / 512)
            assert total("parallel.elements") == len(stream)
            assert total("parallel.merges") == 1  # two shards, one fold
            worker_labels = {
                entry["labels"]["worker"] for entry in snap
                if entry["name"] == "parallel.ingest_ns"
                and "worker" in entry["labels"]
            }
            assert worker_labels == {0, 1}
        finally:
            obs_metrics.disable()

    def test_worker_spans_ingested_into_parent_tracer(self, stream) -> None:
        tracer = obs_trace.enable_tracing(obs_trace.Tracer())
        try:
            plan = ShardPlan(seed=3, shards=2, chunk_size=512)
            parallel_feed("gk_array", stream, EPS, plan)
            worker_chunk_spans = [
                event for event in tracer.events
                if event["name"] == "parallel.ingest_chunk"
            ]
            assert len(worker_chunk_spans) == 12
            assert {
                event["labels"]["worker"] for event in worker_chunk_spans
            } == {0, 1}
            assert any(
                event["name"] == "parallel.merge_tree"
                for event in tracer.events
            )
        finally:
            obs_trace.disable_tracing()


class TestLargeSummaryShipping:
    def test_gk_adaptive_snapshot_survives_deep_summaries(self, rng) -> None:
        """Regression: GKAdaptive's linked nodes used to recurse during
        pickling, so worker summaries past ~1000 tuples could not be
        shipped back to the parent.  __getstate__ now flattens them."""
        sketch = build_sketch("gk_adaptive", 0.001, None, seed=1)
        sketch.extend(rng.integers(0, 1 << 16, size=300_000, dtype=np.int64))
        assert sketch.tuple_count() > 400
        clone = restore(snapshot(sketch))
        clone.validate()
        assert clone.query_batch(PHIS) == sketch.query_batch(PHIS)
        clone.extend(range(1000))  # restored summary keeps ingesting
        clone.validate()
