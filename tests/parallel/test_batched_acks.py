"""The batched-ack flow-control contract of the sharded engine.

CI's parallel-smoke job runs this file to prove the batched-ack path is
actually exercised: workers must ack drained *slot groups* (one reply
per group), not one reply per chunk, and the default slot pools must
be deep enough that grouping can happen at all.  The counters are
worker-side (``parallel.acks`` / ``parallel.acked_slots``), absorbed
into the parent registry at ``finish()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.obs import metrics as obs_metrics
from repro.parallel.engine import (
    DEFAULT_SLOTS_PER_WORKER,
    ShardedIngestEngine,
)
from repro.parallel.plan import ShardPlan
from repro.parallel.shm import MAX_SLOTS_PER_WORKER, SLOTS_PER_WORKER


def _parallel_counters(registry):
    out = {}
    for kind, name, labels, payload in obs_metrics.export_state(registry):
        if name in ("parallel.acks", "parallel.acked_slots"):
            out[name] = out.get(name, 0) + payload[0]
        if name == "parallel.chunks":
            out[name] = payload[0]
        if name == "parallel.slots_per_worker":
            out[name] = payload[0]
    return out


def _run(slots_per_worker=None, shards=2, chunk_size=4096, n=400_000):
    rng = np.random.default_rng(5)
    data = rng.integers(0, 1 << 16, size=n)
    plan = ShardPlan(seed=9, shards=shards, chunk_size=chunk_size)
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.collecting(registry):
        with ShardedIngestEngine(
            "gk_array",
            0.01,
            plan,
            collect_metrics=True,
            slots_per_worker=slots_per_worker,
        ) as engine:
            engine.ingest(data)
            merged = engine.finish()
            resolved = engine.slots_per_worker
    return merged, _parallel_counters(registry), resolved


def test_batched_ack_path_is_exercised():
    # Many small chunks through deep pools: the drain loop must group,
    # so the ack count lands strictly below the chunk count.
    merged, counters, _ = _run(slots_per_worker=MAX_SLOTS_PER_WORKER)
    assert counters["parallel.acked_slots"] == counters["parallel.chunks"]
    assert 0 < counters["parallel.acks"] < counters["parallel.chunks"], (
        "one ack per chunk: the batched-ack drain never grouped "
        f"(acks={counters['parallel.acks']}, "
        f"chunks={counters['parallel.chunks']})"
    )
    assert merged.n == 400_000


def test_every_slot_is_acked_exactly_once():
    _, counters, _ = _run(slots_per_worker=3)
    assert counters["parallel.acked_slots"] == counters["parallel.chunks"]
    assert counters["parallel.acks"] <= counters["parallel.acked_slots"]


def test_default_pool_depth_is_fixed():
    # No timing probe: the default depth is the same four slots on any
    # box, deeper than the classic double buffer, and the gauge
    # records it.
    _, counters, resolved = _run(slots_per_worker=None)
    assert DEFAULT_SLOTS_PER_WORKER == 4
    assert resolved == DEFAULT_SLOTS_PER_WORKER > SLOTS_PER_WORKER
    assert counters["parallel.slots_per_worker"] == DEFAULT_SLOTS_PER_WORKER


def test_explicit_slots_per_worker_respected():
    _, counters, resolved = _run(slots_per_worker=2)
    assert resolved == 2
    assert counters["parallel.slots_per_worker"] == 2


def test_slots_per_worker_validated():
    plan = ShardPlan(seed=1, shards=1)
    with pytest.raises(InvalidParameterError):
        ShardedIngestEngine("gk_array", 0.01, plan, slots_per_worker=0)
    with pytest.raises(InvalidParameterError):
        ShardedIngestEngine(
            "gk_array", 0.01, plan,
            slots_per_worker=MAX_SLOTS_PER_WORKER + 1,
        )


def test_batching_preserves_plan_determinism():
    # Same plan, different pool depths: identical merged answers — the
    # drain groups acks, never the ingest calls.
    phis = [0.1, 0.25, 0.5, 0.75, 0.9]
    merged_deep, _, _ = _run(slots_per_worker=MAX_SLOTS_PER_WORKER)
    merged_shallow, _, _ = _run(slots_per_worker=1)
    assert merged_deep.query_batch(phis) == merged_shallow.query_batch(phis)
