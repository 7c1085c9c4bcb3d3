"""The batched-ack flow-control contract of the sharded engine.

Proves the batched-ack path is actually exercised: workers must ack
drained *slot groups* (one reply per group), not one reply per chunk,
and the slot pools must be deep enough that grouping can happen at
all.  Pool depth is the module constant
:data:`repro.parallel.shm.SLOTS_PER_WORKER`; tests that need another
depth patch it.  The counters are
worker-side (``parallel.acks`` / ``parallel.acked_slots``), absorbed
into the parent registry at ``finish()``.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.parallel import shm
from repro.parallel.engine import ShardedIngestEngine
from repro.parallel.plan import ShardPlan


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


def _run(monkeypatch, depth=None, shards=2, chunk_size=4096,
         n=400_000):
    if depth is not None:
        monkeypatch.setattr(shm, "SLOTS_PER_WORKER", depth)
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
        ) as engine:
            engine.ingest(data)
            merged = engine.finish()
            resolved = engine.slots_per_worker
    return merged, _parallel_counters(registry), resolved


def test_batched_ack_path_is_exercised(monkeypatch):
    # Many small chunks through deep pools: the drain loop must group,
    # so the ack count lands strictly below the chunk count.
    merged, counters, _ = _run(monkeypatch, depth=8)
    assert counters["parallel.acked_slots"] == counters["parallel.chunks"]
    assert 0 < counters["parallel.acks"] < counters["parallel.chunks"], (
        "one ack per chunk: the batched-ack drain never grouped "
        f"(acks={counters['parallel.acks']}, "
        f"chunks={counters['parallel.chunks']})"
    )
    assert merged.n == 400_000


def test_every_slot_is_acked_exactly_once(monkeypatch):
    _, counters, _ = _run(monkeypatch, depth=3)
    assert counters["parallel.acked_slots"] == counters["parallel.chunks"]
    assert counters["parallel.acks"] <= counters["parallel.acked_slots"]


def test_default_pool_depth_is_fixed(monkeypatch):
    # No timing probe and no knob: every engine, durable or not, gets
    # the same four slots on any box, deeper than the classic double
    # buffer, and the gauge records it.
    _, counters, resolved = _run(monkeypatch)
    assert shm.SLOTS_PER_WORKER == 4
    assert resolved == shm.SLOTS_PER_WORKER
    assert counters["parallel.slots_per_worker"] == shm.SLOTS_PER_WORKER


def test_batching_preserves_plan_determinism(monkeypatch):
    # Same plan, different pool depths: identical merged answers — the
    # drain groups acks, never the ingest calls.
    phis = [0.1, 0.25, 0.5, 0.75, 0.9]
    merged_deep, _, _ = _run(monkeypatch, depth=8)
    merged_shallow, _, _ = _run(monkeypatch, depth=1)
    assert merged_deep.query_batch(phis) == merged_shallow.query_batch(phis)
