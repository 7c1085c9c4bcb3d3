"""Perf-smoke gate: the batch fast paths must stay fast and faithful.

Two layers of protection:

* a **live** check that batch ingest beats the scalar loop on a small
  stream (the real speedups are 2.5-8x at n=10^6, so ``batch < scalar``
  at n=50k has a wide safety margin against timer noise), and that the
  batch-built summary matches elementwise feeding per its equivalence
  class;
* a **baseline** check that the committed ``BENCH_speed.json`` artifact
  is present, well-formed, and records the >= 2x speedups the
  acceptance bar requires — regenerating it with a regressed kernel
  fails this gate.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.cash_register import GKArray, QDigest, RandomSketch

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
ARTIFACT = REPO_ROOT / "BENCH_speed.json"

N = 50_000

FACTORIES = [
    ("gk_array", lambda: GKArray(eps=0.005)),
    ("qdigest", lambda: QDigest(eps=0.01, universe_log2=16)),
    ("random", lambda: RandomSketch(eps=0.01, seed=3)),
]


@pytest.fixture(scope="module")
def stream() -> np.ndarray:
    return np.random.default_rng(7).integers(
        0, 1 << 16, size=N, dtype=np.int64
    )


@pytest.mark.parametrize(
    "factory", [f for _, f in FACTORIES], ids=[n for n, _ in FACTORIES]
)
class TestBatchBeatsScalar:
    def test_batch_ingest_is_not_slower(self, factory, stream) -> None:
        # Timed on a possibly loaded (single-core) CI box: pass on the
        # first of three interleaved attempts where batch wins, so one
        # scheduler hiccup cannot fail the gate.  The real margins are
        # 2.5-8x (BENCH_speed.json); a kernel regression loses all
        # three attempts.
        attempts = []
        for _ in range(3):
            batched = factory()
            start = time.perf_counter()
            batched.extend(stream)
            batch_s = time.perf_counter() - start

            looped = factory()
            values = stream.tolist()
            start = time.perf_counter()
            for v in values:
                looped.update(v)
            scalar_s = time.perf_counter() - start

            if batch_s < scalar_s:
                return
            attempts.append((batch_s, scalar_s))
        pytest.fail(
            "batch extend slower than the scalar loop on every attempt "
            f"(batch_s, scalar_s): {attempts}"
        )


class TestBatchStateFaithful:
    def test_gk_array_bit_identical(self, stream) -> None:
        batched, looped = GKArray(eps=0.005), GKArray(eps=0.005)
        batched.extend(stream)
        for v in stream.tolist():
            looped.update(v)
        assert batched.tuples() == looped.tuples()

    def test_random_same_seed_identical(self, stream) -> None:
        batched = RandomSketch(eps=0.01, seed=3)
        looped = RandomSketch(eps=0.01, seed=3)
        batched.extend(stream)
        for v in stream.tolist():
            looped.update(v)
        phis = [i / 20 for i in range(21)]
        assert batched.query_batch(phis) == looped.query_batch(phis)
        assert (
            batched._rng.bit_generator.state
            == looped._rng.bit_generator.state
        )

    def test_qdigest_error_equivalent(self, stream) -> None:
        sk = QDigest(eps=0.01, universe_log2=16)
        sk.extend(stream)
        sk.validate()
        sorted_data = np.sort(stream)
        for phi in (0.01, 0.25, 0.5, 0.75, 0.99):
            answer = sk.query(phi)
            lo = np.searchsorted(sorted_data, answer, "left")
            hi = np.searchsorted(sorted_data, answer, "right")
            target = phi * N
            err = 0.0 if lo <= target <= hi else min(
                abs(target - lo), abs(target - hi)
            )
            assert err <= sk.eps * N + 1


class TestBaselineArtifact:
    def test_artifact_exists_and_is_wellformed(self) -> None:
        assert ARTIFACT.exists(), (
            "BENCH_speed.json missing at the repo root; regenerate with "
            "PYTHONPATH=src python benchmarks/bench_speed.py"
        )
        payload = json.loads(ARTIFACT.read_text())
        assert payload["schema"] == 1
        assert payload["n"] >= 1_000_000
        for name, row in payload["algorithms"].items():
            for key in (
                "scalar_update_ns_per_item",
                "batch_ns_per_item",
                "batch_speedup",
                "query_batch_us_per_quantile",
                "equivalence",
            ):
                assert key in row, f"{name} row missing {key}"

    def test_acceptance_speedups_recorded(self) -> None:
        payload = json.loads(ARTIFACT.read_text())
        for name in ("gk_array", "qdigest", "random"):
            speedup = payload["algorithms"][name]["batch_speedup"]
            assert speedup >= 2.0, (
                f"{name}: recorded batch speedup {speedup:.2f}x is below "
                f"the 2x acceptance baseline"
            )

    def test_dcs_ns_per_item_ceiling(self) -> None:
        # The hash-plane cache plus the dyadic counts-fold hold DCS
        # batch ingest under 1 µs/item (the pre-cache artifact recorded
        # 3.9 µs/item); regenerating with a kernel that rehashes per
        # batch fails this gate.
        payload = json.loads(ARTIFACT.read_text())
        row = payload["algorithms"]["dcs"]
        assert row["batch_ns_per_item"] <= 1000.0, (
            f"dcs: batch ingest at {row['batch_ns_per_item']:.0f} ns/item "
            "exceeds the 1 µs/item ceiling the hash-plane cache "
            "guarantees"
        )
        assert row["equivalence"] == "exact (update_batch)"

    def test_kll_ns_per_item_ceiling(self) -> None:
        # The cached capacity schedule, tracked occupancy and bulk coins
        # hold KLL batch ingest at n = 10^6 under 1 µs/item (the
        # artifact before them recorded 5.8 µs/item); regenerating with
        # a kernel that re-derives the schedule per step fails this gate.
        payload = json.loads(ARTIFACT.read_text())
        row = payload["algorithms"]["kll"]
        assert row["n"] >= 1_000_000
        assert row["batch_ns_per_item"] <= 1000.0, (
            f"kll: batch ingest at {row['batch_ns_per_item']:.0f} ns/item "
            "exceeds the 1 µs/item ceiling"
        )
        assert row["equivalence"] == "same-seed-identical"
