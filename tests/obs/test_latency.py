"""Dogfooded latency summaries: the repo's own KLL sketch measuring the
repo, with the sketch's eps guarantee checked against exact per-op
quantiles."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.core.snapshot import restore, snapshot
from repro.obs import metrics as obs_metrics
from repro.obs.export import to_prometheus
from repro.obs.latency import (
    EXPORT_QUANTILES,
    FOLD_EVERY,
    SUMMARY_EPS,
    Summary,
    rank_of,
    timed,
)
from repro.obs.metrics import MetricsRegistry, absorb_state, export_state
from repro.successors.kll import KLL


@pytest.fixture(autouse=True)
def _isolated_recorder():
    previous = obs_metrics._recorder
    obs_metrics.disable()
    yield
    obs_metrics._recorder = previous


class TestSummary:
    def test_empty_summary(self):
        s = Summary("latency.chunk_update_ns")
        assert s.count == 0
        assert s.mean == 0.0
        assert s.quantile(0.99) == 0.0

    def test_observe_accumulates(self):
        s = Summary("latency.chunk_update_ns")
        for v in (10.0, 20.0, 30.0):
            s.observe(v)
        assert s.count == 3
        assert s.total == 60.0
        assert s.mean == pytest.approx(20.0)

    def test_quantile_validates(self):
        s = Summary("latency.chunk_update_ns")
        with pytest.raises(InvalidParameterError):
            s.quantile(1.5)

    def test_registry_summary_kind(self):
        reg = MetricsRegistry()
        s = reg.summary("latency.chunk_update_ns", algo="KLL")
        assert s is reg.summary("latency.chunk_update_ns", algo="KLL")
        assert s.kind == "summary"
        with pytest.raises(InvalidParameterError):
            reg.counter("latency.chunk_update_ns", algo="KLL")

    def test_p99_within_sketch_eps_of_exact(self):
        """Acceptance: the dogfooded p99 agrees with the exact per-op
        p99 within the KLL rank-error guarantee."""
        rng = np.random.default_rng(42)
        # Heavy-tailed, like real op latencies.
        values = rng.lognormal(mean=10.0, sigma=2.0, size=20_000)
        s = Summary("latency.chunk_update_ns")
        for v in values:
            s.observe(float(v))
        sorted_values = np.sort(values)
        for q in (0.5, 0.9, 0.99, 0.999):
            estimate = s.quantile(q)
            # Rank-error bound: the estimate's exact rank must be
            # within eps (plus sampling slack) of the requested rank.
            observed_rank = rank_of(sorted_values, estimate)
            assert abs(observed_rank - q) <= 2 * SUMMARY_EPS, (
                f"q={q}: estimate rank {observed_rank} vs {q}"
            )

    def test_export_absorb_merges(self):
        a = Summary("latency.wal_append_ns")
        b = Summary("latency.wal_append_ns")
        for v in range(100):
            a.observe(float(v))
        for v in range(100, 200):
            b.observe(float(v))
        state = pickle.loads(pickle.dumps(b.export()))
        a.absorb(state)
        assert a.count == 200
        assert a.total == pytest.approx(sum(range(200)))
        # Median of the union, not of either half.
        assert 80 <= a.quantile(0.5) <= 120

    def test_registry_state_transfer(self):
        worker = MetricsRegistry()
        worker.summary("latency.ingest_chunk_ns", algo="KLL").observe(5.0)
        parent = MetricsRegistry()
        absorb_state(parent, export_state(worker), worker=1)
        merged = parent.get(
            "latency.ingest_chunk_ns", algo="KLL", worker=1
        )
        assert merged is not None
        assert merged.count == 1

    def test_export_state_skips_idle(self):
        reg = MetricsRegistry()
        reg.summary("latency.wal_append_ns")
        assert export_state(reg) == []


class TestSummaryBuffering:
    """``observe`` buffers; every read folds first, so a buffered
    summary is indistinguishable from one feeding KLL value by value."""

    @staticmethod
    def _values(n, seed=42):
        rng = np.random.default_rng(seed)
        return rng.lognormal(mean=10.0, sigma=2.0, size=n).tolist()

    @staticmethod
    def _unbuffered(values):
        sketch = KLL(eps=SUMMARY_EPS, seed=0)
        total = 0.0
        for v in values:
            sketch.update(v)
            total += v
        return sketch, total

    @pytest.mark.parametrize("n", [1, FOLD_EVERY - 1, 3 * FOLD_EVERY + 17])
    def test_matches_value_by_value_kll(self, n):
        values = self._values(n)
        s = Summary("latency.chunk_update_ns")
        for v in values:
            s.observe(v)
        sketch, total = self._unbuffered(values)
        assert s.count == n
        assert s.total == total
        assert s.quantiles(EXPORT_QUANTILES) == [
            float(v) for v in sketch.query_batch(list(EXPORT_QUANTILES))
        ]
        assert s.export() == (snapshot(sketch), n, total)

    def test_export_folds_pending(self):
        s = Summary("latency.wal_append_ns")
        for v in (3.0, 1.0, 2.0):
            s.observe(v)
        blob, count, total = s.export()
        assert (restore(blob).n, count, total) == (3, 3, 6.0)

    def test_absorb_folds_pending_first(self):
        mine, theirs = self._values(700, seed=1), self._values(900, seed=2)
        a, b = Summary("latency.wal_append_ns"), Summary("x")
        for v in mine:
            a.observe(v)
        for v in theirs:
            b.observe(v)
        a.absorb(b.export())
        ref_a, total_a = self._unbuffered(mine)
        ref_b, total_b = self._unbuffered(theirs)
        ref_a.merge(restore(snapshot(ref_b)))
        assert a.export() == (
            snapshot(ref_a), len(mine) + len(theirs), total_a + total_b
        )

    def test_absorb_rejects_count_that_disagrees_with_sketch(self):
        b = Summary("x")
        b.observe(1.0)
        blob, count, total = b.export()
        with pytest.raises(InvalidParameterError):
            Summary("y").absorb((blob, count + 1, total))

    def test_observe_rejects_nan(self):
        s = Summary("x")
        with pytest.raises(InvalidParameterError):
            s.observe(float("nan"))
        assert s.count == 0

    @pytest.mark.parametrize("observers", [1, 3])
    def test_scrape_while_observing_loses_and_doubles_nothing(
        self, observers
    ):
        values = self._values(60 * FOLD_EVERY + 5)
        s = Summary("latency.serve.request_ns")
        done = threading.Event()
        scrapes = []

        def observe_all():
            for v in values:
                s.observe(v)

        def scrape():
            while not done.is_set():
                blob, count, _total = s.export()
                scrapes.append((restore(blob).n, count))
                s.quantile(0.99)

        workers = [threading.Thread(target=observe_all)
                   for _ in range(observers)]
        scraper = threading.Thread(target=scrape)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            scraper.start()
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            done.set()
            scraper.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers + [scraper])
        assert scrapes, "the scraper never ran"
        # Every export is a consistent cut: the folded sketch holds
        # exactly the observations counted, and cuts only grow.
        assert all(n == count for n, count in scrapes)
        counts = [count for _, count in scrapes]
        assert counts == sorted(counts)
        expected = observers * len(values)
        assert s.count == expected
        blob, count, total = s.export()
        assert restore(blob).n == count == expected
        if observers == 1:
            sketch, total_1 = self._unbuffered(values)
            assert (blob, total) == (snapshot(sketch), total_1)
        else:
            assert total == pytest.approx(observers * sum(values))


class TestTimed:
    def test_noop_when_disabled(self):
        with timed("latency.wal_append_ns"):
            pass
        assert obs_metrics.recorder() is obs_metrics.NULL_RECORDER

    def test_records_when_enabled(self):
        reg = obs_metrics.enable(MetricsRegistry())
        with timed("latency.wal_append_ns"):
            pass
        s = reg.get("latency.wal_append_ns")
        assert s is not None and s.count == 1
        assert s.quantile(0.5) > 0  # perf_counter_ns ticked


class TestPrometheusSummary:
    def test_summary_exposition(self):
        reg = MetricsRegistry()
        s = reg.summary("latency.chunk_update_ns")
        for v in range(1, 1001):
            s.observe(float(v))
        text = to_prometheus(reg)
        assert "# TYPE repro_latency_chunk_update_ns summary" in text
        for q in EXPORT_QUANTILES:
            assert f'repro_latency_chunk_update_ns{{quantile="{q}"}}' in text
        assert "repro_latency_chunk_update_ns_count 1000" in text
        assert "repro_latency_chunk_update_ns_sum 500500.0" in text

    def test_preregistered_latency_names(self):
        names = {name for _, name in obs_metrics.DEFAULT_INSTRUMENTS}
        for required in (
            "latency.chunk_update_ns",
            "latency.ingest_chunk_ns",
            "latency.wal_append_ns",
            "latency.telemetry.request_ns",
        ):
            assert required in names
        kinds = dict(
            (name, kind) for kind, name in obs_metrics.DEFAULT_INSTRUMENTS
        )
        assert kinds["latency.chunk_update_ns"] == "summary"
