"""Dogfooded latency quantiles: a ``Summary`` instrument backed by the
repo's own KLL sketch.

The log-bucket :class:`~repro.obs.metrics.Histogram` answers quantile
queries with geometric bucket midpoints — fine for dashboards, but a
power-of-two grid puts "p99" anywhere within a 2x band.  The whole
point of the paper's sketches is doing better in small space, so the
telemetry plane records hot-path durations into the repository's own
:class:`~repro.successors.kll.KLL` summaries and exports *true*
p50/p90/p99/p999 as Prometheus ``summary`` quantiles.

:class:`Summary` is a fourth instrument kind next to Counter/Gauge/
Histogram: addressed by ``(name, labels)`` through
``MetricsRegistry.summary(name, **labels)``, preregistered via
``DEFAULT_INSTRUMENTS`` (kind ``"summary"``), shipped across processes
by ``export_state``/``absorb_state`` (worker summaries are *merged*
into the parent's through ``KLL.merge`` — the same mergeability the
sharded engine relies on), and rendered by
:func:`repro.obs.export.to_prometheus` as ``name{quantile="0.99"}`` /
``name_sum`` / ``name_count`` series.

The sketch is seeded deterministically (the instrument measures, it
never decides), so same-run telemetry is reproducible bit for bit.
``observe`` only appends to a pending list; every :data:`FOLD_EVERY`
observations, and before any read, export or absorb, the list is
folded into the sketch with one ``KLL.extend``.  ``extend`` is
same-seed identical to elementwise ``update``, so buffering changes no
exported byte.
"""

from __future__ import annotations

import operator
import threading
import time
from functools import reduce
from typing import List, Optional, Tuple

from repro.core.base import reject_nan
from repro.core.errors import InvalidParameterError
from repro.core.snapshot import restore, snapshot
from repro.obs.metrics import LabelItems
from repro.successors.kll import KLL

#: Rank-error budget of every latency summary.  eps = 1/256 keeps the
#: sketch a few KB while making "p99" mean p99 +/- 0.4% of rank.
SUMMARY_EPS = 1.0 / 256.0

#: The quantiles every summary exports (the Prometheus convention plus
#: the tail the supervisor actually watches).
EXPORT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)

#: Observations a summary holds pending before folding them into its
#: sketch in one ``extend`` call.
FOLD_EVERY = 1024

#: Compact picklable payload: (KLL snapshot envelope, count, total).
SummaryState = Tuple[bytes, int, float]


class Summary:
    """A latency distribution tracked by a KLL sketch.

    Unlike :class:`~repro.obs.metrics.Histogram`'s fixed power-of-two
    buckets, ``quantile(q)`` here carries KLL's rank guarantee: the
    returned value's true rank is within ``SUMMARY_EPS`` of ``q``.
    """

    kind = "summary"
    __slots__ = ("name", "labels", "sketch", "_total", "_pending", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        # Fixed seed: the summary observes durations, it feeds no
        # algorithmic decision, and a fixed seed keeps exports of a
        # deterministic run reproducible.
        self.sketch = KLL(eps=SUMMARY_EPS, seed=0)
        #: Sum of the observations folded into ``sketch``.
        self._total = 0.0
        #: Observed, not yet folded.  Observers only append (atomic
        #: under the GIL); a fold removes the prefix it consumed, so an
        #: append racing a fold lands in the next one.
        self._pending: List[float] = []
        # Serializes folds and the reads that must see them whole.
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        """Record one observation (a duration in ns, by convention)."""
        pending = self._pending
        pending.append(reject_nan(float(value)))
        if len(pending) >= FOLD_EVERY:
            with self._lock:
                self._fold()

    def _fold(self) -> None:
        """Feed the pending observations to the sketch (``_lock`` held).

        ``total`` is summed in observation order, so it matches the
        running sum of an unbuffered summary bit for bit.
        """
        pending = self._pending
        batch = pending[:]
        if batch:
            self.sketch.extend(batch)
            self._total = reduce(operator.add, batch, self._total)
            del pending[: len(batch)]

    @property
    def count(self) -> int:
        """Observations recorded: the folded ``n`` plus those pending."""
        with self._lock:
            return self.sketch.n + len(self._pending)

    @property
    def total(self) -> float:
        """Sum of every observation recorded."""
        with self._lock:
            return reduce(operator.add, self._pending[:], self._total)

    @property
    def mean(self) -> float:
        with self._lock:
            self._fold()
            n = self.sketch.n
            return self._total / n if n else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile per the KLL sketch (0 when empty)."""
        if not (0.0 <= q <= 1.0):
            raise InvalidParameterError(f"q must be in [0, 1], got {q!r}")
        with self._lock:
            self._fold()
            if self.sketch.n == 0:
                return 0.0
            return float(self.sketch.query(q))

    def quantiles(self, qs) -> List[float]:
        with self._lock:
            self._fold()
            if self.sketch.n == 0:
                return [0.0 for _ in qs]
            return [float(v) for v in self.sketch.query_batch(list(qs))]

    # -- cross-process shipping ----------------------------------------

    def export(self) -> SummaryState:
        """Picklable state for ``export_state`` (snapshot envelope)."""
        with self._lock:
            self._fold()
            return (snapshot(self.sketch), self.sketch.n, self._total)

    def absorb(self, state: SummaryState) -> None:
        """Merge another summary's exported state into this one.

        Worker latency summaries fold into the parent's through
        ``KLL.merge`` — rank guarantees compose, so the merged p99 is
        still a true quantile over the union of observations.  Pending
        observations are folded first, so the result matches a summary
        that never buffered.
        """
        blob, count, total = state
        other = restore(blob)
        if not isinstance(other, KLL):
            raise InvalidParameterError(
                f"summary {self.name!r} received a non-KLL payload "
                f"({type(other).__name__})"
            )
        if other.n != count:
            raise InvalidParameterError(
                f"summary {self.name!r} received a payload counting "
                f"{count} observations over a sketch of {other.n}"
            )
        with self._lock:
            self._fold()
            self.sketch.merge(other)
            self._total += total


class SummaryTimer:
    """Context manager timing a block into a :class:`Summary`."""

    __slots__ = ("_summary", "_start")

    def __init__(self, summary: Summary) -> None:
        self._summary = summary
        self._start = 0

    def __enter__(self) -> "SummaryTimer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._summary.observe(time.perf_counter_ns() - self._start)
        return False


def timed(name: str, **labels):
    """Time a ``with`` block into the active recorder's summary ``name``.

    A no-op (shared null context manager) when collection is disabled,
    following the same contract as :func:`repro.obs.trace.span`.
    """
    from repro.obs import metrics as obs_metrics

    rec = obs_metrics.recorder()
    if not rec.enabled:
        return _NULL_TIMER
    return SummaryTimer(rec.summary(name, **labels))


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_TIMER = _NullTimer()


def rank_of(sorted_values, value) -> Optional[float]:
    """Fractional rank of ``value`` in ``sorted_values`` (test helper).

    Returns ``rank / n`` with ``rank`` the number of elements ``<=
    value`` — what "the dogfooded p99 agrees within eps" is measured
    against.  ``None`` for an empty sequence.
    """
    n = len(sorted_values)
    if n == 0:
        return None
    import bisect

    return bisect.bisect_right(sorted_values, value) / n
