"""Self-healing supervised parallel ingest over durable shard stores.

:class:`SupervisedIngestEngine` is
:class:`repro.parallel.engine.ShardedIngestEngine` with a required
:class:`~repro.durability.ingest.DurabilityConfig`: every worker owns a
:class:`~repro.durability.ingest.DurableIngest` store, a failed worker
is restarted from its store and resent only the chunks it had not yet
durably applied, and a shard that exhausts its restart budget is
abandoned and salvaged.  The engine module documents the protocol;
this module only shapes the outcome as a :class:`SupervisedResult` that
makes any degradation explicit (``coverage`` / ``effective_eps``).

A zero-fault supervised run produces a summary bit-identical to the
plain engine's for deterministic sketches: the chunk deal, per-shard
seeds and merge tree are the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.core.base import QuantileSketch
from repro.core.errors import InvalidParameterError
from repro.parallel.engine import ShardedIngestEngine, SupervisorConfig
from repro.parallel.plan import ShardPlan

__all__ = [
    "SupervisedIngestEngine",
    "SupervisedResult",
    "SupervisorConfig",
    "supervised_feed",
]


@dataclass
class SupervisedResult:
    """Outcome of a supervised run, with degradation made explicit."""

    #: The merged summary; None only when every shard was lost outright.
    summary: Optional[QuantileSketch]
    #: Fraction of the dealt stream the summary represents.
    coverage: float
    #: Error bound vs. the full stream given the coverage
    #: (``coverage * eps + (1 - coverage)``).
    effective_eps: float
    elements_total: int
    elements_merged: int
    #: Restarts consumed, per shard.
    restarts: Tuple[int, ...]
    abandoned_shards: Tuple[int, ...]
    #: Abandoned shards whose durable store was salvaged into the merge.
    salvaged_shards: Tuple[int, ...]
    resent_chunks: int
    hung_detected: int


class SupervisedIngestEngine(ShardedIngestEngine):
    """Sharded ingest that detects, restarts, and survives worker loss.

    Args:
        algorithm / eps / plan: as in
            :class:`~repro.parallel.engine.ShardedIngestEngine`.
        durable: a :class:`DurabilityConfig` (or directory path) for the
            per-shard stores, laid out as ``<dir>/shard-<k>/``; required.
        **kwargs: ``faults``, ``supervisor``, ``universe_log2``,
            ``collect_metrics``, ``dtype`` and algorithm arguments, as in
            :class:`~repro.parallel.engine.ShardedIngestEngine`.

    :meth:`finish` returns a :class:`SupervisedResult` rather than the
    bare summary.
    """

    def __init__(
        self, algorithm: str, eps: float, plan: ShardPlan, durable: Any,
        **kwargs: Any,
    ) -> None:
        if durable is None:
            raise InvalidParameterError(
                "a supervised engine needs a durable store (a "
                "DurabilityConfig or a directory path)"
            )
        super().__init__(algorithm, eps, plan, durable=durable, **kwargs)

    def finish(self) -> SupervisedResult:  # type: ignore[override]
        """Collect, salvage, merge; report coverage honestly.

        Live shards ship their summaries back as snapshot envelopes;
        abandoned shards are salvaged from their durable stores (their
        acked prefix survives).
        """
        summary = self._collect()
        return SupervisedResult(
            summary=summary,
            coverage=self.coverage,
            effective_eps=self.effective_eps,
            elements_total=self._elements,
            elements_merged=self.elements_merged,
            restarts=tuple(self.restarts),
            abandoned_shards=tuple(
                w for w in range(self.plan.shards) if self._abandoned[w]
            ),
            salvaged_shards=self.salvaged_shards,
            resent_chunks=self.resent_chunks,
            hung_detected=self.hung_detected,
        )


def supervised_feed(
    algorithm: str,
    data: np.ndarray,
    eps: float,
    plan: ShardPlan,
    durable: Any,
    **kwargs: Any,
) -> SupervisedResult:
    """One-shot convenience: supervised shard, merge, report.

    ``kwargs`` are as for :class:`SupervisedIngestEngine`.
    """
    with SupervisedIngestEngine(
        algorithm, eps, plan, durable, dtype=np.asarray(data).dtype, **kwargs
    ) as engine:
        engine.ingest(data)
        return engine.finish()
