"""Durable ingest: write-ahead log, checkpoint/restore, supervision.

The mergeable-summary model (PAPER.md, Section 1.2) makes sketches
checkpointable for free — a summary *is* its own recovery state.  This
package turns that observation into a crash-safe ingest stack:

* :mod:`repro.durability.wal` — segmented, CRC-framed write-ahead log of
  update batches with torn-tail repair and fsync policy knobs.
* :mod:`repro.durability.checkpoint` — periodic snapshot-envelope
  checkpoints anchored to WAL offsets, with corrupt-file fallback.
* :mod:`repro.durability.ingest` — :class:`DurableIngest`, one sketch
  whose state survives process crashes via checkpoint + WAL-tail replay,
  exactly once, bit-identical for deterministic sketches.
* :mod:`repro.durability.supervisor` — the sharded engine of
  :mod:`repro.parallel.engine` with a required durable store: it
  restarts dead/hung workers from their stores and reports
  ``coverage`` / ``effective_eps`` when it must degrade.
* :mod:`repro.durability.chaos` — seeded process/storage fault harness
  (kills, stalls, torn WALs, corrupt checkpoints) for deterministic
  end-to-end recovery tests.

See ``docs/durability.md`` for the WAL format, the recovery state
machine, and the chaos-fault catalog.
"""

from repro.durability.chaos import (
    ChaosReport,
    StorageFaultReport,
    apply_storage_faults,
    chaos_durable_run,
    durable_run,
)
from repro.durability.checkpoint import Checkpoint, CheckpointManager
from repro.durability.ingest import (
    DurabilityConfig,
    DurableIngest,
    RecoveryReport,
)
from repro.durability.supervisor import (
    SupervisedIngestEngine,
    SupervisedResult,
    supervised_feed,
)
from repro.durability.wal import WriteAheadLog
from repro.parallel.engine import SupervisorConfig

__all__ = [
    "ChaosReport",
    "Checkpoint",
    "CheckpointManager",
    "DurabilityConfig",
    "DurableIngest",
    "RecoveryReport",
    "StorageFaultReport",
    "SupervisedIngestEngine",
    "SupervisedResult",
    "SupervisorConfig",
    "WriteAheadLog",
    "apply_storage_faults",
    "chaos_durable_run",
    "durable_run",
    "supervised_feed",
]
