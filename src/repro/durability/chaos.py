"""Process-level chaos harness for the durable ingest stack.

Where :mod:`repro.distributed.faults` perturbs *messages*, this module
perturbs *processes and disks* — always through the same seeded
:class:`~repro.distributed.faults.FaultPlan`, so a chaos run is exactly
as reproducible as a clean one:

* :func:`apply_storage_faults` damages an on-disk durable store the way
  a crash can (``truncate_wal`` tears the final segment's tail,
  ``corrupt_checkpoint`` bit-flips the newest checkpoint) *before*
  recovery gets to look at it.
* :func:`chaos_durable_run` drives one :class:`DurableIngest` store
  through a full crash/damage/recover/resume cycle at the plan-chosen
  batch, returning the final summary plus a :class:`ChaosReport` of what
  actually happened.  Because resumption restarts from the store's own
  durable high-water mark (``wal.next_seq``), every batch is applied
  exactly once no matter where the crash or the tear landed — which is
  what makes the result *bit-identical* to an uninterrupted run for
  deterministic sketches.

The kill/stall faults for real worker *processes* are consumed by the
workers of :mod:`repro.parallel.engine`; this module is the
single-process counterpart that lets the recovery invariant be proven
for every algorithm in the registry without paying a process spawn per
case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.base import QuantileSketch
from repro.distributed.faults import FaultInjector, FaultPlan
from repro.durability.ingest import DurabilityConfig, DurableIngest
from repro.durability.wal import _SEG_HEADER
from repro.obs.events import record_event


def _coerce_injector(
    faults: Union[FaultPlan, FaultInjector]
) -> FaultInjector:
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)


@dataclass
class StorageFaultReport:
    """What :func:`apply_storage_faults` did to one store."""

    #: Bytes actually removed from the final WAL segment.
    truncated_bytes: int = 0
    #: Name of the WAL segment that was torn, if any.
    torn_segment: Optional[str] = None
    #: Name of the checkpoint file that was bit-flipped, if any.
    corrupted_checkpoint: Optional[str] = None


def apply_storage_faults(
    store_dir: Union[str, Path],
    faults: Union[FaultPlan, FaultInjector],
    store_id: int = 0,
) -> StorageFaultReport:
    """Damage a durable store per the plan, as a crash could have.

    ``truncate_wal[store_id]`` bytes are chopped off the final WAL
    segment (clamped so the segment header survives — header damage is
    unrecoverable corruption, not a torn tail), and the newest
    checkpoint gets one deterministic bit flip when ``store_id`` is in
    ``corrupt_checkpoint``.  Both are exactly the damage recovery is
    specified to absorb: the tail truncates back to the last intact
    frame, the checkpoint falls back to an older one.
    """
    injector = _coerce_injector(faults)
    store_dir = Path(store_dir)
    report = StorageFaultReport()

    tear = injector.wal_truncate_bytes(store_id)
    if tear > 0:
        segments = sorted((store_dir / "wal").glob("wal-*.seg"))
        if segments:
            target = segments[-1]
            size = target.stat().st_size
            with open(target, "rb+") as fh:
                head = fh.read(_SEG_HEADER.size)
                if len(head) == _SEG_HEADER.size:
                    _magic, _version, dtype_len = _SEG_HEADER.unpack(head)
                    floor = _SEG_HEADER.size + dtype_len
                    new_size = max(floor, size - tear)
                    if new_size < size:
                        fh.truncate(new_size)
                        report.truncated_bytes = size - new_size
                        report.torn_segment = target.name
    if injector.corrupts_checkpoint(store_id):
        checkpoints = sorted((store_dir / "checkpoints").glob("ckpt-*.ck"))
        if checkpoints:
            target = checkpoints[-1]
            blob = target.read_bytes()
            target.write_bytes(
                injector.corrupt_blob(blob, src=store_id, seq=5)
            )
            report.corrupted_checkpoint = target.name
    if report.truncated_bytes or report.corrupted_checkpoint:
        record_event(
            "chaos.storage_fault",
            store_id=store_id,
            truncated_bytes=report.truncated_bytes,
            torn_segment=report.torn_segment,
            corrupted_checkpoint=report.corrupted_checkpoint,
        )
    return report


@dataclass
class ChaosReport:
    """End-to-end record of one :func:`chaos_durable_run`."""

    #: Batch index the process "crashed" at (None: plan had no kill).
    killed_at_batch: Optional[int] = None
    #: Storage damage applied between crash and recovery.
    storage: StorageFaultReport = field(default_factory=StorageFaultReport)
    #: Batch index ingest resumed from (the durable high-water mark).
    resumed_from_batch: Optional[int] = None
    #: The reopened store's recovery report (see ``DurableIngest``).
    recovery: Optional[Any] = None
    #: Total batches the input stream was cut into.
    total_batches: int = 0


def _batches(data: np.ndarray, batch_size: int) -> List[np.ndarray]:
    return [
        data[lo: lo + batch_size]
        for lo in range(0, len(data), batch_size)
    ]


def chaos_durable_run(
    directory: Union[str, Path],
    algorithm: str,
    eps: float,
    data: np.ndarray,
    faults: FaultPlan,
    batch_size: int = 4096,
    universe_log2: Optional[int] = None,
    seed: Optional[int] = 0,
    config: Optional[DurabilityConfig] = None,
    store_id: int = 0,
    **kwargs: Any,
) -> tuple:
    """One durable ingest run with a plan-scheduled crash in the middle.

    The stream is cut into ``batch_size`` batches and fed to a
    :class:`DurableIngest` store.  If the plan schedules
    ``kill_worker_at[store_id] = k``, the store is crashed (handles
    dropped, no checkpoint, no fsync) after batch ``k`` was durably
    applied; storage faults are then applied, the store reopened —
    running real recovery — and ingest *resumes from the store's own
    durable high-water mark*, so a batch lost to a torn tail is resent
    and a batch that survived is never applied twice.

    Returns ``(summary, report)``.  For a deterministic algorithm the
    summary is bit-identical to an uninterrupted run over ``data``.
    """
    injector = _coerce_injector(faults)
    if config is None:
        config = DurabilityConfig(directory=directory)
    elif Path(config.directory) != Path(directory):
        config = replace(config, directory=directory)
    spec: Dict[str, Any] = dict(
        universe_log2=universe_log2, seed=seed, **kwargs
    )
    batches = _batches(np.asarray(data), batch_size)
    report = ChaosReport(total_batches=len(batches))

    kill_at = injector.kill_after_chunks(store_id, incarnation=0)
    store = DurableIngest(config, algorithm, eps, **spec)
    if kill_at is None or kill_at >= len(batches):
        for batch in batches:
            store.ingest(batch)
        return store.finish(), report

    for batch in batches[:kill_at]:
        store.ingest(batch)
    store.crash()
    report.killed_at_batch = kill_at
    report.storage = apply_storage_faults(
        config.directory, injector, store_id=store_id
    )

    store = DurableIngest(config, algorithm, eps, **spec)
    report.recovery = store.recovery
    resume = store.wal.next_seq
    report.resumed_from_batch = resume
    for batch in batches[resume:]:
        store.ingest(batch)
    return store.finish(), report


def durable_run(
    directory: Union[str, Path],
    algorithm: str,
    eps: float,
    data: np.ndarray,
    batch_size: int = 4096,
    universe_log2: Optional[int] = None,
    seed: Optional[int] = 0,
    config: Optional[DurabilityConfig] = None,
    **kwargs: Any,
) -> QuantileSketch:
    """Uninterrupted durable baseline: same batching, no faults."""
    plan = FaultPlan.lossless()
    summary, _report = chaos_durable_run(
        directory,
        algorithm,
        eps,
        data,
        plan,
        batch_size=batch_size,
        universe_log2=universe_log2,
        seed=seed,
        config=config,
        **kwargs,
    )
    return summary
