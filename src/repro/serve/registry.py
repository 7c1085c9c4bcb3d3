"""Named live sketches with epoch-sealed reads and warm restarts.

The serving tier's unit of state is a :class:`LiveSketch`: one summary
plus an **epoch** counter.  Reads are always answered from the sealed
state — ingested values accumulate in a pending buffer and only touch
the summary during :meth:`ServeRegistry.flush`, which applies the
buffered batches through the same kernel dispatch the offline harness
uses (:func:`repro.evaluation.harness.apply_batch`), bumps the epoch,
and (when a persist directory is configured) seals the new state to
disk as a checksummed snapshot envelope.

The epoch is what makes a sealed sketch's quantile vector cacheable:
between two flushes the summary is immutable, so any answer computed at
epoch ``e`` stays valid for exactly as long as the epoch does.  The
answer cache (:mod:`repro.serve.cache`) keys entries by
``(sketch, epoch, ...)`` and the service drops them on flush.

Warm restart: sealing writes ``<name>.rqss`` (a
:mod:`repro.core.snapshot` envelope) plus ``<name>.json`` (spec, epoch,
count) atomically; :meth:`ServeRegistry.recover` reloads every sealed
sketch, so a restarted daemon answers **identical** quantile vectors
for sealed epochs — the envelope CRC and the restored summary's
``validate()`` self-check guarantee it is the same state, not a
near-miss.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.base import QuantileSketch
from repro.core.errors import (
    CorruptSummaryError,
    InvalidParameterError,
    ReproError,
)
from repro.core.registry import get_algorithm, supports_merge
from repro.core.snapshot import envelope_info, restore, snapshot
from repro.evaluation.harness import apply_batch, build_sketch
from repro.obs import metrics as obs_metrics

#: Sketch names must be URL- and filesystem-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]{0,63}$")

#: Schema version of the sealed ``<name>.json`` metadata files.
META_SCHEMA = 1


class UnknownSketchError(ReproError, KeyError):
    """A query or ingest named a sketch the registry does not hold."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return self.args[0] if self.args else ""


class DuplicateSketchError(ReproError, ValueError):
    """A create named a sketch the registry already holds."""


@dataclass(frozen=True)
class SketchSpec:
    """Declarative recipe for one served sketch.

    The spec is pinned at create time and persisted next to every sealed
    envelope, so a warm restart rebuilds exactly what was running (and a
    replica restoring a snapshot can verify it against its own spec).
    """

    algorithm: str
    eps: float
    universe_log2: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        get_algorithm(self.algorithm)  # raises on unknown names
        if not (0.0 < self.eps < 1.0):
            raise InvalidParameterError(
                f"eps must be in (0, 1), got {self.eps!r}"
            )

    def build(self) -> QuantileSketch:
        """Instantiate the summary this spec describes."""
        return build_sketch(
            self.algorithm,
            self.eps,
            universe_log2=self.universe_log2,
            seed=self.seed,
        )

    @property
    def dtype(self) -> np.dtype:
        """Element dtype served values are coerced to (fixed-universe
        algorithms take integers, comparison-based ones floats)."""
        return np.dtype(np.int64 if self.universe_log2 is not None
                        else np.float64)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "eps": self.eps,
            "universe_log2": self.universe_log2,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SketchSpec":
        try:
            return cls(
                algorithm=str(payload["algorithm"]),
                eps=float(payload["eps"]),
                universe_log2=(
                    None if payload.get("universe_log2") is None
                    else int(payload["universe_log2"])
                ),
                seed=(
                    None if payload.get("seed") is None
                    else int(payload["seed"])
                ),
            )
        except KeyError as exc:
            raise InvalidParameterError(
                f"sketch spec missing required field {exc.args[0]!r}"
            ) from None


class LiveSketch:
    """One served summary: sealed state, an epoch, and a pending buffer."""

    __slots__ = ("name", "spec", "sketch", "epoch", "pending",
                 "pending_elements", "ingested_total")

    def __init__(
        self,
        name: str,
        spec: SketchSpec,
        sketch: Optional[QuantileSketch] = None,
        epoch: int = 0,
    ) -> None:
        if not _NAME_RE.match(name):
            raise InvalidParameterError(
                f"sketch name {name!r} must match {_NAME_RE.pattern}"
            )
        self.name = name
        self.spec = spec
        self.sketch = sketch if sketch is not None else spec.build()
        self.epoch = epoch
        self.pending: List[np.ndarray] = []
        self.pending_elements = 0
        self.ingested_total = 0

    def buffer(self, values: Union[np.ndarray, List[Any]]) -> int:
        """Queue values for the next flush; returns how many were queued.

        Reads keep answering from the sealed state until :meth:`apply`
        runs — buffering never changes an answer.
        """
        batch = np.asarray(values, dtype=self.spec.dtype)
        if batch.ndim != 1:
            batch = batch.reshape(-1)
        if len(batch) == 0:
            return 0
        self.pending.append(batch)
        self.pending_elements += len(batch)
        self.ingested_total += len(batch)
        return len(batch)

    def apply(self) -> bool:
        """Apply every pending batch and advance the epoch.

        Returns True if the epoch advanced (False when nothing was
        pending).  Callers (the service) are responsible for dropping
        cache entries of the superseded epoch.
        """
        if not self.pending:
            return False
        start = time.perf_counter_ns()
        for batch in self.pending:
            apply_batch(self.sketch, batch)
        self.pending = []
        self.pending_elements = 0
        self.epoch += 1
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.inc("serve.flushes", 1)
            rec.set("serve.epoch", self.epoch, sketch=self.name)
            rec.observe(
                "serve.flush_ns", time.perf_counter_ns() - start,
                sketch=self.name,
            )
        return True

    def merge_in(self, other: QuantileSketch) -> None:
        """Fold an externally built summary (e.g. a parallel-engine
        result) into the sealed state and advance the epoch."""
        count = other.n
        self.sketch.merge(other)
        self.epoch += 1
        self.ingested_total += count
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.inc("serve.flushes", 1)
            rec.set("serve.epoch", self.epoch, sketch=self.name)

    def info(self) -> Dict[str, Any]:
        """JSON-ready description of this sketch's live state."""
        return {
            "name": self.name,
            "algorithm": self.spec.algorithm,
            "eps": self.spec.eps,
            "universe_log2": self.spec.universe_log2,
            "seed": self.spec.seed,
            "n": int(self.sketch.n),
            "epoch": self.epoch,
            "pending_elements": self.pending_elements,
            "size_words": int(self.sketch.size_words()),
            "size_bytes": int(self.sketch.size_bytes()),
            "mergeable": bool(getattr(self.sketch, "mergeable", False)),
        }


class ServeRegistry:
    """The daemon's map of named live sketches, with optional sealing.

    Args:
        persist_dir: directory sealed snapshots are written to on every
            flush (and recovered from on startup).  ``None`` serves
            purely in memory.
    """

    def __init__(
        self, persist_dir: Optional[Union[str, Path]] = None
    ) -> None:
        self._sketches: Dict[str, LiveSketch] = {}
        self.persist_dir = Path(persist_dir) if persist_dir else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)

    # -- membership ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._sketches)

    def __contains__(self, name: str) -> bool:
        return name in self._sketches

    def names(self) -> List[str]:
        return sorted(self._sketches)

    def infos(self) -> List[Dict[str, Any]]:
        return [self._sketches[name].info() for name in self.names()]

    def get(self, name: str) -> LiveSketch:
        try:
            return self._sketches[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none)"
            raise UnknownSketchError(
                f"unknown sketch {name!r}; serving: {known}"
            ) from None

    def create(self, name: str, spec: SketchSpec) -> LiveSketch:
        if name in self._sketches:
            raise DuplicateSketchError(
                f"sketch {name!r} already exists (epoch "
                f"{self._sketches[name].epoch})"
            )
        entry = LiveSketch(name, spec)
        self._sketches[name] = entry
        self._update_gauge()
        return entry

    def publish(
        self,
        name: str,
        sketch: QuantileSketch,
        spec: SketchSpec,
        epoch: int = 1,
    ) -> LiveSketch:
        """Adopt an externally built summary under ``name``.

        The handoff point for offline pipelines: a harness run or a
        parallel-engine merge builds a summary, and ``publish`` puts it
        behind the query tier at a given epoch.
        """
        if name in self._sketches:
            raise DuplicateSketchError(f"sketch {name!r} already exists")
        entry = LiveSketch(name, spec, sketch=sketch, epoch=epoch)
        self._sketches[name] = entry
        self._update_gauge()
        if self.persist_dir is not None:
            self.seal(entry)
        return entry

    def drop(self, name: str) -> None:
        self.get(name)  # raises UnknownSketchError
        del self._sketches[name]
        self._update_gauge()
        if self.persist_dir is not None:
            for suffix in (".rqss", ".json"):
                path = self.persist_dir / f"{name}{suffix}"
                if path.exists():
                    path.unlink()

    def _update_gauge(self) -> None:
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.set("serve.sketches", len(self._sketches))

    # -- flushing and sealing ------------------------------------------

    def flush(self, name: str) -> bool:
        """Apply pending ingest for ``name``; seal if persistence is on.

        Returns True if the epoch advanced.
        """
        entry = self.get(name)
        advanced = entry.apply()
        if advanced and self.persist_dir is not None:
            self.seal(entry)
        return advanced

    def seal(self, entry: LiveSketch) -> Path:
        """Write ``entry``'s sealed state to the persist directory.

        Both files go through write-to-temp + fsync + atomic rename, the
        same discipline as the durability checkpoints: a kill at any
        instant leaves either the previous sealed epoch or the new one,
        never a torn file.
        """
        if self.persist_dir is None:
            raise InvalidParameterError(
                "registry has no persist_dir; sealing is disabled"
            )
        envelope = snapshot(entry.sketch)
        meta = {
            "schema": META_SCHEMA,
            "name": entry.name,
            "spec": entry.spec.to_dict(),
            "epoch": entry.epoch,
            "n": int(entry.sketch.n),
            "ingested_total": entry.ingested_total,
            "envelope_crc32": envelope_info(envelope).crc32,
        }
        path = self._write_atomic(f"{entry.name}.rqss", envelope)
        self._write_atomic(
            f"{entry.name}.json",
            json.dumps(meta, sort_keys=True).encode("utf-8"),
        )
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.inc("serve.snapshots", 1)
        return path

    def _write_atomic(self, filename: str, data: bytes) -> Path:
        final = self.persist_dir / filename  # type: ignore[operator]
        tmp = final.with_suffix(final.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        return final

    def recover(self) -> List[str]:
        """Reload every sealed sketch from the persist directory.

        Returns the recovered names (sorted).  Each envelope's CRC is
        verified, matched against the CRC its sidecar meta records (so a
        torn seal pair — a newer envelope beside an older meta — is
        caught), and the restored summary re-validated before it serves
        a single query — a damaged seal raises
        :class:`~repro.core.errors.CorruptSummaryError` instead of
        silently answering from corrupt state.
        """
        if self.persist_dir is None:
            return []
        recovered: List[str] = []
        for meta_path in sorted(self.persist_dir.glob("*.json")):
            meta = json.loads(meta_path.read_text())
            if meta.get("schema") != META_SCHEMA:
                raise InvalidParameterError(
                    f"{meta_path.name}: unsupported sealed-meta schema "
                    f"{meta.get('schema')!r}"
                )
            name = str(meta["name"])
            if name in self._sketches:
                continue
            envelope_path = self.persist_dir / f"{name}.rqss"
            envelope = envelope_path.read_bytes()
            # Each file of a seal is renamed into place on its own, so a
            # kill between the two renames leaves a new envelope beside
            # the old meta; its epoch and count would then be wrong.
            crc = envelope_info(envelope).crc32
            if crc != meta.get("envelope_crc32"):
                raise CorruptSummaryError(
                    f"torn seal: {envelope_path.name} has CRC32 {crc} but "
                    f"{meta_path.name} records "
                    f"{meta.get('envelope_crc32')!r}"
                )
            sketch = restore(envelope)  # CRC + validate()
            spec = SketchSpec.from_dict(meta["spec"])
            entry = LiveSketch(
                name, spec, sketch=sketch, epoch=int(meta["epoch"])
            )
            entry.ingested_total = int(meta.get("ingested_total", sketch.n))
            self._sketches[name] = entry
            recovered.append(name)
            rec = obs_metrics.recorder()
            if rec.enabled:
                rec.inc("serve.restores", 1)
                rec.set("serve.epoch", entry.epoch, sketch=name)
        self._update_gauge()
        return sorted(recovered)

    # -- replica fan-out -----------------------------------------------

    def export_envelope(self, name: str) -> Dict[str, Any]:
        """Snapshot ``name``'s sealed state for read-replica fan-out."""
        entry = self.get(name)
        envelope = snapshot(entry.sketch)
        info = envelope_info(envelope)
        return {
            "name": name,
            "epoch": entry.epoch,
            "n": int(entry.sketch.n),
            "tag": info.tag,
            "crc32": info.crc32,
            "envelope": envelope,
            "spec": entry.spec.to_dict(),
        }

    def restore_envelope(
        self,
        name: str,
        envelope: bytes,
        spec: SketchSpec,
        epoch: int,
    ) -> LiveSketch:
        """Install a summary shipped from a primary (replica catch-up).

        Replaces any existing entry under ``name`` — the shipped epoch
        supersedes local state, exactly like a recovery.  Merge support
        is not required: the replica serves the restored state as-is.
        """
        sketch = restore(envelope)
        entry = LiveSketch(name, spec, sketch=sketch, epoch=epoch)
        entry.ingested_total = int(sketch.n)
        self._sketches[name] = entry
        self._update_gauge()
        rec = obs_metrics.recorder()
        if rec.enabled:
            rec.inc("serve.restores", 1)
            rec.set("serve.epoch", epoch, sketch=name)
        if self.persist_dir is not None:
            self.seal(entry)
        return entry

    # -- capability checks ---------------------------------------------

    @staticmethod
    def mergeable(spec: SketchSpec) -> bool:
        return supports_merge(spec.algorithm)
