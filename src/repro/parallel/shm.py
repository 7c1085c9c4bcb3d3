"""Shared-memory chunk buffers: the zero-pickle ingest hot path.

The sharded ingest engine moves stream chunks from the parent to its
workers through fixed-size :class:`multiprocessing.shared_memory`
segments.  The parent writes a chunk into a free slot with one
``ndarray`` copy; the worker reads it back with one copy and
acknowledges the slot.  The only objects crossing a queue are tiny
``("chunk", slot, count, ordinal)`` tuples — no element data is ever
pickled.

Each worker owns a small pool of slots (:data:`SLOTS_PER_WORKER`) so the
parent can refill some while the worker ingests others.  Slot segments
are created by the parent, attached by name in the worker, and unlinked
by the parent on close; :class:`ChunkSlot` is a thin RAII-ish wrapper
over one segment.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Sequence

import numpy as np

from repro.core.errors import InvalidParameterError

#: Slots per worker, the same in durable and plain mode: deep enough
#: that the parent refills while the worker ingests, small enough that
#: the shared-memory footprint stays ``O(workers * chunk_size)``.  In
#: perfbench's sharded-ingest rounds the median was 299.0 ns/item at
#: depth 2, 272.9 at depth 4 and 268.6 at depth 8.  Durable-ingest at
#: depth 4 measured 905 ns/item against 912 for the former depth-2
#: supervised engine (ten alternating pairs on a 2-vCPU VM).
SLOTS_PER_WORKER = 4


class ChunkSlot:
    """One fixed-capacity shared-memory chunk buffer.

    Args:
        capacity: maximum elements the slot holds.
        dtype: element dtype (fixed for the slot's lifetime).
        name: attach to an existing segment with this name; ``None``
            creates a fresh segment.
    """

    def __init__(
        self, capacity: int, dtype: np.dtype, name: Optional[str] = None
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"capacity must be >= 1, got {capacity!r}"
            )
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        nbytes = self.capacity * self.dtype.itemsize
        if name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False
        self._view = np.ndarray(
            (capacity,), dtype=self.dtype, buffer=self._shm.buf
        )

    @property
    def name(self) -> str:
        """The segment name (pass to a worker to attach)."""
        return self._shm.name

    def write(self, values: np.ndarray) -> int:
        """Copy ``values`` into the slot; returns the element count."""
        count = len(values)
        if count > self.capacity:
            raise InvalidParameterError(
                f"chunk of {count} elements exceeds slot capacity "
                f"{self.capacity}"
            )
        self._view[:count] = values
        return count

    def read(self, count: int) -> np.ndarray:
        """Copy the first ``count`` elements out of the slot.

        The copy detaches the returned array from the shared segment so
        the slot can be acknowledged (and refilled by the parent) before
        the elements are ingested.
        """
        if not (0 <= count <= self.capacity):
            raise InvalidParameterError(
                f"count {count!r} outside slot capacity {self.capacity}"
            )
        return np.array(self._view[:count], copy=True)

    def close(self) -> None:
        """Detach from the segment (both sides)."""
        del self._view
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator side only)."""
        if self._owner:
            self._shm.unlink()


def create_slot_pool(
    workers: int, slots_per_worker: int, capacity: int, dtype: np.dtype
) -> List[List[ChunkSlot]]:
    """Create ``workers`` pools of fresh slots (parent side)."""
    return [
        [ChunkSlot(capacity, dtype) for _ in range(slots_per_worker)]
        for _ in range(workers)
    ]


def attach_slots(
    names: Sequence[str], capacity: int, dtype: np.dtype
) -> List[ChunkSlot]:
    """Attach to existing slots by name (worker side)."""
    return [ChunkSlot(capacity, dtype, name=name) for name in names]
