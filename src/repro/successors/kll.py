"""KLL — the Karnin–Lang–Liberty sketch (FOCS 2016), the direct
successor of this paper's ``Random`` algorithm.

The experimental study's ``Random`` (and the mergeable-summary line it
simplifies) is the ancestor: KLL keeps the same primitive — a sorted
buffer compacted by keeping odd or even positions with a coin — but lets
buffer capacities *shrink geometrically* with height instead of staying
uniform.  Elements at level ``h`` weigh ``2**h``; the top few compactors
hold ``~k`` elements, lower ones ``k * c**depth`` (``c = 2/3`` in the
paper), and the total space is ``O(k)`` versus Random's ``b * s`` —
yielding the first ``O((1/eps) sqrt(log(1/eps)))``-ish space with the
same coin-flip machinery.  Including it here closes the historical loop
the calibration literature draws from this paper to the DataSketches
implementations.

This is a faithful single-sketch KLL (no sampler level): geometric
capacities with a floor of 2, lazy compaction of the lowest over-full
level, weighted rank estimation, and mergeability by compactor-wise
concatenation followed by re-compaction.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.base import (
    MergeableSketch,
    QuantileSketch,
    reject_nan,
    to_element_array,
    validate_eps,
    validate_phi,
)
from repro.core.errors import (
    CorruptSummaryError,
    InvalidParameterError,
    MergeError,
)
from repro.core.registry import register
from repro.core.snapshot import snapshottable
from repro.core.weighted import weighted_query_batch
from repro.sketches.hashing import make_rng


#: Elements converted to Python scalars at a time by :meth:`KLL.extend`
#: (bounds the transient list a huge array would otherwise become).
_BLOCK = 1 << 16


@functools.lru_cache(maxsize=256)
def _schedule(k: int, c: float, levels: int) -> Tuple[Tuple[int, ...], int]:
    """Per-level capacities (level 0 first) and their total for a sketch
    of ``levels`` compactors: ``max(2, ceil(k * c**depth))`` with depth
    counted down from the top level."""
    caps = tuple(
        max(2, math.ceil(k * (c ** (levels - 1 - level))))
        for level in range(levels)
    )
    return caps, sum(caps)


class _Coins:
    """The compaction coins of one :meth:`KLL._ingest` call, drawn in bulk.

    Iterating yields coins drawn ``block`` at a time; :meth:`settle`
    then rewinds the generator and redraws exactly the coins used.  A
    bound-2 draw costs one 32-bit output whether drawn alone or in bulk,
    so the coins and the final generator state are those of one
    ``integers(0, 2)`` per compaction.  A block of one is drawn on
    demand and never needs the rewind.
    """

    __slots__ = ("_rng", "_block", "_saved", "_drawn")

    def __init__(self, rng: np.random.Generator, block: int) -> None:
        self._rng = rng
        self._block = block
        self._saved: Any = None
        self._drawn = 0

    def __iter__(self) -> Iterator[int]:
        rng, block = self._rng, self._block
        if block <= 1:
            while True:
                yield int(rng.integers(0, 2))
        self._saved = rng.bit_generator.state
        while True:
            self._drawn += block
            yield from rng.integers(0, 2, size=block).tolist()

    def settle(self, used: int) -> None:
        """Leave the generator exactly ``used`` coins past its start."""
        if used < self._drawn:
            self._rng.bit_generator.state = self._saved
            if used:
                self._rng.integers(0, 2, size=used)


@snapshottable("kll")
@register("kll")
class KLL(QuantileSketch, MergeableSketch):
    """KLL quantile sketch with geometric compactor capacities.

    Args:
        eps: target rank error; sets ``k = ceil(2 / eps)`` (the constant
            comes from the empirical error ``~ 2 / k`` of the c=2/3
            configuration, validated in the test suite).
        k: override the top-compactor capacity directly.
        c: capacity decay per level below the top (paper value 2/3).
        seed: compaction-coin randomness.
    """

    name = "KLL"
    deterministic = False
    comparison_based = True
    mergeable = True

    def __init__(
        self,
        eps: float = 0.01,
        k: Optional[int] = None,
        c: float = 2.0 / 3.0,
        seed: Optional[int] = None,
    ) -> None:
        self.eps = validate_eps(eps)
        if not (0.5 <= c < 1.0):
            raise InvalidParameterError(f"c must be in [0.5, 1), got {c!r}")
        self.k = k if k is not None else max(8, math.ceil(2.0 / self.eps))
        self.c = c
        self._rng = make_rng(seed)
        self._compactors: List[List] = [[]]
        self._n = 0

    # ------------------------------------------------------------------
    # update path
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    def _capacity(self, level: int) -> int:
        """Capacity of the compactor at ``level`` (0 = raw elements)."""
        return _schedule(self.k, self.c, len(self._compactors))[0][level]

    def update(self, value) -> None:
        reject_nan(value)
        self._ingest(([value],), 1)

    def extend(self, values) -> None:
        """Bulk insert: fill the bottom compactor in chunks.

        Elements land in chunks sized to the remaining total-capacity
        headroom, so compactions fire at exactly the same element
        boundaries (and consume the same coin draws) as elementwise
        feeding — same-seed runs produce bit-identical sketches, down to
        the generator state.
        """
        arr = to_element_array(values)
        if arr.dtype == object:
            items = arr.tolist()
            bad = next((j for j, v in enumerate(items) if v != v), None)
            if bad is not None:
                # Elementwise feeding ingests everything before the NaN.
                self._ingest((items[:bad],), bad)
                reject_nan(items[bad])
            self._ingest((items,), len(items))
            return
        if arr.dtype.kind == "f" and np.isnan(arr).any():
            raise InvalidParameterError(
                "NaN cannot be ranked; filter NaNs before summarizing"
            )
        blocks = (
            arr[lo : lo + _BLOCK].tolist() for lo in range(0, len(arr), _BLOCK)
        )
        self._ingest(blocks, min(len(arr), _BLOCK))

    def _ingest(self, blocks: Iterable[list], hint: int) -> None:
        """Append each block to level 0, compacting whenever the held
        count exceeds the total capacity — the one loop behind
        :meth:`update`, :meth:`extend` and :meth:`merge`.

        Each step takes exactly the headroom left before the budget
        overflows, so compactions fire where elementwise feeding would
        fire them.  The capacity schedule is rebuilt only when a level
        is added and the held count is tracked, not re-summed.  Coins
        come from :class:`_Coins` in blocks of ``hint // 8``, ``hint``
        being the elements the call brings; an empty block just
        restores the budget.
        """
        compactors = self._compactors
        levels = len(compactors)
        caps, total = _schedule(self.k, self.c, levels)
        held = sum(map(len, compactors))
        coins = _Coins(self._rng, hint >> 3)
        flips = iter(coins)
        used = 0
        try:
            for items in blocks:
                i, m = 0, len(items)
                while True:
                    while held > total:
                        # Compact the lowest level exceeding its capacity.
                        level = 0
                        while len(compactors[level]) <= caps[level]:
                            level += 1
                        if level + 1 == levels:
                            compactors.append([])
                            levels += 1
                            caps, total = _schedule(self.k, self.c, levels)
                        comp = compactors[level]
                        comp.sort()
                        promoted = comp[next(flips) :: 2]
                        used += 1
                        compactors[level + 1].extend(promoted)
                        compactors[level] = []
                        held -= len(comp) - len(promoted)
                    if i == m:
                        break
                    take = total - held + 1  # compact at cap + 1
                    if take > m - i:
                        take = m - i
                    compactors[0].extend(items[i : i + take])
                    held += take
                    self._n += take
                    i += take
        finally:
            coins.settle(used)

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------

    def _parts(self):
        out = []
        for level, comp in enumerate(self._compactors):
            if comp:
                out.append((np.sort(to_element_array(comp)), 1 << level))
        return out

    def rank(self, value) -> float:
        total = 0.0
        for items, weight in self._parts():
            total += weight * float(np.searchsorted(items, value, "left"))
        return total

    def query(self, phi: float):
        """Scalar reference path: the full argmin over the snapshot."""
        validate_phi(phi)
        self._require_nonempty()
        parts = self._parts()
        values = np.concatenate([items for items, _ in parts])
        weights = np.concatenate(
            [np.full(len(items), w, dtype=np.float64) for items, w in parts]
        )
        order = np.argsort(values, kind="mergesort")
        values = values[order]
        cum = np.concatenate([[0.0], np.cumsum(weights[order])[:-1]])
        return values[int(np.argmin(np.abs(cum - phi * self._n)))]

    def query_batch(self, phis) -> list:
        """Vectorized multi-quantile extraction over the weighted
        compactor snapshot (bit-identical to looping :meth:`query`)."""
        self._require_nonempty()
        return weighted_query_batch(self._parts(), self._n, phis)

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------

    def merge(self, other: "KLL") -> None:
        """Fold another KLL (same k and c) into this one."""
        if not isinstance(other, KLL):
            raise MergeError(f"cannot merge KLL with {type(other)!r}")
        if (self.k, self.c) != (other.k, other.c):
            raise MergeError("cannot merge KLL sketches with different "
                             "parameters")
        while len(self._compactors) < len(other._compactors):
            self._compactors.append([])
        for level, comp in enumerate(other._compactors):
            self._compactors[level].extend(comp)
        self._n += other._n
        other._compactors = [[]]
        other._n = 0
        self._ingest(([],), 0)

    def compactor_sizes(self) -> List[int]:
        """Current per-level buffer sizes (introspection)."""
        return [len(comp) for comp in self._compactors]

    def validate(self) -> "KLL":
        """Check the sketch's structural invariants; return ``self``.

        Verified: the element count is a non-negative integer, at least
        one compactor exists, an empty sketch holds no elements, and a
        non-empty sketch holds at least one.  The weighted element total
        is *not* compared against ``n``: compacting an odd-sized buffer
        promotes ``ceil(m/2)`` elements at double weight, so the
        represented weight legitimately drifts around ``n`` by design.
        Called by :func:`repro.core.snapshot.restore`.

        Raises:
            CorruptSummaryError: if any invariant is violated.
        """
        if not isinstance(self._n, int) or self._n < 0:
            raise CorruptSummaryError(f"KLL: bad element count {self._n!r}")
        if not self._compactors:
            raise CorruptSummaryError("KLL: no compactors")
        held = sum(len(comp) for comp in self._compactors)
        if self._n == 0 and held != 0:
            raise CorruptSummaryError("KLL: empty sketch holds elements")
        if self._n > 0 and held == 0:
            raise CorruptSummaryError(
                f"KLL: n={self._n} but every compactor is empty"
            )
        return self

    def size_words(self) -> int:
        """Allocated capacity across compactors (elements, one word)."""
        return _schedule(self.k, self.c, len(self._compactors))[1]
