"""The attribution table, computed over ``repro.obs.trace.Tracer`` events.

A traced run records spans from the benchmark's own files into a
standalone :class:`repro.obs.trace.Tracer` (the program's global tracer
stays off).  Each event has a name, a start, a duration, a depth and a
``run_id`` label; a span's parent is the enclosing span one level up.
A span's layer is the first dotted part of its name (``kernel``,
``parallel``, ``durability``, ...); the benchmark's own work (input
generation, ground truth, checks) is the ``bench`` layer.  The root span
of each round is named ``round``: its self time is the part of the
round no layer span covers, reported as the ``unattributed`` row.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Name of the span that wraps one round of a workload.
ROOT = "round"

#: Largest gap between the sum of the layer rows and the end-to-end
#: figure, as a share of the latter, that an attribution table accepts.
ATTRIBUTION_TOLERANCE = 0.10


def layer_rounds(events: Sequence[dict]) -> List[Dict[str, float]]:
    """Per ``round`` span: layer -> summed self time (ms), plus ``total``
    and ``unattributed`` (the round span's own self time).

    Spans must come from one thread, so that depth gives nesting.
    """
    order = sorted(
        range(len(events)),
        key=lambda i: (events[i]["start_ns"], events[i]["depth"]),
    )
    own = [float(e["duration_ns"]) for e in events]
    round_of: List[Optional[int]] = [None] * len(events)
    stack: List[int] = []
    for i in order:
        depth = events[i]["depth"]
        while stack and events[stack[-1]]["depth"] >= depth:
            stack.pop()
        if stack:
            parent = stack[-1]
            own[parent] -= events[i]["duration_ns"]
            round_of[i] = round_of[parent]
        if events[i]["name"] == ROOT:
            round_of[i] = i
        stack.append(i)
    rows: Dict[int, Dict[str, float]] = {}
    for i in order:
        root = round_of[i]
        if root is None:
            continue
        row = rows.setdefault(root, {
            "total": events[root]["duration_ns"] / 1e6,
        })
        layer = (
            "unattributed" if i == root
            else events[i]["name"].split(".", 1)[0]
        )
        row[layer] = row.get(layer, 0.0) + own[i] / 1e6
    return [rows[key] for key in sorted(rows)]


def table(rows: Dict[str, float], total: float, basis: str) -> dict:
    """An attribution table: ``leftover`` is ``total - sum of rows``,
    ``residual`` is ``|leftover| / total`` and the table is ``ok`` when
    the residual is within :data:`ATTRIBUTION_TOLERANCE`."""
    summed = sum(rows.values())
    leftover = total - summed
    residual = abs(leftover) / total if total > 0 else 0.0
    return {
        "unit": "ms",
        "basis": basis,
        "rows": rows,
        "total": total,
        "sum_of_rows": summed,
        "leftover": leftover,
        "residual": residual,
        "tolerance": ATTRIBUTION_TOLERANCE,
        "ok": residual <= ATTRIBUTION_TOLERANCE,
    }


def attribution_table(
    rounds: List[Dict[str, float]],
) -> Optional[Dict[str, object]]:
    """Layer medians over rounds (the unattributed row among them)
    against the median round time."""
    if not rounds:
        return None
    layers = sorted({k for row in rounds for k in row} - {"total"})
    return table(
        {
            layer: statistics.median(row.get(layer, 0.0) for row in rounds)
            for layer in layers
        },
        statistics.median(row["total"] for row in rounds),
        "median over traced rounds",
    )
