"""Parameter sweeps over the measurement harness.

Every figure in the paper is a sweep: eps values along one axis, one
curve per algorithm, measured on a fixed stream.  ``sweep`` runs the
cross-product and returns a flat result list that the reporting helpers
(and the benchmark scripts) turn into the paper's tables and series.

The global scale knob: streams in the paper run to 10^8-10^10 elements on
C++; pure Python is ~100x slower per element, so benchmark scripts size
their streams via :func:`scaled_n`, honoring the ``REPRO_SCALE``
environment variable (default 1.0; set 10 for a long, closer-to-paper
run).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.evaluation.harness import RunResult, run_experiment

#: Default stream length for benchmark scripts before scaling.
BASE_N = 200_000


def scaled_n(base: int = BASE_N) -> int:
    """Benchmark stream length after applying ``REPRO_SCALE``."""
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    return max(1_000, int(base * scale))


def sweep(
    algorithms: Sequence[str],
    data: np.ndarray,
    eps_values: Iterable[float],
    universe_log2: Optional[int] = None,
    repeats: int = 3,
    seed: int = 0,
    per_algorithm_kwargs: Optional[Dict[str, Dict]] = None,
    **common_kwargs: Any,
) -> List[RunResult]:
    """Run every algorithm at every eps on the same stream.

    Args:
        algorithms: registry names; append ``"+post"`` to a DCS-family
            name to evaluate it through the OLS snapshot (e.g.
            ``"dcs+post"``).
        data: the insertion stream.
        eps_values: error parameters to sweep.
        universe_log2: for fixed-universe algorithms.
        repeats: randomized-algorithm repetitions per point.
        seed: base seed.
        per_algorithm_kwargs: optional extra constructor kwargs per name
            (keyed by the name *including* any ``+post`` suffix).
        **common_kwargs: forwarded to every run.

    Returns:
        One :class:`RunResult` per (algorithm, eps), in sweep order.
    """
    per_algorithm_kwargs = per_algorithm_kwargs or {}
    results: List[RunResult] = []
    for name in algorithms:
        post = name.endswith("+post")
        base_name = name[: -len("+post")] if post else name
        extra = dict(per_algorithm_kwargs.get(name, {}))
        for eps in eps_values:
            results.append(
                run_experiment(
                    base_name,
                    data,
                    eps,
                    universe_log2=universe_log2,
                    repeats=repeats,
                    seed=seed,
                    post_process=post,
                    **extra,
                    **common_kwargs,
                )
            )
    return results


def _sweep_config(payload: Dict[str, Any]) -> RunResult:
    """Run one (algorithm, eps) cell; module-level so process pools can
    pickle it."""
    name = payload.pop("name")
    post = name.endswith("+post")
    base_name = name[: -len("+post")] if post else name
    return run_experiment(base_name, post_process=post, **payload)


def parallel_sweep(
    algorithms: Sequence[str],
    data: np.ndarray,
    eps_values: Iterable[float],
    universe_log2: Optional[int] = None,
    repeats: int = 3,
    seed: int = 0,
    per_algorithm_kwargs: Optional[Dict[str, Dict]] = None,
    max_workers: Optional[int] = None,
    **common_kwargs: Any,
) -> List[RunResult]:
    """:func:`sweep`, fanned across a process pool.

    Every (algorithm, eps) cell is an independent :func:`run_experiment`
    call, so the cross-product parallelizes embarrassingly: each cell
    runs in its own process and the result list comes back in exactly
    :func:`sweep`'s order (``pool.map`` preserves it).  Seeds are
    per-cell constants, so a parallel sweep reports the same errors and
    spaces as the serial sweep — only wall-clock timing fields differ.

    Args:
        max_workers: process-pool size (``None`` = one per core).  The
            stream is pickled once per cell; keep cells coarse.

    Other arguments match :func:`sweep`.
    """
    per_algorithm_kwargs = per_algorithm_kwargs or {}
    configs: List[Dict[str, Any]] = []
    for name in algorithms:
        extra = dict(per_algorithm_kwargs.get(name, {}))
        for eps in eps_values:
            configs.append(
                dict(
                    name=name,
                    data=data,
                    eps=eps,
                    universe_log2=universe_log2,
                    repeats=repeats,
                    seed=seed,
                    **extra,
                    **common_kwargs,
                )
            )
    if len(configs) <= 1 or max_workers == 1:
        return [_sweep_config(config) for config in configs]
    import concurrent.futures
    import multiprocessing as mp

    from repro.parallel.engine import _start_method

    with concurrent.futures.ProcessPoolExecutor(
        max_workers=max_workers, mp_context=mp.get_context(_start_method())
    ) as pool:
        return list(pool.map(_sweep_config, configs))


def by_algorithm(results: Sequence[RunResult]) -> Dict[str, List[RunResult]]:
    """Group sweep results into per-algorithm curves (sweep order kept)."""
    curves: Dict[str, List[RunResult]] = {}
    for result in results:
        curves.setdefault(result.algorithm, []).append(result)
    return curves
