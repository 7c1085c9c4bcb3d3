"""KLL's update path pinned to the scalar algorithm it replaced.

The fast path (cached capacity schedule, tracked occupancy, bulk coins
with a generator rewind) must do the same compactions with the same
coins as the original scalar loop, which recomputed the schedule at
every element and drew one ``integers(0, 2)`` per compaction.  Two
independent pins hold it there:

* ``GOLDEN`` holds SHA-256 digests taken from the scalar
  implementation's output: of the snapshot envelope, and of a portable
  state tuple ``(n, compactors, generator state)``;
* :class:`ScalarKLL` transcribes the scalar algorithm, and every case
  compares compactors, count and generator state against it.

The envelope embeds numpy's pickling of the ``Generator``, which some
numpy releases lay out differently, so envelope digests are compared
only where a fresh sketch's envelope matches the recorded calibration
digest; the state digests and the transcription always run.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from decimal import Decimal

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.core.snapshot import snapshot
from repro.successors.kll import KLL

#: Envelope digest of ``KLL(eps=0.01, seed=0)`` before any update.
CALIBRATION = (
    "645d7e4a50f7fe33159feb3d439b23b69c9bcf905fd7a1e503637bf49758b62e"
)

#: One stream, any chunking: every ``int_*`` case ends in this sketch.
INT_GOLDEN = (
    "e1e5ba938adce948dfbcdf5f9a1c98baea3af8a3ec08f756fb49533aa7bcd597",
    "ecda0e239d93717acfa4ffd5c96c0bb06076aa6d3ab309df8ad9a3c28b4baa92",
)

#: case -> (envelope digest, state digest), from the scalar algorithm.
GOLDEN = {
    "int_by_4096": INT_GOLDEN,
    "int_one_shot": INT_GOLDEN,
    "int_by_1": INT_GOLDEN,
    "int_by_7": INT_GOLDEN,
    "int_random_sizes": INT_GOLDEN,
    "float_by_1000": (
        "62b887ccccd76a706f26ea20b7fd6746076a9dd308ca1b5d901f1f31aaf91c59",
        "e7bde510ec2e4b54a04e671336a2aa0a2c5b7af6be5e4bdeed60eba20dff1fd9",
    ),
    "object_list": (
        "9078e38bc4d40e45ef6b798ea914ae2c9bdfe42f771d3bb8ef0ada5ebaeb3c2e",
        "247dbe2594a26023d9057427127332d96516d81335e9f062d85fb3af18edd189",
    ),
    "merge": (
        "39954796b55c43b7f40a926f21b2e961999ebfdd0b46035f4435941b6b31ddb3",
        "0f48786fdb2486366d8edf7659c995c1faa429d13539bc41a0a81f8d4199d70f",
    ),
}


class ScalarKLL:
    """The scalar KLL algorithm, transcribed as the test oracle."""

    def __init__(self, eps: float, seed: int) -> None:
        self.k = max(8, math.ceil(2.0 / eps))
        self.c = 2.0 / 3.0
        self.rng = np.random.default_rng(seed)
        self.compactors: list = [[]]
        self.n = 0

    def capacity(self, level: int) -> int:
        depth = len(self.compactors) - 1 - level
        return max(2, math.ceil(self.k * (self.c**depth)))

    def over_budget(self) -> bool:
        held = sum(len(comp) for comp in self.compactors)
        return held > sum(
            self.capacity(level) for level in range(len(self.compactors))
        )

    def compact(self) -> None:
        level = next(
            level for level, comp in enumerate(self.compactors)
            if len(comp) > self.capacity(level)
        )
        if level + 1 == len(self.compactors):
            self.compactors.append([])
        comp = self.compactors[level]
        comp.sort()
        start = int(self.rng.integers(0, 2))
        self.compactors[level + 1].extend(comp[start::2])
        self.compactors[level] = []

    def update(self, value) -> None:
        self.compactors[0].append(value)
        self.n += 1
        if self.over_budget():
            self.compact()

    def merge(self, other: "ScalarKLL") -> None:
        while len(self.compactors) < len(other.compactors):
            self.compactors.append([])
        for level, comp in enumerate(other.compactors):
            self.compactors[level].extend(comp)
        self.n += other.n
        while self.over_budget():
            self.compact()


def envelope_digest(sketch: KLL) -> str:
    return hashlib.sha256(snapshot(sketch)).hexdigest()


def state_digest(sketch: KLL) -> str:
    state = (sketch.n, sketch._compactors, sketch._rng.bit_generator.state)
    return hashlib.sha256(pickle.dumps(state, protocol=4)).hexdigest()


def int_stream() -> np.ndarray:
    return np.random.default_rng(2024).integers(
        0, 1 << 20, size=200_000, dtype=np.int64
    )


def float_stream() -> np.ndarray:
    return np.random.default_rng(7).lognormal(10.0, 2.0, size=50_000)


def object_items() -> list:
    keys = np.random.default_rng(3).integers(0, 100, size=20_000)
    tags = np.random.default_rng(4).integers(0, 1000, size=20_000)
    return [(int(a), str(b)) for a, b in zip(keys, tags)]


def random_sizes(n: int) -> list:
    rng = np.random.default_rng(99)
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(rng.integers(1, 5000)))
    sizes[-1] -= sum(sizes) - n
    return sizes


def feed(sketch: KLL, data, sizes) -> KLL:
    lo = 0
    for size in sizes:
        sketch.extend(data[lo : lo + size])
        lo += size
    assert lo == len(data)
    return sketch


def scalar(eps: float, seed: int, values) -> ScalarKLL:
    oracle = ScalarKLL(eps, seed)
    for value in values:
        oracle.update(value)
    return oracle


def build(case: str) -> KLL:
    """The sketch each golden case digests, built with the fast path."""
    if case.startswith("int"):
        data = int_stream()
        n = len(data)
        sizes = {
            "int_by_4096": [4096] * (n // 4096) + [n % 4096],
            "int_one_shot": [n],
            "int_by_1": [1] * n,
            "int_by_7": [7] * (n // 7) + [n % 7],
            "int_random_sizes": random_sizes(n),
        }[case]
        return feed(KLL(eps=0.01, seed=11), data, sizes)
    if case == "float_by_1000":
        return feed(KLL(eps=0.01, seed=5), float_stream(), [1000] * 50)
    if case == "object_list":
        sketch = KLL(eps=0.05, seed=9)
        sketch.extend(object_items())
        return sketch
    if case == "merge":
        data = int_stream()[:60_000]
        a = feed(KLL(eps=0.01, seed=1), data, [4096] * 14 + [2656])
        b = feed(KLL(eps=0.01, seed=2), data[::-1].copy(), [len(data)])
        a.merge(b)
        return a
    raise KeyError(case)


def build_oracle(case: str) -> ScalarKLL:
    if case.startswith("int"):
        return scalar(0.01, 11, int_stream().tolist())
    if case == "float_by_1000":
        return scalar(0.01, 5, float_stream().tolist())
    if case == "object_list":
        return scalar(0.05, 9, object_items())
    if case == "merge":
        data = int_stream()[:60_000]
        a = scalar(0.01, 1, data.tolist())
        a.merge(scalar(0.01, 2, data[::-1].tolist()))
        return a
    raise KeyError(case)


CASES = [
    "int_by_4096", "int_one_shot", "int_by_1", "int_by_7",
    "int_random_sizes", "float_by_1000", "object_list", "merge",
]


@pytest.fixture(scope="module")
def built():
    return {case: build(case) for case in CASES}


@pytest.fixture(scope="module")
def oracles():
    int_oracle = build_oracle("int_by_4096")
    return {
        case: int_oracle if case.startswith("int") else build_oracle(case)
        for case in CASES
    }


@pytest.mark.parametrize("case", CASES)
def test_same_compactions_coins_and_state_as_scalar(case, built, oracles):
    sketch, oracle = built[case], oracles[case]
    assert sketch.n == oracle.n
    assert sketch._compactors == oracle.compactors
    # The bulk coins were rewound to exactly the draws used.
    assert sketch._rng.bit_generator.state == oracle.rng.bit_generator.state
    assert state_digest(sketch) == GOLDEN[case][1]


@pytest.mark.parametrize("case", CASES)
def test_envelope_matches_golden_digest(case, built):
    if envelope_digest(KLL(eps=0.01, seed=0)) != CALIBRATION:
        pytest.skip("this numpy pickles Generator in another layout")
    assert envelope_digest(built[case]) == GOLDEN[case][0]


def test_elementwise_update_matches_scalar_algorithm():
    values = int_stream()[:50_000].tolist()
    sketch = KLL(eps=0.01, seed=11)
    for value in values:
        sketch.update(value)
    oracle = scalar(0.01, 11, values)
    assert sketch._compactors == oracle.compactors
    assert sketch._rng.bit_generator.state == oracle.rng.bit_generator.state


def test_object_nan_keeps_the_prefix_like_elementwise_feeding():
    items = [Decimal(int(v)) for v in int_stream()[:5_000]]
    items[3_000] = Decimal("NaN")
    sketch = KLL(eps=0.05, seed=9)
    with pytest.raises(InvalidParameterError):
        sketch.extend(items)
    oracle = scalar(0.05, 9, items[:3_000])
    assert sketch.n == oracle.n == 3_000
    assert sketch._compactors == oracle.compactors
    assert sketch._rng.bit_generator.state == oracle.rng.bit_generator.state
