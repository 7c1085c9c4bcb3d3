"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.common import END_TO_END, PER_LAYER, ROOT, Context
from perfbench.run import WORKLOADS

TINY = dict(seconds=0.2, scale=0.05)


def _run(workload: str, seed: int, tmp_path, **overrides):
    module = importlib.import_module(WORKLOADS[workload])
    settings = {**TINY, **overrides}
    ctx = Context(
        workload=workload,
        seed=seed,
        tracer=None,
        workdir=tmp_path,
        **settings,
    )
    return ctx, module.run(ctx)


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def _session_members(sid: int) -> list:
    """``(pid, command)`` of every live process in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command: state, ppid, pgrp, session.
        if int(fields[3]) == sid and fields[0] != "Z":
            cmdline = (stat.parent / "cmdline").read_bytes()
            members.append((stat.parent.name, cmdline.replace(b"\0", b" ")))
    return members


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    # Its own session, so that anything the run leaves behind (engine
    # workers, the serve daemon, multiprocessing's resource tracker)
    # can be found after it exits.
    proc = subprocess.Popen(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", str(TINY["seconds"]),
            "--scale", str(TINY["scale"]), "--trace", str(trace),
            "--out", str(tmp_path),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    if Path("/proc/self/stat").exists():
        assert _session_members(proc.pid) == []
    assert proc.returncode == 0, err[-3000:] + out[-3000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in expected:
        assert name in out.split("\n{")[0]
    if trace:
        assert "unattributed" in out


def test_corrupted_answer_trips_the_gate(tmp_path, monkeypatch):
    from repro.cash_register.gk_array import GKArray

    honest = GKArray.query_batch

    def corrupted(self, phis):
        return [value + 1000 for value in honest(self, phis)]

    monkeypatch.setattr(GKArray, "query_batch", corrupted)
    ctx, _result = _run("paper-sweep", 5, tmp_path)
    assert ctx.checks.failed > 0
    assert any("gk_array" in m for m in ctx.checks.messages)


def test_cli_exits_nonzero_on_a_wrong_answer(tmp_path, monkeypatch, capsys):
    from perfbench import run as run_module
    from repro.cash_register.random_sketch import RandomSketch

    honest = RandomSketch.query_batch
    monkeypatch.setattr(
        RandomSketch, "query_batch",
        lambda self, phis: [v - 5000 for v in honest(self, phis)],
    )
    code = run_module.main([
        "--workload", "paper-sweep", "--seed", "2", "--seconds", "0.2",
        "--scale", "0.05", "--out", str(tmp_path),
    ])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert result["correct"] is False and result["failed"] > 0


def test_serve_gate_rejects_an_answer_from_the_wrong_epoch(tmp_path):
    from perfbench import serve_mixed
    from perfbench.common import GRID

    ctx = Context(
        workload="serve-mixed", seed=1, seconds=1.0, tracer=None,
        workdir=tmp_path,
    )
    model = serve_mixed.Model()
    rng = np.random.default_rng(0)
    for name, *_ in serve_mixed.SKETCHES:
        model.batches[name][1] = rng.integers(0, 1 << 16, 5000)
        model.batches[name][2] = rng.integers(0, 1 << 16, 5000)
    first = {}
    for name, *_ in serve_mixed.SKETCHES:
        for epoch, offline in model.replay(name):
            answers = [serve_mixed._plain(v) for v in offline.query_batch(GRID)]
            first.setdefault(name, answers)
            model.answers.append((name, epoch, list(GRID), answers))
    serve_mixed._check_answers(ctx, model)
    assert ctx.checks.failed == 0
    # Epoch 1's answer claimed for epoch 2 must fail.
    name = serve_mixed.SKETCHES[0][0]
    model.answers.append((name, 2, list(GRID), first[name]))
    serve_mixed._check_answers(ctx, model)
    assert ctx.checks.failed == 1


@pytest.mark.parametrize(
    "workload", ["paper-sweep", "sharded-ingest", "durable-ingest"]
)
def test_same_seed_gives_identical_deterministic_metrics(workload, tmp_path):
    _, first = _run(workload, 11, tmp_path / "a")
    _, second = _run(workload, 11, tmp_path / "b", seconds=0.5)
    for name in ("space_words", "rank_error_over_eps"):
        assert first.metrics[name] == second.metrics[name], name
    assert first.info["snapshot_digests"] == second.info["snapshot_digests"]
    _, other = _run(workload, 12, tmp_path / "c")
    assert other.info["snapshot_digests"] != first.info["snapshot_digests"]


def test_layer_rounds_charges_self_time_to_each_layer():
    from repro.obs.trace import Tracer

    from perfbench.spans import attribution_table, layer_rounds

    ticks = iter(range(0, 10_000_000, 1_000_000))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("round"):  # 0 .. 5 ms
        with tracer.span("kernel.apply"):  # 1 .. 4 ms
            with tracer.span("snapshot.encode"):  # 2 .. 3 ms
                pass
    with tracer.span("outside"):  # not in a round
        pass
    (row,) = layer_rounds(tracer.events)
    assert row == {
        "total": 5.0, "unattributed": 2.0, "kernel": 2.0, "snapshot": 1.0,
    }
    table = attribution_table([row])
    assert table["sum_of_rows"] == 5.0 and table["residual"] == 0.0


def test_attribution_fails_when_the_rows_miss_a_cost():
    from perfbench.spans import ATTRIBUTION_TOLERANCE, table

    ok = table({"a": 0.5, "b": 0.46}, 1.0, "mean")
    assert ok["ok"] and abs(ok["leftover"] - 0.04) < 1e-12
    missed = table({"a": 0.5, "b": 0.3}, 1.0, "mean")
    assert missed["residual"] > ATTRIBUTION_TOLERANCE and not missed["ok"]


def test_serve_window_mean_comes_from_summary_sum_and_count():
    from perfbench import serve_mixed

    def text(total, count):
        return (
            f"repro_latency_serve_request_ns_sum {total}\n"
            f"repro_latency_serve_request_ns_count {count}\n"
            'repro_latency_serve_request_ns{quantile="0.5"} 1000\n'
        )

    before = serve_mixed._summaries(text(5e6, 10))
    after = serve_mixed._summaries(text(9e6, 21))
    assert before["request"]["p50"] == 1000.0
    assert before["query"]["count"] == 0.0
    # 11 requests in 4 ms, one of them a 0.5 ms scrape: 10 in 3.5 ms.
    mean = serve_mixed._window_mean_ms(before, after, "request", (5e5, 1))
    assert abs(mean - 0.35) < 1e-12


def test_host_scaled_divides_each_round_by_its_slowdown(tmp_path):
    from perfbench.common import REFERENCE_CALIBRATION_S as ref

    ctx = Context(
        workload="paper-sweep", seed=0, seconds=0.0, tracer=None,
        workdir=tmp_path,
    )
    # Readings before round 0, between rounds 0 and 1, after round 1.
    ctx.calibration = [ref, 3 * ref, ref]
    assert ctx.host_scaled([4.0, [6.0, 12.0]]) == [2.0, [3.0, 6.0]]
    assert ctx.slowdown() == 1.0
    with pytest.raises(ValueError):
        ctx.host_scaled([1.0])
