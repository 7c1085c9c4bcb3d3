"""Telemetry-plane smoke and overhead benchmark: a supervised sharded
ingest with a chaos-scheduled worker kill, scraped *live* over HTTP
while it runs.

The point is end-to-end: the same process serves ``/metrics`` and
``/healthz`` from a background thread while the supervised engine
detects the kill, restarts the shard, and finishes bit-identically.
The benchmark records:

* **liveness** — every scrape during ingest must return a parseable
  Prometheus exposition and a healthz payload whose restart budgets
  move when the chaos kill lands;
* **degrade forensics** — the chaos kill must leave a flight-record
  JSONL (``supervisor.restart``) in the flight directory;
* **overhead** — wall clock for the same supervised run with and
  without the telemetry plane (server + flight recorder + tracing).

Results land in ``BENCH_telemetry.json`` at the repo root.  Regenerate
with::

    PYTHONPATH=src python benchmarks/bench_telemetry.py

``--smoke`` runs a small-n subset for CI; ``REPRO_SCALE`` scales the
stream length as usual.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import tempfile
import time
import urllib.request

import numpy as np

from repro.core.snapshot import snapshot
from repro.distributed.faults import FaultPlan
from repro.durability import SupervisorConfig
from repro.durability.supervisor import SupervisedIngestEngine
from repro.evaluation import machine_context, scaled_n
from repro.obs import (
    MetricsRegistry,
    TelemetryServer,
    Tracer,
    disable_flight,
    enable_flight,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parallel.plan import ShardPlan

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_telemetry.json"

EPS = 0.01
SHARDS = 2


def _scrape(server: TelemetryServer, path: str) -> tuple:
    try:
        response = urllib.request.urlopen(server.url(path), timeout=10)
        return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:  # healthz 503 while degraded
        return exc.code, exc.read().decode("utf-8")


def _supervised_run(
    data: np.ndarray,
    plan: ShardPlan,
    faults: FaultPlan,
    workdir: pathlib.Path,
    telemetry: bool,
    scrape_every: int = 4,
) -> dict:
    """One supervised run; with ``telemetry`` the full plane is live and
    scraped between ingest chunks."""
    record: dict = {"telemetry": telemetry, "scrapes": 0}
    server = None
    flight_dir = workdir / "flight"
    if telemetry:
        obs_metrics.enable(MetricsRegistry())
        obs_trace.enable_tracing(Tracer())
        flight_dir.mkdir()
        enable_flight(flight_dir)
        server = TelemetryServer().start()
        record["url"] = server.url("")
    try:
        supervisor = SupervisorConfig(
            max_restarts=2,
            restart_backoff_s=0.05,
            hung_timeout_s=30.0,
            poll_interval_s=0.05,
        )
        start = time.perf_counter()
        with SupervisedIngestEngine(
            "gk_array",
            EPS,
            plan,
            workdir / "stores",
            faults=faults,
            supervisor=supervisor,
            collect_metrics=telemetry,
            dtype=data.dtype,
        ) as engine:
            step = plan.chunk_size * scrape_every
            for lo in range(0, len(data), step):
                engine.ingest(data[lo : lo + step])
                if server is not None:
                    status, text = _scrape(server, "/metrics")
                    assert status == 200 and "# TYPE" in text
                    h_status, h_text = _scrape(server, "/healthz")
                    assert h_status in (200, 503)
                    health = json.loads(h_text)
                    record["scrapes"] += 1
                    record["last_health"] = {
                        "status": health["status"],
                        "restarts_remaining": {
                            worker: shard.get("restarts_remaining")
                            for worker, shard in health["shards"].items()
                        },
                    }
            result = engine.finish()
        record["seconds"] = time.perf_counter() - start
        record["restarts"] = list(result.restarts)
        record["coverage"] = result.coverage
        record["snapshot_sha"] = hashlib.sha256(
            snapshot(result.summary)
        ).hexdigest()
        if telemetry:
            flight = [p.name for p in sorted(flight_dir.glob("*.jsonl"))]
            record["flight_dumps"] = flight
            assert any("supervisor-restart" in name for name in flight), (
                "chaos kill left no flight record"
            )
            tracer = obs_trace.tracer()
            worker_pids = {
                e.get("pid")
                for e in tracer.events
                if e.get("pid") is not None
            }
            record["worker_pids_in_trace"] = len(worker_pids)
        return record
    finally:
        if server is not None:
            server.stop()
        disable_flight()
        obs_trace.disable_tracing()
        obs_metrics.disable()


def run(smoke: bool) -> dict:
    chunk = 1024
    # The kill below lands on shard 1's second chunk, so even a scaled
    # run needs two chunks per shard for the chaos fault to fire.
    n = max(scaled_n(16_384 if smoke else 262_144), 2 * SHARDS * chunk)
    rng = np.random.default_rng(23)
    data = rng.integers(0, 1 << 20, size=n, dtype=np.int64)
    plan = ShardPlan(seed=0, shards=SHARDS, chunk_size=chunk)
    # Kill shard 1 on its second chunk — the supervisor must restart it
    # while the server keeps answering scrapes.
    faults = FaultPlan(seed=7, kill_worker_at={1: 1})

    runs = {}
    for telemetry in (False, True):
        with tempfile.TemporaryDirectory(prefix="bench-telemetry-") as tmp:
            runs["with_telemetry" if telemetry else "plain"] = (
                _supervised_run(
                    data, plan, faults, pathlib.Path(tmp), telemetry
                )
            )

    plain, served = runs["plain"], runs["with_telemetry"]
    assert served["snapshot_sha"] == plain["snapshot_sha"], (
        "telemetry plane changed the merged summary"
    )
    assert sum(served["restarts"]) >= 1, "chaos kill did not land"
    overhead = served["seconds"] / plain["seconds"] - 1.0
    return {
        "n": n,
        "shards": SHARDS,
        "chunk_size": chunk,
        "runs": runs,
        "overhead_fraction": overhead,
        "machine": machine_context(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small-n subset for CI"
    )
    args = parser.parse_args()
    report = run(smoke=args.smoke)
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    served = report["runs"]["with_telemetry"]
    print(
        f"n={report['n']} scrapes={served['scrapes']} "
        f"restarts={served['restarts']} "
        f"flight={served['flight_dumps']} "
        f"overhead={100 * report['overhead_fraction']:+.1f}%"
    )
    print(f"wrote {ARTIFACT}")


if __name__ == "__main__":
    main()
