"""Load generator and latency benchmark for the prediction server.

``repro serve --bench`` boots a server on an ephemeral port, drives it
over real HTTP from ``threads`` concurrent clients with a *deterministic*
seeded query mix (so two bench runs issue byte-identical request
streams), and writes ``BENCH_serve.json`` — QPS, a latency histogram,
and the feature-cache hit rate — starting the perf trajectory ROADMAP
item 2 asks for.  Only the latencies themselves come from a real clock
(``time.perf_counter``, the sanctioned observability timer); everything
the served predictions contain stays simulated and deterministic.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.serve.registry import ModelRegistry
from repro.serve.server import PredictionServer, make_server

#: Schema identifier stamped into every bench payload.
BENCH_SCHEMA = "repro/serve-bench/v1"

#: Histogram bucket upper edges, milliseconds (last bucket is overflow).
HISTOGRAM_EDGES_MS = (
    0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

#: Networks the default query mix draws from — small, fast-to-profile
#: members of the zoo spanning dense, residual and depthwise regimes.
MIX_NETWORKS = ("alexnet", "resnet18", "resnet50", "mobilenet_v2", "vgg11")

MIX_IMAGES = (64, 128, 224)
MIX_BATCHES = (1, 8, 32, 128)


@dataclass(frozen=True)
class BenchConfig:
    """Everything that determines a bench run's request stream."""

    artifact: str
    queries: int = 256
    threads: int = 4
    seed: int = 0
    #: Fraction of requests that batch several queries into one POST.
    batch_share: float = 0.5
    #: Maximum queries folded into one batched request.
    max_request_queries: int = 8
    #: Fraction of queries predicted from the fused graph (--fuse path).
    fuse_share: float = 0.25


@dataclass
class BenchResult:
    """Latencies and counts collected by one client thread."""

    latencies_s: list[float] = field(default_factory=list)
    queries: int = 0
    errors: int = 0


def build_mix(config: BenchConfig, step_model: bool) -> list[dict[str, Any]]:
    """The deterministic request stream: a pure function of the config.

    Returns POST bodies.  ``step_model`` widens the mix with multi-node
    training-step coordinates; forward artifacts get batch-only queries.
    """
    rng = np.random.default_rng(config.seed)
    bodies: list[dict[str, Any]] = []
    produced = 0
    while produced < config.queries:
        if rng.random() < config.batch_share:
            room = config.queries - produced
            n = int(rng.integers(2, config.max_request_queries + 1))
            n = min(n, max(room, 1))
        else:
            n = 1
        queries = []
        for _ in range(n):
            query: dict[str, Any] = {
                "network": str(rng.choice(MIX_NETWORKS)),
                "image": int(rng.choice(MIX_IMAGES)),
                "batch": int(rng.choice(MIX_BATCHES)),
            }
            if rng.random() < config.fuse_share:
                query["fuse"] = True
            if step_model and rng.random() < 0.25:
                nodes = int(rng.choice((2, 4, 8)))
                query["nodes"] = nodes
                query["devices"] = nodes * 4
            queries.append(query)
        body = {"model": config.artifact}
        if n == 1:
            body.update(queries[0])
        else:
            body["queries"] = queries
        bodies.append(body)
        produced += n
    return bodies


def _client(
    host: str,
    port: int,
    bodies: Sequence[bytes],
    n_queries: Sequence[int],
    result: BenchResult,
) -> None:
    conn = HTTPConnection(host, port)
    try:
        for body, n in zip(bodies, n_queries):
            start = time.perf_counter()
            conn.request(
                "POST", "/predict", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            result.latencies_s.append(time.perf_counter() - start)
            if response.status == 200:
                result.queries += n
            else:
                result.errors += 1
    finally:
        conn.close()


def _percentile(sorted_latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending latency list."""
    if not sorted_latencies:
        return 0.0
    rank = max(int(np.ceil(q * len(sorted_latencies))) - 1, 0)
    return sorted_latencies[min(rank, len(sorted_latencies) - 1)]


def _histogram(latencies_ms: Sequence[float]) -> dict[str, Any]:
    counts = [0] * (len(HISTOGRAM_EDGES_MS) + 1)
    for ms in latencies_ms:
        counts[bisect.bisect_left(HISTOGRAM_EDGES_MS, ms)] += 1
    return {"edges_ms": list(HISTOGRAM_EDGES_MS), "counts": counts}


def run_bench(
    server: PredictionServer, config: BenchConfig
) -> dict[str, Any]:
    """Drive a (already started) server with the seeded mix; return the
    ``BENCH_serve.json`` payload."""
    entry = server.registry.get(config.artifact)
    bodies = build_mix(config, step_model=entry.kind == "training_step")
    encoded = [json.dumps(b).encode() for b in bodies]
    counts = [len(b.get("queries", ())) or 1 for b in bodies]
    host, port = server.server_address[:2]
    cache_before = server.features.stats()

    # Round-robin partition: deterministic given (mix, threads).
    results = [BenchResult() for _ in range(config.threads)]
    threads = []
    wall_start = time.perf_counter()
    for t in range(config.threads):
        thread = threading.Thread(
            target=_client,
            args=(
                host,
                port,
                encoded[t :: config.threads],
                counts[t :: config.threads],
                results[t],
            ),
            name=f"bench-client-{t}",
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    latencies = sorted(
        lat for result in results for lat in result.latencies_s
    )
    latencies_ms = [lat * 1e3 for lat in latencies]
    n_queries = sum(result.queries for result in results)
    n_errors = sum(result.errors for result in results)
    cache_delta = server.features.stats() - cache_before
    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "artifact": config.artifact,
            "kind": entry.kind,
            "queries": config.queries,
            "requests": len(bodies),
            "threads": config.threads,
            "seed": config.seed,
            "batch_share": config.batch_share,
            "max_request_queries": config.max_request_queries,
            "fuse_share": config.fuse_share,
        },
        "totals": {
            "requests": len(latencies),
            "queries": n_queries,
            "errors": n_errors,
        },
        "wall_seconds": wall,
        "qps": n_queries / wall if wall > 0 else 0.0,
        "latency_ms": {
            "mean": float(np.mean(latencies_ms)) if latencies_ms else 0.0,
            "p50": _percentile(latencies_ms, 0.50),
            "p90": _percentile(latencies_ms, 0.90),
            "p99": _percentile(latencies_ms, 0.99),
            "max": latencies_ms[-1] if latencies_ms else 0.0,
            "histogram": _histogram(latencies_ms),
        },
        "feature_cache": cache_delta.to_dict(),
        "counters": server.metrics()["counters"],
    }


def bench_registry(
    registry: ModelRegistry,
    config: BenchConfig,
    *,
    fuse: bool = False,
    domain_factor: float | None = 10.0,
) -> dict[str, Any]:
    """Boot a private server on an ephemeral port, bench it, shut down."""
    server = make_server(
        registry, port=0, fuse=fuse, domain_factor=domain_factor
    )
    thread = server.serve_background()
    try:
        return run_bench(server, config)
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()


def validate_bench_payload(payload: Any) -> list[str]:
    """Schema check of a bench document, dispatched on ``$.schema``.

    Validates ``BENCH_serve.json`` (``repro/serve-bench/v1``) directly
    and delegates ``BENCH_leaderboard.json`` (``repro/leaderboard-bench/v1``)
    to :func:`repro.baselines.eval.validate_leaderboard_payload`, so CI and
    tests share one entry point for every bench artifact instead of
    duplicating key lists.

    Returns a list of problems (empty = valid).
    """
    from repro.baselines.eval import (
        LEADERBOARD_SCHEMA,
        validate_leaderboard_payload,
    )

    if (
        isinstance(payload, dict)
        and payload.get("schema") == LEADERBOARD_SCHEMA
    ):
        return validate_leaderboard_payload(payload)
    problems: list[str] = []

    def need(obj: Any, key: str, kind: type | tuple, where: str) -> Any:
        if not isinstance(obj, dict) or key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            return None
        value = obj[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            problems.append(
                f"{where}.{key}: expected {kind}, got {type(value).__name__}"
            )
            return None
        return value

    if need(payload, "schema", str, "$") != BENCH_SCHEMA:
        problems.append(f"$.schema is not {BENCH_SCHEMA!r}")
    config = need(payload, "config", dict, "$")
    if config is not None:
        for key in ("artifact", "kind"):
            need(config, key, str, "$.config")
        for key in ("queries", "requests", "threads", "seed"):
            need(config, key, int, "$.config")
    totals = need(payload, "totals", dict, "$")
    if totals is not None:
        for key in ("requests", "queries", "errors"):
            need(totals, key, int, "$.totals")
    need(payload, "wall_seconds", (int, float), "$")
    need(payload, "qps", (int, float), "$")
    latency = need(payload, "latency_ms", dict, "$")
    if latency is not None:
        for key in ("mean", "p50", "p90", "p99", "max"):
            need(latency, key, (int, float), "$.latency_ms")
        hist = need(latency, "histogram", dict, "$.latency_ms")
        if hist is not None:
            edges = need(hist, "edges_ms", list, "$.latency_ms.histogram")
            hist_counts = need(
                hist, "counts", list, "$.latency_ms.histogram"
            )
            if (
                edges is not None
                and hist_counts is not None
                and len(hist_counts) != len(edges) + 1
            ):
                problems.append(
                    "$.latency_ms.histogram: counts must have one more "
                    "bucket (overflow) than edges_ms"
                )
    cache = need(payload, "feature_cache", dict, "$")
    if cache is not None:
        for key in ("hits", "misses", "evictions", "lookups", "hit_rate"):
            need(cache, key, (int, float), "$.feature_cache")
    need(payload, "counters", dict, "$")
    return problems


def write_bench(payload: dict[str, Any], path: str | Path) -> None:
    """Persist a bench payload (schema-validated first)."""
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError(
            "refusing to write an invalid bench payload: "
            + "; ".join(problems)
        )
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
