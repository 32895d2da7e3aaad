"""``serve`` workload: ``repro serve`` answering ``POST /predict``.

The server runs in its own process.  Its registry holds two artifacts fit
once per benchmark invocation, untimed, from fixed seeded campaigns: a
forward model and a training-step model fit on single- and multi-node
records.  The benchmark's generator, in this process, drives the server in
a closed loop over two keep-alive connections; each sends its next request
when the last reply arrives.  Requests come from a pool drawn from the
workload seed with the shares of the documented ``repro serve --bench``
mix: single and batched (2-8 queries), a fused share and multi-node step
queries, sent to the forward and the step artifact in turn.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from pathlib import Path

from harness import (
    ChildFailed,
    child_env,
    median,
    percentile,
    pid_peak_rss_mb,
    run_child,
    samples_note,
)
from spans import install_layers, layer_totals

#: Campaign the registry's artifacts are fit from; fixed, not the seed.
FIT_SEED = 7
FIT_MODELS = ("alexnet", "vgg11", "resnet18", "resnet50", "mobilenet_v2",
              "densenet121", "efficientnet_b0", "squeezenet1_1")
FIT_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
FIT_IMAGES = (64, 128, 224)
DEVICE = "a100-80gb"

#: The request mix, frozen from the documented mix of ``repro serve
#: --bench`` when the benchmark was defined: the ``MIX_*`` tuples of
#: ``repro.serve.bench``, the ``BenchConfig`` default shares and
#: ``build_mix``'s multi-node rule.
NETWORKS = ("alexnet", "resnet18", "resnet50", "mobilenet_v2", "vgg11")
IMAGES = (64, 128, 224)
BATCHES = (1, 8, 32, 128)
#: Share of requests that batch 2...8 queries into one POST.
BATCHED_SHARE = 0.5
MAX_REQUEST_QUERIES = 8
#: Share of queries predicted from the fused graph.
FUSED_SHARE = 0.25
#: Share of step queries at a multi-node coordinate, 4 devices a node.
MULTI_NODE_SHARE = 0.25
MULTI_NODES = (2, 4, 8)
DEVICES_PER_NODE = 4
#: Bodies in the pool.  ``build_mix`` drives one artifact per run; this
#: pool alternates the two, so half of the requests go to each (an assumed
#: share, not one from the documented mix).
POOL_SIZE = 256

CONNECTIONS = 2
#: p99 needs ten samples beyond it; the window stretches to reach this.
MIN_REQUESTS = 1000
#: Hard stop for the timed window, seconds, whatever the request count.
MAX_WINDOW_S = 90.0
#: Server starts per untraced run; the last one serves the timed load.
SERVER_STARTS = 3
#: Alternating plain and spanned passes of the traced in-process replay.
REPLAY_ROUNDS = 3
READY_TIMEOUT_S = 60.0
#: The server's defaults, which the in-process replay must match.
DOMAIN_FACTOR = 10.0
DEFAULT_TRANSFORM = ""


# -- registry and request pool -----------------------------------------------


def fit_registry(root: Path) -> None:
    """Fit and save the two artifacts (untimed, once per invocation)."""
    from repro.benchdata import CampaignSpec, run_campaign
    from repro.core.forward import ForwardModel
    from repro.core.persistence import save_model
    from repro.core.training import TrainingStepModel
    from repro.hardware.device import get_device

    device = get_device(DEVICE)
    forward = run_campaign(CampaignSpec(
        scenario="inference", models=FIT_MODELS, device=device,
        batch_sizes=FIT_BATCHES, image_sizes=FIT_IMAGES, seed=FIT_SEED,
    ), verify="off").dataset
    # Nodes 1...8: both the single-node and the multi-node regression.
    step = run_campaign(CampaignSpec(
        scenario="distributed", models=FIT_MODELS, device=device,
        batch_sizes=(16, 32, 64, 128), image_sizes=FIT_IMAGES,
        node_counts=(1, 2, 4, 8), seed=FIT_SEED,
    ), verify="off").dataset
    root.mkdir(parents=True)
    save_model(ForwardModel().fit(forward), root / "forward.json")
    save_model(TrainingStepModel().fit(step), root / "step.json")


def _query(rng: random.Random, step: bool) -> dict:
    query = {
        "network": rng.choice(NETWORKS),
        "image": rng.choice(IMAGES),
        "batch": rng.choice(BATCHES),
    }
    if rng.random() < FUSED_SHARE:
        query["fuse"] = True
    if step and rng.random() < MULTI_NODE_SHARE:
        nodes = rng.choice(MULTI_NODES)
        query["nodes"] = nodes
        query["devices"] = DEVICES_PER_NODE * nodes
    return query


def request_pool(seed: int) -> list[bytes]:
    """``POOL_SIZE`` /predict bodies drawn from ``seed``.

    The shape of the pool is fixed: the first ``BATCHED_SHARE`` of the
    bodies are batched, their query counts cycle over 2...8, and odd
    bodies go to the step artifact.  The seed draws the queries.  Every
    seed thus asks for the same number of predictions per pass over the
    pool.
    """
    rng = random.Random(f"serve-pool:{seed}")
    n_batched = round(BATCHED_SHARE * POOL_SIZE)
    sizes = range(2, MAX_REQUEST_QUERIES + 1)
    bodies = []
    for i in range(POOL_SIZE):
        step = i % 2 == 1
        body: dict = {"model": "step" if step else "forward"}
        if i < n_batched:
            size = sizes[i % len(sizes)]
            body["queries"] = [_query(rng, step) for _ in range(size)]
        else:
            body.update(_query(rng, step))
        bodies.append(json.dumps(body, sort_keys=True).encode())
    return bodies


def warmup_bodies(pool: list[bytes]) -> list[bytes]:
    """One single query per distinct (network, image, fuse) of the pool."""
    keys: dict[tuple, None] = {}
    for raw in pool:
        body = json.loads(raw)
        for q in body.get("queries", [body]):
            keys.setdefault((q["network"], q["image"], q.get("fuse", False)))
    return [
        json.dumps({"model": "forward", "network": n, "image": i,
                    "fuse": f}, sort_keys=True).encode()
        for n, i, f in keys
    ]


def n_queries(raw: bytes) -> int:
    return len(json.loads(raw).get("queries", [None]))


# -- server process ------------------------------------------------------------


class Server:
    """One ``repro serve`` process on a port it picks itself."""

    def __init__(self, registry: Path, log_path: Path) -> None:
        self.log_path = log_path
        self._log = log_path.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--registry", str(registry), "--host", "127.0.0.1",
             "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=child_env(),
            cwd=registry.parent,
        )
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.port:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    self.port = int(line.rsplit(":", 1)[1])
            self._alive_until(deadline)
        while True:
            try:
                status, _ = get(self.host, self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            self._alive_until(deadline)

    def _alive_until(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited {self.proc.returncode}: "
                f"{self.log_path.read_text()[-2000:]}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError("server did not become ready")
        time.sleep(0.01)

    def stop(self) -> None:
        """Interrupt, then kill if needed; always reaps the process."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


def get(host: str, port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def post_all(host: str, port: int, bodies: list[bytes]) -> list:
    """POST each body in turn over one keep-alive connection.

    Returns the statuses; ``None`` stands for each request lost when the
    connection dropped (the rest are then not sent).
    """
    conn = http.client.HTTPConnection(host, port, timeout=30)
    statuses: list = []
    try:
        for body in bodies:
            conn.request("POST", "/predict", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            statuses.append(resp.status)
    except (OSError, http.client.HTTPException):
        pass
    finally:
        conn.close()
    return statuses + [None] * (len(bodies) - len(statuses))


class Tally:
    """Requests attempted and failed over one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, statuses: list) -> None:
        self.attempted += len(statuses)
        self.failed += sum(s != 200 for s in statuses)


def start_servers(stack: ExitStack, registry: Path, work: Path,
                  warm: list[bytes], starts: int,
                  tally: Tally) -> tuple[Server, list[float]]:
    """Start ``starts`` servers in turn, each until ready and warmed up.

    Returns the last one, still running, and each start's set-up time.
    A server that dies or does not become ready loses its warm-up pass.
    """
    setups = []
    for k in range(starts):
        t0 = time.monotonic()
        server = Server(registry, work / f"server{k}.log")
        stack.callback(server.stop)
        try:
            server.wait_ready()
        except RuntimeError:
            tally.add([None] * len(warm))
            raise
        statuses = post_all(server.host, server.port, warm)
        setups.append(time.monotonic() - t0)
        tally.add(statuses)
        if any(s != 200 for s in statuses):
            raise RuntimeError(
                f"warm-up answered {sorted({str(s) for s in statuses})}"
            )
        if k < starts - 1:
            server.stop()
    return server, setups


# -- closed-loop load ------------------------------------------------------------


def drive(host: str, port: int, pool: list[bytes], seed: int,
          seconds: float) -> tuple[list[list[tuple]], float]:
    """Closed loop over ``CONNECTIONS`` keep-alive connections.

    Returns per-connection ``(pool index, status, body, latency_s)`` lists
    (status ``None`` for a dropped connection) and the window length.
    """
    results: list[list[tuple]] = [[] for _ in range(CONNECTIONS)]
    abort = threading.Event()
    start = time.perf_counter()
    stop_at = start + seconds
    hard_stop = start + MAX_WINDOW_S

    def more() -> bool:
        now = time.perf_counter()
        done = sum(len(r) for r in results)
        return not abort.is_set() and now < hard_stop and (
            now < stop_at or done < MIN_REQUESTS
        )

    def client(i: int) -> None:
        rng = random.Random(f"serve-conn:{seed}:{i}")
        order: list[int] = []
        out = results[i]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            while more():
                if not order:
                    # Whole seeded passes keep the mix the pool's mix.
                    order = list(range(len(pool)))
                    rng.shuffle(order)
                index = order.pop()
                t = time.perf_counter()
                try:
                    conn.request("POST", "/predict", body=pool[index],
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    status, data = resp.status, resp.read()
                except (OSError, http.client.HTTPException):
                    status, data = None, b""
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                out.append((index, status, data, time.perf_counter() - t))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}",
                         daemon=True)
        for i in range(CONNECTIONS)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        # An interrupted run still ends its clients before the server goes.
        abort.set()
        for t in threads:
            if t.is_alive():
                t.join(timeout=35)
    return results, time.perf_counter() - start


def server_counters(server: Server) -> dict:
    status, raw = get(server.host, server.port, "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return json.loads(raw)


# -- correctness: replay in-process ------------------------------------------


def _answer(registry, cache, raw: bytes) -> dict:
    """What the server's /predict handler computes for ``raw``."""
    from repro.serve.protocol import PredictRequest, answer_request

    request = PredictRequest.parse(json.loads(raw))
    return answer_request(
        request, registry.get(request.model), cache,
        default_transform=DEFAULT_TRANSFORM,
        default_domain_factor=DOMAIN_FACTOR,
    )


def _encode(response: dict) -> bytes:
    """The server's JSON response encoding."""
    return (json.dumps(response, sort_keys=True) + "\n").encode()


def check_bodies(registry_dir: Path, pool: list[bytes],
                 responses: list[tuple]) -> list[str]:
    """Every 200 body must equal ``answer_request`` replayed in-process."""
    from repro.serve.protocol import FeatureCache
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(registry_dir)
    cache = FeatureCache()
    expected: dict[int, object] = {}
    wrong = []
    for index, status, data, _ in responses:
        if status != 200:
            continue
        if index not in expected:
            expected[index] = json.loads(
                json.dumps(_answer(registry, cache, pool[index]))
            )
        if json.loads(data) != expected[index]:
            wrong.append(index)
    if not wrong:
        return []
    return [f"{len(wrong)} responses differ from the in-process answer; "
            f"first to {pool[wrong[0]][:200]!r}"]


# -- child: traced in-process replay -----------------------------------------


def child_replay(args: dict) -> dict:
    """Replay the sent bodies in-process: plain passes time the whole
    handler, spanned passes time each of its steps."""
    import repro.cli  # noqa: F401 - `repro serve` pays this import
    from repro.serve import protocol, registry as registry_mod

    recorder = install_layers()
    work = Path(args["dir"])
    plan = json.loads((work / "replay.json").read_text())
    pool = [b.encode() for b in plan["pool"]]
    registry = registry_mod.ModelRegistry(work / "registry")
    cache = protocol.FeatureCache()
    for raw in plan["warmup"]:
        _answer(registry, cache, raw.encode())
    sequence = [pool[i] for i in plan["sequence"]]
    for raw in sequence:  # first touches land outside both timed passes
        _answer(registry, cache, raw)

    span = recorder.span
    handler_s: list[float] = []
    plain_s = traced_s = cover_s = 0.0
    # Plain and spanned passes alternate, so drift cancels out of the
    # overhead estimate.
    for _ in range(REPLAY_ROUNDS):
        start = time.perf_counter()
        for raw in sequence:
            t = time.perf_counter()
            _encode(_answer(registry, cache, raw))
            handler_s.append(time.perf_counter() - t)
        plain_s += time.perf_counter() - start

        start = time.perf_counter()
        for raw in sequence:
            with span("serve.protocol.parse"):
                request = protocol.PredictRequest.parse(json.loads(raw))
            with span("serve.registry.get"):
                entry = registry.get(request.model)
            with span("serve.protocol.answer"):
                response = protocol.answer_request(
                    request, entry, cache,
                    default_transform=DEFAULT_TRANSFORM,
                    default_domain_factor=DOMAIN_FACTOR,
                )
            with span("serve.protocol.encode"):
                _encode(response)
        end = time.perf_counter()
        traced_s += end - start
        cover_s += recorder.root_time(start, end)
    steps = {
        name: median(recorder.self_times_of(f"serve.{name}")) * 1e6
        for name in ("protocol.parse", "registry.get", "protocol.answer",
                     "protocol.encode")
    }
    return {
        "handler_p50_us": median(handler_s) * 1e6,
        "steps_us": steps,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "cover_s": cover_s,
        "layers": recorder.totals(),
    }


# -- parent ------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    registry_dir = work / "registry"
    fit_registry(registry_dir)
    pool = request_pool(seed)
    warm = warmup_bodies(pool)
    tally = Tally()
    try:
        with ExitStack() as stack:
            server, setups = start_servers(
                stack, registry_dir, work, warm,
                1 if trace else SERVER_STARTS, tally,
            )
            before = server_counters(server)
            per_conn, window_s = drive(server.host, server.port, pool, seed,
                                       seconds)
            responses = [r for conn in per_conn for r in conn]
            tally.add([r[1] for r in responses])
            after = server_counters(server)
            rss_mb = pid_peak_rss_mb(server.proc.pid)
    except (RuntimeError, OSError, http.client.HTTPException) as exc:
        if not tally.failed:
            tally.add([None])  # the call that raised, e.g. GET /metrics
        return {
            "correct": False,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {},
            "notes": [f"server failed: {exc}"],
        }
    ok = [r for r in responses if r[1] == 200]
    problems = check_bodies(registry_dir, pool, responses)
    if tally.failed:
        statuses = sorted({str(r[1]) for r in responses if r[1] != 200})
        problems.append(f"{tally.failed} requests failed: statuses "
                        f"{statuses}")
    if len(responses) < MIN_REQUESTS:
        problems.append(f"only {len(responses)} requests in the window")
    latencies_ms = [r[3] * 1e3 for r in responses]
    predictions = sum(n_queries(pool[r[0]]) for r in ok)
    p50_ms = percentile(latencies_ms, 50)
    notes = [
        f"{len(responses)} requests ({predictions} predictions) in "
        f"{window_s:.3f} s over {CONNECTIONS} connections",
        f"latency p50 {p50_ms:.3f} ms, p99 "
        f"{percentile(latencies_ms, 99):.3f} ms over "
        f"{len(latencies_ms)} samples",
        samples_note("setup_s", setups),
    ]
    if not trace:
        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": rss_mb,
            "ops_per_s": predictions / window_s,
            "p50_ms": p50_ms,
        }
    else:
        metrics = _layer_metrics(
            work, pool, warm, per_conn, p50_ms, before, after, problems
        )
        if metrics:
            metrics["serve.server.p99_ms"] = percentile(latencies_ms, 99)
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "notes": notes + problems,
    }


def _layer_metrics(work: Path, pool: list[bytes], warm: list[bytes],
                   per_conn: list, p50_ms: float, before: dict, after: dict,
                   problems: list) -> dict:
    # Replay in send order: connection streams interleaved by position.
    sequence = [
        conn[i][0]
        for i in range(max(len(c) for c in per_conn))
        for conn in per_conn
        if i < len(conn)
    ]
    (work / "replay.json").write_text(json.dumps({
        "pool": [b.decode() for b in pool],
        "warmup": [b.decode() for b in warm],
        "sequence": sequence,
    }))
    try:
        replay = run_child("serve-replay", {"dir": str(work)}, work)
    except ChildFailed as exc:
        problems.append(str(exc))
        return {}
    layers = replay["layers"]
    for name in ("zoo.build", "hardware.roofline.profile"):
        if name not in layers:
            problems.append(f"traced replay recorded no {name} calls")

    def delta(key: str) -> float:
        return (after["counters"].get(key, 0.0)
                - before["counters"].get(key, 0.0))

    hits = after["feature_cache"]["hits"] - before["feature_cache"]["hits"]
    misses = (after["feature_cache"]["misses"]
              - before["feature_cache"]["misses"])
    steps = replay["steps_us"]
    build_s, builds = layer_totals(layers, "zoo.build")
    profile_s, profiles = layer_totals(layers, "hardware.roofline.profile")
    return {
        "zoo.build_s": build_s,
        "zoo.builds": builds,
        "hardware.roofline.profile_s": profile_s,
        "hardware.roofline.profiles": profiles,
        "serve.protocol.parse_us": steps["protocol.parse"],
        "serve.registry.get_us": steps["registry.get"],
        "serve.protocol.answer_us": steps["protocol.answer"],
        "serve.protocol.encode_us": steps["protocol.encode"],
        "serve.server.transport_us": p50_ms * 1e3 - replay["handler_p50_us"],
        "serve.protocol.feature_hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "serve.server.requests": delta("predict_requests_total"),
        "serve.server.errors": delta("errors_total"),
        "bench.span_cover": replay["cover_s"] / replay["traced_s"],
        "bench.trace_overhead_s": replay["traced_s"] - replay["plain_s"],
    }
