"""End-to-end contract of the prediction server (``repro serve``).

Real sockets, ephemeral ports: a :class:`~repro.serve.ModelRegistry` over
fitted v2 artifacts, a background :class:`~repro.serve.PredictionServer`,
and ``http.client`` requests against it.  The suites cover

* the JSON protocol — single and batched predict, scaling queries, the
  4xx error taxonomy (malformed JSON, unknown model/network/device, v1
  artifacts answered 409);
* the equivalence gates — a batched response equals N single-query
  responses with exact float ``==``, and the served numbers match the
  ``repro predict`` CLI digit for digit;
* observability — ``/healthz`` registry snapshots, ``/metrics`` counters
  (JSON and Prometheus text) that stay monotonic under 8 concurrent
  client threads with zero torn responses;
* hot reload — replacing an artifact file under a running server changes
  its answers without a restart;
* the HTTP edge — one socket send per response, keep-alive hygiene,
  stalled clients, and the header reader: its 431/400/505/411 refusals on
  raw sockets and a differential test against ``http.client``;
* the selector loop — a stalled head delays no other connection,
  pipelined requests, partial sends, no thread per connection, shutdown
  with idle connections and the connection cap's 503;
* the golden-response snapshot — a fixed query grid against the pinned
  ``tests/data/model_v2_golden.json`` artifact, regenerable via::

      PYTHONPATH=src python tests/test_serve.py > tests/data/serve_golden.json
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import socket
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection, HTTPException, parse_headers
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.audit import prediction_warnings
from repro.cli import main as cli_main
from repro.core.features import combined_bwd_grad_row, forward_row
from repro.core.forward import ForwardModel
from repro.core.persistence import save_model
from repro.core.regression import LinearModel, range_violations
from repro.core.training import GradientUpdateModel, TrainingStepModel
from repro.serve import (
    ModelRegistry,
    RegistryError,
    UnknownArtifactError,
    make_server,
    write_manifest,
)
from repro.serve import protocol as protocol_module
from repro.serve.protocol import (
    DEFAULT_FEATURE_CACHE,
    FeatureCache,
    PredictQuery,
    PredictRequest,
    ProtocolError,
    answer_request,
)
from repro.serve import server as server_module
from repro.serve.registry import ArtifactEntry
from repro.serve.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    REQUEST_TIMEOUT_S,
    PredictionServer,
    read_headers,
)

DATA_DIR = Path(__file__).parent / "data"
SERVE_GOLDEN_PATH = DATA_DIR / "serve_golden.json"


# -- plumbing ----------------------------------------------------------------


def _request(server, method, path, body=None, headers=None, raw=None):
    """One HTTP request against a running server; returns (status, payload).

    ``payload`` is parsed JSON for JSON responses, text otherwise.
    """
    host, port = server.server_address[:2]
    conn = HTTPConnection(host, port)
    try:
        data = raw if raw is not None else (
            None if body is None else json.dumps(body).encode()
        )
        send_headers = {"Content-Type": "application/json"} if data else {}
        send_headers.update(headers or {})
        conn.request(method, path, body=data, headers=send_headers)
        response = conn.getresponse()
        content = response.read()
        if "application/json" in response.getheader("Content-Type", ""):
            return response.status, json.loads(content)
        return response.status, content.decode()
    finally:
        conn.close()


def _post(server, body):
    return _request(server, "POST", "/predict", body=body)


def _get(server, path, headers=None):
    return _request(server, "GET", path, headers=headers)


def _boot(registry, **kwargs):
    server = make_server(registry, **kwargs)
    thread = server.serve_background()
    return server, thread


def _shutdown(server, thread):
    server.shutdown()
    thread.join(timeout=5.0)
    server.server_close()


# -- fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, small_inference_data,
                 small_distributed_data):
    """A registry with a forward default, a training-step artifact, a
    non-servable grad_update artifact, and a v1 legacy document."""
    root = tmp_path_factory.mktemp("registry")
    save_model(ForwardModel().fit(small_inference_data),
               root / "default.json")
    step = TrainingStepModel().fit(small_distributed_data)
    save_model(step, root / "step.json", audit="off")
    grad = GradientUpdateModel(multi_node=True).fit(small_distributed_data)
    save_model(grad, root / "gradupd.json", audit="off")
    shutil.copy(DATA_DIR / "model_v1.json", root / "legacy.json")
    return root


@pytest.fixture(scope="module")
def server(registry_dir):
    server, thread = _boot(ModelRegistry(registry_dir))
    yield server
    _shutdown(server, thread)


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_scan_names_and_failures(self, registry_dir):
        registry = ModelRegistry(registry_dir)
        assert registry.names() == ["default", "gradupd", "step"]
        snapshot = registry.snapshot()
        assert set(snapshot.failed) == {"legacy"}
        assert "v1 model document" in snapshot.failed["legacy"]

    def test_v1_artifact_rejected_on_get(self, registry_dir):
        registry = ModelRegistry(registry_dir)
        with pytest.raises(RegistryError, match="v1 model document"):
            registry.get("legacy")

    def test_unknown_name_raises(self, registry_dir):
        with pytest.raises(UnknownArtifactError):
            ModelRegistry(registry_dir).get("nope")

    def test_default_name_prefers_default(self, registry_dir):
        assert ModelRegistry(registry_dir).default_name() == "default"

    def test_default_name_single_artifact(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "step.json", tmp_path / "only.json")
        assert ModelRegistry(tmp_path).default_name() == "only"

    def test_default_name_ambiguous(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "step.json", tmp_path / "a.json")
        shutil.copy(registry_dir / "step.json", tmp_path / "b.json")
        with pytest.raises(UnknownArtifactError, match="a, b"):
            ModelRegistry(tmp_path).default_name()

    def test_manifest_pins_the_served_set(self, tmp_path, registry_dir):
        for name in ("default", "step"):
            shutil.copy(registry_dir / f"{name}.json",
                        tmp_path / f"{name}.json")
        write_manifest(tmp_path, {
            "fwd": {"file": "default.json", "device": "a100-80gb"},
        })
        registry = ModelRegistry(tmp_path)
        assert registry.names() == ["fwd"]
        assert registry.get("fwd").device == "a100-80gb"

    def test_manifest_version_mismatch(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "default.json", tmp_path / "m.json")
        (tmp_path / "registry.json").write_text(
            json.dumps({"version": 99, "models": {}})
        )
        with pytest.raises(RegistryError, match="version 99"):
            ModelRegistry(tmp_path)

    def test_empty_and_missing_roots(self, tmp_path):
        with pytest.raises(RegistryError, match="no model artifacts"):
            ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="not a directory"):
            ModelRegistry(tmp_path / "nowhere")

    def test_deleted_artifact_fails_lookup(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "default.json", tmp_path / "gone.json")
        registry = ModelRegistry(tmp_path)
        registry.get("gone")
        (tmp_path / "gone.json").unlink()
        with pytest.raises(RegistryError, match="cannot stat"):
            registry.get("gone")

    def test_wrong_shape_artifact_is_isolated(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "default.json", tmp_path / "good.json")
        (tmp_path / "bad.json").write_text(json.dumps([1, 2]))
        registry = ModelRegistry(tmp_path)
        assert registry.names() == ["good"]
        failed = registry.snapshot().failed
        assert set(failed) == {"bad"}
        assert "bad.json" in failed["bad"] and "not an object" in failed["bad"]
        with pytest.raises(RegistryError, match="bad.json"):
            registry.get("bad")
        assert registry.get("good").kind == "forward"

    @pytest.mark.parametrize("manifest, named", [
        ([], "registry.json"),
        ({"version": 1, "models": ["default.json"]}, "'models'"),
        ({"version": 1, "models": {"fwd": {"device": "a100-80gb"}}},
         "models.fwd.file"),
    ], ids=["not-an-object", "models-not-an-object", "entry-without-file"])
    def test_unusable_manifest_is_a_registry_error(
        self, tmp_path, registry_dir, capsys, manifest, named
    ):
        shutil.copy(registry_dir / "default.json", tmp_path / "default.json")
        (tmp_path / "registry.json").write_text(json.dumps(manifest))
        with pytest.raises(RegistryError, match=named):
            ModelRegistry(tmp_path)
        assert cli_main(["serve", "--registry", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: ") and named in err
        assert "Traceback" not in err

    def test_bench_flag_is_gone(self, registry_dir, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["serve", "--registry", str(registry_dir), "--bench"])
        assert info.value.code == 2
        assert "unrecognized arguments: --bench" in capsys.readouterr().err

    def test_feature_cache_flag_is_gone(self, registry_dir, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["serve", "--registry", str(registry_dir),
                      "--feature-cache", "8"])
        assert info.value.code == 2
        assert ("unrecognized arguments: --feature-cache 8"
                in capsys.readouterr().err)


class TestFeatureCache:
    def test_holds_the_constant_number_of_graphs(self, monkeypatch):
        built = []

        def fake_record(kind, network, image, pipeline):
            built.append(network)
            return SimpleNamespace(profile=network, features=image)

        monkeypatch.setattr(protocol_module, "graph_record", fake_record)
        cache = FeatureCache()
        names = [f"net{i}" for i in range(DEFAULT_FEATURE_CACHE + 1)]
        for name in names:
            assert cache.lookup(name, 64, "") == (name, 64)
        assert DEFAULT_FEATURE_CACHE == 512
        assert len(cache) == DEFAULT_FEATURE_CACHE
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (
            0, DEFAULT_FEATURE_CACHE + 1, 1)
        cache.lookup(names[-1], 64, "")  # the newest stays
        cache.lookup(names[0], 64, "")   # the oldest was evicted
        assert built == names + [names[0]]


# -- predict: happy paths ----------------------------------------------------


class TestPredict:
    def test_single_forward(self, server):
        status, body = _post(
            server, {"network": "resnet18", "image": 224, "batch": 8}
        )
        assert status == 200
        assert body["protocol"] == 1
        assert body["model"] == "default"
        assert body["kind"] == "forward"
        assert "predictions" not in body
        prediction = body["prediction"]
        assert prediction["kind"] == "forward"
        assert prediction["t_seconds"] > 0
        assert prediction["throughput"] == 8 / prediction["t_seconds"]
        assert prediction["warnings"] == []

    def test_batched_shape(self, server):
        queries = [
            {"network": "alexnet", "batch": 1},
            {"network": "resnet50", "image": 128, "batch": 64},
            {"network": "vgg11", "image": 64, "batch": 8},
        ]
        status, body = _post(server, {"model": "default",
                                      "queries": queries})
        assert status == 200
        assert body["count"] == 3
        assert "prediction" not in body
        assert [p["network"] for p in body["predictions"]] == [
            "alexnet", "resnet50", "vgg11",
        ]

    def test_training_step(self, server):
        status, body = _post(server, {
            "model": "step", "network": "resnet18", "image": 128,
            "batch": 16, "nodes": 2, "devices": 8,
        })
        assert status == 200
        prediction = body["prediction"]
        assert prediction["kind"] == "training_step"
        phases = prediction["phases"]
        # total is defined as the float sum of the two phases — exactly.
        assert prediction["t_seconds"] == (
            phases["forward"] + phases["backward_plus_update"]
        )
        assert prediction["throughput"] == (
            16 * 8 / prediction["t_seconds"]
        )

    def test_scaling_query(self, server):
        status, body = _post(server, {
            "model": "step", "network": "alexnet", "image": 64,
            "batch": 16, "node_counts": [1, 2, 4], "gpus_per_node": 4,
        })
        assert status == 200
        prediction = body["prediction"]
        assert prediction["kind"] == "scaling"
        assert [p["nodes"] for p in prediction["points"]] == [1, 2, 4]
        assert [p["devices"] for p in prediction["points"]] == [4, 8, 16]
        for point in prediction["points"]:
            assert point["step_seconds"] > 0
            assert point["throughput"] > 0

    def test_scaling_and_plain_mix_in_one_batch(self, server):
        status, body = _post(server, {"model": "step", "queries": [
            {"network": "alexnet", "image": 64, "batch": 16,
             "node_counts": [1, 2]},
            {"network": "alexnet", "image": 64, "batch": 16},
        ]})
        assert status == 200
        kinds = [p["kind"] for p in body["predictions"]]
        assert kinds == ["scaling", "training_step"]

    def test_fuse_query_changes_the_prediction(self, server):
        _, plain = _post(server, {"network": "resnet18", "batch": 8})
        _, fused = _post(server, {"network": "resnet18", "batch": 8,
                                  "fuse": True})
        assert fused["prediction"]["fuse"] is True
        assert (
            fused["prediction"]["t_seconds"]
            != plain["prediction"]["t_seconds"]
        )

    def test_server_level_fuse_default(self, registry_dir, server):
        fused_server, thread = _boot(ModelRegistry(registry_dir), fuse=True)
        try:
            _, via_flag = _post(
                fused_server, {"network": "resnet18", "batch": 8}
            )
            _, via_query = _post(server, {"network": "resnet18",
                                          "batch": 8, "fuse": True})
            assert via_flag["prediction"] == via_query["prediction"]
            # A per-query fuse=false overrides the server default.
            _, opted_out = _post(
                fused_server,
                {"network": "resnet18", "batch": 8, "fuse": False},
            )
            assert opted_out["prediction"]["fuse"] is False
        finally:
            _shutdown(fused_server, thread)

    def test_memory_note_on_oversubscribed_device(self, server):
        status, body = _post(server, {
            "network": "vgg11", "image": 224, "batch": 1024,
            "device": "jetson-agx-orin",
        })
        assert status == 200
        assert any(
            "jetson-agx-orin memory" in w
            for w in body["prediction"]["warnings"]
        )
        # The same configuration fits an A100; no note.
        _, roomy = _post(server, {
            "network": "vgg11", "image": 224, "batch": 256,
            "device": "a100-80gb",
        })
        assert not any(
            "memory" in w for w in roomy["prediction"]["warnings"]
        )


# -- equivalence gates -------------------------------------------------------


EQUIVALENCE_GRID = [
    (network, image, batch)
    for network in ("alexnet", "resnet50", "vgg11")
    for image in (64, 224)
    for batch in (1, 32)
]


class TestEquivalence:
    def test_batched_equals_sequential_forward(self, server):
        queries = [
            {"network": n, "image": i, "batch": b}
            for n, i, b in EQUIVALENCE_GRID
        ]
        _, batched = _post(server, {"model": "default",
                                    "queries": queries})
        for query, prediction in zip(queries, batched["predictions"]):
            _, single = _post(server, {"model": "default", **query})
            # Exact dict equality: every float (t_seconds, throughput)
            # must match bit for bit, not approximately.
            assert single["prediction"] == prediction

    def test_batched_equals_sequential_step(self, server):
        queries = [
            {"network": n, "image": i, "batch": b,
             "nodes": nodes, "devices": nodes * 4}
            for (n, i, b), nodes in zip(
                EQUIVALENCE_GRID, (1, 2, 4, 1, 2, 4, 1, 2, 4, 1, 2, 4)
            )
        ]
        _, batched = _post(server, {"model": "step", "queries": queries})
        assert batched["count"] == len(queries)
        for query, prediction in zip(queries, batched["predictions"]):
            _, single = _post(server, {"model": "step", **query})
            assert single["prediction"] == prediction

    def test_forward_matches_predict_cli(self, server, registry_dir,
                                         capsys):
        _, body = _post(server, {"model": "default", "network": "alexnet",
                                 "image": 128, "batch": 8})
        t = body["prediction"]["t_seconds"]
        rc = cli_main([
            "predict", "--model", str(registry_dir / "default.json"),
            "--network", "alexnet", "--image", "128", "--batch", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"predicted inference: {t * 1e3:.3f} ms" in out

    def test_step_matches_predict_cli(self, server, registry_dir, capsys):
        _, body = _post(server, {"model": "step", "network": "resnet50",
                                 "image": 64, "batch": 16,
                                 "nodes": 2, "devices": 8})
        prediction = body["prediction"]
        rc = cli_main([
            "predict", "--model", str(registry_dir / "step.json"),
            "--network", "resnet50", "--image", "64", "--batch", "16",
            "--nodes", "2", "--devices", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert (
            f"predicted training step: "
            f"{prediction['t_seconds'] * 1e3:.2f} ms "
            f"(fwd {prediction['phases']['forward'] * 1e3:.2f} ms, "
            f"bwd+update "
            f"{prediction['phases']['backward_plus_update'] * 1e3:.2f} ms)"
        ) in out

    def test_fused_forward_matches_cli_fuse(self, server, registry_dir,
                                            capsys):
        _, body = _post(server, {"model": "default", "network": "resnet18",
                                 "batch": 8, "fuse": True})
        t = body["prediction"]["t_seconds"]
        rc = cli_main([
            "predict", "--model", str(registry_dir / "default.json"),
            "--network", "resnet18", "--batch", "8", "--fuse",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"predicted inference: {t * 1e3:.3f} ms" in out


# -- FIT004 extrapolation warnings -------------------------------------------


class TestExtrapolationWarnings:
    def test_fit004_on_out_of_domain_batch(self, server):
        # The fitted feature ranges top out at vgg11@224 with batch 256;
        # alexnet at batch 65536 pushes b*flops more than 10x past them.
        status, body = _post(server, {"network": "alexnet", "image": 224,
                                      "batch": 65536})
        assert status == 200
        warnings = body["prediction"]["warnings"]
        assert warnings
        assert all("[FIT004]" in w for w in warnings)

    def test_request_domain_factor_overrides(self, server):
        _, body = _post(server, {"network": "alexnet", "image": 224,
                                 "batch": 65536, "domain_factor": 1e9})
        assert body["prediction"]["warnings"] == []

    def test_scaling_response_carries_fit004(self, server):
        # Multi-node scaling from a fit that only saw nodes <= 4.
        _, body = _post(server, {
            "model": "step", "network": "alexnet", "image": 64,
            "batch": 16, "node_counts": [1, 512], "gpus_per_node": 4,
        })
        assert any(
            "[FIT004]" in w for w in body["prediction"]["warnings"]
        )

    def test_warning_counter_increments(self, server):
        _, before = _get(server, "/metrics")
        _post(server, {"network": "alexnet", "image": 224,
                       "batch": 65536})
        _, after = _get(server, "/metrics")
        assert (
            after["counters"]["prediction_warnings_total"]
            > before["counters"].get("prediction_warnings_total", 0.0)
        )


# -- error taxonomy ----------------------------------------------------------


class TestErrors:
    def test_malformed_json_400(self, server):
        status, body = _request(server, "POST", "/predict",
                                raw=b"{not json")
        assert status == 400
        assert "not JSON" in body["error"]

    def test_unknown_request_field_400(self, server):
        status, body = _post(server, {"network": "alexnet",
                                      "bacth": 8})
        assert status == 400
        assert "bacth" in body["error"]

    def test_missing_network_400(self, server):
        status, body = _post(server, {"batch": 8})
        assert status == 400
        assert "network" in body["error"]

    def test_non_positive_batch_400(self, server):
        status, body = _post(server, {"network": "alexnet", "batch": 0})
        assert status == 400
        assert "batch" in body["error"]

    def test_empty_queries_400(self, server):
        status, body = _post(server, {"queries": []})
        assert status == 400
        assert "queries" in body["error"]

    def test_unknown_model_404(self, server):
        status, body = _post(server, {"model": "nope",
                                      "network": "alexnet"})
        assert status == 404
        assert "nope" in body["error"]

    def test_unknown_network_404(self, server):
        status, body = _post(server, {"network": "resnet1817"})
        assert status == 404
        assert "resnet1817" in body["error"]

    def test_unknown_device_404(self, server):
        status, body = _post(server, {"network": "alexnet",
                                      "device": "tpu-v9"})
        assert status == 404
        assert "tpu-v9" in body["error"]

    def test_v1_artifact_409(self, server):
        status, body = _post(server, {"model": "legacy",
                                      "network": "alexnet"})
        assert status == 409
        assert "v1 model document" in body["error"]
        assert "repro fit" in body["error"]

    def test_non_servable_kind_400(self, server):
        status, body = _post(server, {"model": "gradupd",
                                      "network": "alexnet"})
        assert status == 400
        assert "servable" in body["error"]

    def test_scaling_against_forward_artifact_400(self, server):
        status, body = _post(server, {"model": "default",
                                      "network": "alexnet",
                                      "node_counts": [1, 2]})
        assert status == 400
        assert "scaling" in body["error"]

    def test_get_predict_405(self, server):
        status, body = _get(server, "/predict")
        assert status == 405
        assert "POST" in body["error"]

    def test_post_healthz_405(self, server):
        status, _ = _request(server, "POST", "/healthz", body={})
        assert status == 405

    def test_unknown_path_404(self, server):
        status, _ = _get(server, "/nope")
        assert status == 404

    def test_missing_content_length_411(self, server):
        host, port = server.server_address[:2]
        conn = HTTPConnection(host, port)
        try:
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            assert conn.getresponse().status == 411
        finally:
            conn.close()

    def test_oversized_body_413(self, server):
        host, port = server.server_address[:2]
        conn = HTTPConnection(host, port)
        try:
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Length", str(65 * 1024 * 1024))
            conn.endheaders()
            assert conn.getresponse().status == 413
        finally:
            conn.close()


# -- observability -----------------------------------------------------------


class TestObservability:
    def test_healthz_shape(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["protocol"] == 1
        assert set(body["models"]) == {"default", "gradupd", "step"}
        default = body["models"]["default"]
        assert default["kind"] == "forward"
        assert default["format"] == 2
        assert default["servable"] is True
        assert set(default["audit"]) == {"errors", "warnings"}
        assert body["models"]["gradupd"]["servable"] is False
        assert "v1 model document" in body["failed"]["legacy"]

    def test_metrics_json_shape(self, server):
        _post(server, {"network": "alexnet", "batch": 1})
        status, body = _get(server, "/metrics")
        assert status == 200
        counters = body["counters"]
        for name in ("http_requests_total", "http_200_total",
                     "predict_requests_total", "predictions_total"):
            assert counters[name] > 0
        cache = body["feature_cache"]
        assert set(cache) >= {"hits", "misses", "evictions", "lookups",
                              "hit_rate", "size"}
        assert cache["lookups"] == cache["hits"] + cache["misses"]
        assert body["registry"]["reloads"] >= 0

    def test_metrics_prometheus_text(self, server):
        _post(server, {"network": "alexnet", "batch": 1})
        status, text = _get(server, "/metrics",
                            headers={"Accept": "text/plain"})
        assert status == 200
        assert "# TYPE repro_predictions_total counter" in text
        assert "repro_feature_cache_lookups" in text
        assert "repro_registry_reloads" in text

    def test_one_counter_lock_acquisition_per_predict(self, server,
                                                      monkeypatch):
        lock = server._counter_lock
        entered = []

        class Counted:
            def __enter__(self):
                entered.append(1)
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        monkeypatch.setattr(server, "_counter_lock", Counted())
        # The handler counts before its response is flushed.
        assert _post(server, {"network": "alexnet", "batch": 1})[0] == 200
        assert _post(server, {"network": "no-such-net"})[0] == 404
        assert len(entered) == 2

    def test_counters_monotonic_and_exact(self, server):
        _, before = _get(server, "/metrics")
        for _ in range(3):
            _post(server, {"network": "alexnet", "batch": 1})
        _post(server, {"queries": [{"network": "alexnet", "batch": 1},
                                   {"network": "vgg11", "batch": 8}]})
        _, after = _get(server, "/metrics")
        deltas = {
            name: after["counters"][name] - before["counters"].get(name, 0.0)
            for name in ("predict_requests_total", "predictions_total")
        }
        assert deltas == {"predict_requests_total": 4.0,
                          "predictions_total": 5.0}
        for name, value in before["counters"].items():
            assert after["counters"][name] >= value


# -- concurrency -------------------------------------------------------------


class TestConcurrency:
    THREADS = 8
    ROUNDS = 10

    def test_concurrent_clients_get_exact_answers(self, server):
        queries = [
            {"network": network, "image": image, "batch": batch}
            for network, image, batch in [
                ("alexnet", 64, 1), ("alexnet", 224, 32),
                ("resnet18", 128, 8), ("resnet50", 224, 64),
                ("mobilenet_v2", 64, 16), ("vgg11", 128, 4),
                ("resnet18", 64, 256), ("resnet50", 64, 2),
            ]
        ]
        expected = [_post(server, query) for query in queries]
        _, before = _get(server, "/metrics")

        results: list[list] = [[] for _ in range(self.THREADS)]
        errors: list[BaseException] = []

        def worker(k: int) -> None:
            try:
                for _ in range(self.ROUNDS):
                    results[k].append(_post(server, queries[k]))
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        for k in range(self.THREADS):
            assert len(results[k]) == self.ROUNDS
            for status, body in results[k]:
                # Torn or cross-wired responses would break exact
                # equality with the sequentially-obtained answer.
                assert (status, body) == expected[k]

        _, after = _get(server, "/metrics")
        total = self.THREADS * self.ROUNDS
        assert (
            after["counters"]["predictions_total"]
            - before["counters"]["predictions_total"]
        ) == float(total)
        assert (
            after["counters"]["predict_requests_total"]
            - before["counters"]["predict_requests_total"]
        ) == float(total)
        # The sequential pass warmed every (network, image, transform)
        # key, so the repeated mix is served from the feature cache.
        assert (
            after["feature_cache"]["hits"] - before["feature_cache"]["hits"]
        ) == float(total)
        assert (
            after["feature_cache"]["misses"]
            - before["feature_cache"]["misses"]
        ) == 0.0


# -- hot reload --------------------------------------------------------------


class TestHotReload:
    def test_replaced_artifact_changes_answers(self, tmp_path,
                                               registry_dir):
        root = tmp_path / "reg"
        root.mkdir()
        shutil.copy(registry_dir / "default.json", root / "default.json")
        server, thread = _boot(ModelRegistry(root))
        try:
            _, before = _post(server, {"network": "resnet18", "batch": 8})
            t_before = before["prediction"]["t_seconds"]

            # Replace the artifact with one whose coefficients are exactly
            # doubled; bump mtime past filesystem timestamp granularity.
            path = root / "default.json"
            doc = json.loads(path.read_text())
            doc["linear"]["coef"] = [2 * c for c in doc["linear"]["coef"]]
            path.write_text(json.dumps(doc))
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 1_000_000_000))

            _, after = _post(server, {"network": "resnet18", "batch": 8})
            # Doubling every coefficient doubles the prediction exactly
            # (scaling by 2 is lossless in binary floating point).
            assert after["prediction"]["t_seconds"] == 2 * t_before

            _, metrics = _get(server, "/metrics")
            assert metrics["registry"]["reloads"] == 1
            _, health = _get(server, "/healthz")
            assert health["models"]["default"]["reloads"] == 1
        finally:
            _shutdown(server, thread)

    def test_corrupted_artifact_turns_409_then_recovers(self, tmp_path,
                                                        registry_dir):
        root = tmp_path / "reg"
        root.mkdir()
        good = (registry_dir / "default.json").read_text()
        path = root / "default.json"
        path.write_text(good)
        server, thread = _boot(ModelRegistry(root))
        try:
            status, _ = _post(server, {"network": "alexnet", "batch": 1})
            assert status == 200

            path.write_text("{broken")
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 1_000_000_000))
            status, body = _post(server, {"network": "alexnet",
                                          "batch": 1})
            assert status == 409
            assert "not JSON" in body["error"]

            path.write_text(good)
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 2_000_000_000))
            status, _ = _post(server, {"network": "alexnet", "batch": 1})
            assert status == 200
        finally:
            _shutdown(server, thread)

    def test_wrong_shape_rewrite_turns_409_then_recovers(self, tmp_path,
                                                        registry_dir):
        root = tmp_path / "reg"
        root.mkdir()
        good = (registry_dir / "default.json").read_text()
        path = root / "default.json"
        path.write_text(good)
        server, thread = _boot(ModelRegistry(root))
        try:
            status, _ = _post(server, {"network": "alexnet", "batch": 1})
            assert status == 200

            path.write_text(json.dumps([3]))
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 1_000_000_000))
            status, body = _post(server, {"network": "alexnet",
                                          "batch": 1})
            assert status == 409
            assert "not an object" in body["error"]
            server.registry.refresh()  # a rescan isolates it, too
            assert "default" in server.registry.snapshot().failed

            path.write_text(good)
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 2_000_000_000))
            status, _ = _post(server, {"network": "alexnet", "batch": 1})
            assert status == 200
        finally:
            _shutdown(server, thread)


# -- golden response ---------------------------------------------------------


GOLDEN_QUERIES = [
    {"network": network, "image": image, "batch": batch}
    for network in ("alexnet", "resnet18", "resnet50")
    for image in (64, 224)
    for batch in (1, 8, 64)
] + [
    {"network": "resnet18", "image": 224, "batch": 8, "fuse": True},
    {"network": "vgg11", "image": 224, "batch": 256,
     "device": "jetson-agx-orin"},
]


def _golden_response() -> dict:
    """The full /predict response for the pinned grid against the pinned
    ``model_v2_golden.json`` artifact — a pure function of both."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copy(DATA_DIR / "model_v2_golden.json",
                    root / "default.json")
        server, thread = _boot(ModelRegistry(root))
        try:
            status, body = _post(server, {"model": "default",
                                          "queries": GOLDEN_QUERIES})
            assert status == 200
            return body
        finally:
            _shutdown(server, thread)


class TestGoldenResponse:
    def test_served_grid_matches_snapshot(self):
        golden = json.loads(SERVE_GOLDEN_PATH.read_text())
        assert _golden_response() == golden, (
            "served predictions moved against the pinned artifact — this "
            "changes every number the service reports; regenerate "
            "tests/data/serve_golden.json only for an intentional "
            "protocol or regression change"
        )


# -- learned artifacts -------------------------------------------------------


@pytest.fixture(scope="module")
def learned_registry_dir(
    tmp_path_factory, suite_inference_data, suite_training_data
):
    """A registry holding one artifact of every learned kind."""
    from repro.baselines import PerfSeer, PreNeT, ResPerfNet
    from tests.conftest import SUITE_MLP_KWARGS

    root = tmp_path_factory.mktemp("learned-registry")
    res = ResPerfNet("fwd", seed=7, **SUITE_MLP_KWARGS)
    res.fit(suite_inference_data)
    save_model(res, root / "default.json")
    seer = PerfSeer("fwd", seed=7)
    seer.fit(suite_inference_data)
    save_model(seer, root / "seer.json")
    pre = PreNeT("total", seed=7, **SUITE_MLP_KWARGS)
    pre.fit(suite_training_data)
    save_model(pre, root / "prenet-step.json")
    return root


@pytest.fixture(scope="module")
def learned_server(learned_registry_dir):
    server, thread = _boot(ModelRegistry(learned_registry_dir))
    yield server
    _shutdown(server, thread)


class TestLearnedArtifacts:
    """Nonlinear predictor artifacts served through the same protocol."""

    def test_registry_loads_every_learned_kind(self, learned_registry_dir):
        registry = ModelRegistry(learned_registry_dir)
        kinds = {
            name: registry.get(name).kind for name in registry.names()
        }
        assert kinds == {
            "default": "resperfnet",
            "seer": "perfseer",
            "prenet-step": "prenet",
        }
        for name in registry.names():
            assert registry.get(name).describe()["servable"], name

    def test_each_kind_answers_predict(self, learned_server):
        for model in ("default", "seer", "prenet-step"):
            status, body = _post(
                learned_server,
                {"model": model, "network": "resnet18",
                 "image": 128, "batch": 8},
            )
            assert status == 200, (model, body)
            pred = body["prediction"]
            assert pred["t_seconds"] > 0, (model, pred)
            assert pred["throughput"] > 0
            assert pred["target"] in ("fwd", "total")

    def test_batched_equals_single(self, learned_server):
        queries = [
            {"network": "resnet18", "image": 128, "batch": 8},
            {"network": "alexnet", "image": 64, "batch": 1},
        ]
        _, batched = _post(
            learned_server, {"model": "default", "queries": queries}
        )
        singles = [
            _post(learned_server, {"model": "default", **q})[1]
            for q in queries
        ]
        for got, single in zip(batched["predictions"], singles):
            assert got["t_seconds"] == single["prediction"]["t_seconds"]

    def test_extrapolated_query_carries_fit004_warning(
        self, learned_server
    ):
        status, body = _post(
            learned_server,
            {"model": "default", "network": "resnet50",
             "image": 512, "batch": 4096},
        )
        assert status == 200
        warnings = body["prediction"]["warnings"]
        assert any("FIT004" in w for w in warnings), warnings

    def test_in_domain_query_is_warning_free(self, learned_server):
        status, body = _post(
            learned_server,
            {"model": "default", "network": "resnet18",
             "image": 128, "batch": 8},
        )
        assert status == 200
        assert body["prediction"]["warnings"] == []

    def test_scaling_query_rejected_for_learned_artifact(
        self, learned_server
    ):
        status, body = _post(
            learned_server,
            {"model": "default", "network": "resnet18",
             "node_counts": [1, 2, 4]},
        )
        assert status == 400
        assert "scaling" in body["error"]

    def test_v1_document_refused_alongside_learned(
        self, learned_registry_dir, tmp_path
    ):
        root = tmp_path / "mixed"
        shutil.copytree(learned_registry_dir, root)
        shutil.copy(DATA_DIR / "model_v1.json", root / "legacy.json")
        registry = ModelRegistry(root)
        with pytest.raises(RegistryError, match="v1 model document"):
            registry.get("legacy")

    def test_tampered_learned_artifact_still_loads_with_audit_flag(
        self, learned_registry_dir, tmp_path
    ):
        """Serving trusts the embedded audit block; a tampered artifact
        reports its audit errors through /healthz rather than refusing
        outright (the offline `repro audit` gate is the enforcement)."""
        root = tmp_path / "tampered"
        root.mkdir()
        doc = json.loads(
            (learned_registry_dir / "default.json").read_text()
        )
        doc["audit"] = {"errors": 1, "warnings": 0, "diagnostics": []}
        (root / "default.json").write_text(json.dumps(doc))
        registry = ModelRegistry(root)
        entry = registry.get("default")
        assert entry.audit_errors == 1


# -- FIT004 screen -------------------------------------------------------------


def _screen_matches_per_query(model, kind, queries, factor):
    """Answer ``queries`` in one batched request and assert each query's
    warnings equal the per-query :func:`prediction_warnings` list.

    Returns the per-query warning lists so callers can pin which rows the
    case was built to flag.
    """
    entry = ArtifactEntry(name="m", path=Path("m.json"), kind=kind,
                          format=2, model=model)
    request = PredictRequest(
        model=None, queries=tuple(PredictQuery(**q) for q in queries),
        batched=True,
    )
    cache = FeatureCache()
    body = answer_request(request, entry, cache,
                          default_domain_factor=factor)
    served = [p["warnings"] for p in body["predictions"]]
    expected = []
    for query in request.queries:
        _, features = cache.lookup(query.network, query.image, "")
        expected.append(prediction_warnings(
            model, features, query.batch, devices=query.devices,
            nodes=query.nodes, factor=factor,
        ))
    assert served == expected
    return served


#: Inside, near and far past the small fits' domains.
SCREEN_QUERIES = [
    {"network": n, "image": i, "batch": b}
    for n in ("alexnet", "resnet50", "mobilenet_v2")
    for i in (64, 224)
    for b in (1, 64, 65536)
]


class TestFit004Screen:
    FACTOR = 8.0
    QUERY = {"network": "resnet18", "image": 128, "batch": 16}

    @pytest.fixture(scope="class")
    def forward(self, small_inference_data):
        return ForwardModel().fit(small_inference_data)

    @pytest.mark.parametrize("factor", [10.0, 2.0, None])
    def test_forward_artifact(self, forward, factor):
        served = _screen_matches_per_query(forward, "forward",
                                           SCREEN_QUERIES, factor)
        if factor is None:
            assert not any(served)
        else:
            assert any(served) and not all(served)

    @pytest.mark.parametrize("factor", [10.0, None])
    def test_step_artifact_single_and_multi_node(
        self, small_distributed_data, factor
    ):
        step = TrainingStepModel().fit(small_distributed_data)
        queries = [
            {**q, "nodes": nodes, "devices": 4 * nodes}
            for q in SCREEN_QUERIES for nodes in (1, 2, 64)
        ]
        served = _screen_matches_per_query(step, "training_step", queries,
                                           factor)
        assert any(served) == (factor is not None)

    def test_step_artifact_with_unfitted_multi_half(
        self, small_training_data
    ):
        step = TrainingStepModel().fit(small_training_data)
        assert not step.bwd_grad.multi.is_fitted
        assert any(_screen_matches_per_query(step, "training_step",
                                             SCREEN_QUERIES, 10.0))

    def test_step_artifact_with_unfitted_single_half(
        self, small_distributed_data
    ):
        multi_only = [r for r in small_distributed_data if r.nodes > 1]
        step = TrainingStepModel().fit(multi_only)
        assert not step.bwd_grad.single.is_fitted
        queries = [{**q, "nodes": 2, "devices": 8} for q in SCREEN_QUERIES]
        assert any(_screen_matches_per_query(step, "training_step",
                                             queries, 10.0))

    @pytest.mark.parametrize("bound, flagged", [
        # v == factor * hi: on the upper edge, inside the band.
        (lambda v: (0.0, v / 8.0), False),
        # v one ulp above factor * hi.
        (lambda v: (0.0, np.nextafter(v, -np.inf) / 8.0), True),
        # v == lo / factor: on the lower edge, inside the band.
        (lambda v: (v * 8.0, v * 8.0), False),
        # v one ulp below lo / factor.
        (lambda v: (np.nextafter(v, np.inf) * 8.0, v * 8.0), True),
        # lo <= 0: no lower bound, however far below the range v lies.
        (lambda v: (0.0, v * 8.0e6), False),
        (lambda v: (-1.0, v * 8.0e6), False),
    ], ids=["at-upper", "ulp-over", "at-lower", "ulp-under", "lo-zero",
            "lo-negative"])
    def test_rows_on_the_band_edges(self, forward, bound, flagged):
        # Fitted ranges that put the query's row exactly on (or one ulp
        # past) a band edge; at factor 8 scaling by the factor is exact.
        features = FeatureCache().lookup("resnet18", 128, "")[1]
        pinned = copy.deepcopy(forward)
        pinned.model.feature_ranges = tuple(
            bound(float(v))
            for v in forward_row(features, 16, forward.metric_names)
        )
        served = _screen_matches_per_query(
            pinned, "forward", [self.QUERY] + SCREEN_QUERIES, self.FACTOR
        )
        assert bool(served[0]) == flagged

    @pytest.mark.parametrize("half, nodes", [("single", 1), ("multi", 2)])
    def test_backward_half_flags_on_its_own(self, small_distributed_data,
                                            half, nodes):
        step = TrainingStepModel().fit(small_distributed_data)
        features = FeatureCache().lookup("resnet18", 128, "")[1]
        row = (
            step.bwd_grad._single_row(features, 16) if half == "single"
            else combined_bwd_grad_row(features, 16, 4 * nodes)
        )
        getattr(step.bwd_grad, half).feature_ranges = tuple(
            (0.0, np.nextafter(float(v), -np.inf) / 8.0) for v in row
        )
        query = {**self.QUERY, "nodes": nodes, "devices": 4 * nodes}
        (served,) = _screen_matches_per_query(
            step, "training_step", [query], self.FACTOR
        )
        assert served
        assert all(f"query.{half}:" in w for w in served)

    def test_mask_equals_per_row_violations(self):
        ranges = ((1.0, 10.0), (0.0, 5.0), (-2.0, 3.0), (4.0, 4.0))
        labels = ("a", "b", "c", "d")
        factor = 8.0
        rng = np.random.default_rng(5)
        edges = np.array([
            [1.0 / 8.0, 40.0, -100.0, 0.5],
            [np.nextafter(1.0 / 8.0, -np.inf), 40.0, 24.0, 32.0],
            [80.0, np.nextafter(40.0, np.inf), 0.0, 0.5],
            [np.nextafter(80.0, np.inf), -1e9, np.nextafter(24.0, np.inf),
             np.nextafter(0.5, -np.inf)],
        ])
        X = np.vstack([edges, rng.uniform(-50.0, 120.0, size=(64, 4))])
        mask = LinearModel(feature_ranges=ranges).out_of_domain(X, factor)
        expected = [
            bool(range_violations(X[i], ranges, labels, factor))
            for i in range(len(X))
        ]
        assert mask.tolist() == expected
        assert mask[:4].tolist() == [False, True, True, True]


# -- transport ---------------------------------------------------------------


def _exchange(server, data, timeout=5.0):
    """Send raw bytes on a fresh connection and read until the server
    closes it (a reset after the response counts as a close)."""
    sock = socket.create_connection(server.server_address[:2],
                                    timeout=timeout)
    try:
        sock.sendall(data)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        sock.close()


def _http(method, path, body=b"", headers=()):
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    lines += [f"{k}: {v}" for k, v in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _post_close(body):
    data = json.dumps(body).encode()
    return _http("POST", "/predict", data, [
        ("Content-Type", "application/json"),
        ("Content-Length", len(data)), ("Connection", "close"),
    ])


@pytest.fixture
def server_sends(monkeypatch, server):
    """Every socket send the server makes, in order, as bytes."""
    port = server.server_address[1]
    sent: list[bytes] = []
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def counted(sock, data, *args, _original=original):
            if sock.getsockname()[1] == port:
                sent.append(bytes(data))
            return _original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, counted)
    return sent


def _counters(server):
    return dict(server.metrics()["counters"])


def _deltas(before, after):
    return {
        name: after.get(name, 0.0) - before.get(name, 0.0)
        for name in set(before) | set(after)
        if after.get(name, 0.0) != before.get(name, 0.0)
    }


class TestTransport:
    @pytest.mark.parametrize("data, status", [
        (_post_close({"network": "alexnet", "batch": 1}), 200),
        (_post_close({"queries": [{"network": "alexnet", "batch": 1},
                                  {"network": "vgg11", "batch": 65536}]}),
         200),
        (_post_close({"network": "no-such-net"}), 404),
        (_http("GET", "/healthz", headers=[("Connection", "close")]), 200),
        (_http("GET", "/metrics", headers=[("Connection", "close")]), 200),
        (_http("GET", "/metrics", headers=[("Connection", "close"),
                                           ("Accept", "text/plain")]), 200),
        # http.server's own send_error paths: a malformed request line
        # and a method without a do_* handler.
        (b"GET /predict extra HTTP/1.1\r\n\r\n", 400),
        (_http("PUT", "/predict"), 501),
    ], ids=["predict", "predict-batched", "predict-404", "healthz",
            "metrics-json", "metrics-prometheus", "send-error-400",
            "send-error-501"])
    def test_each_response_leaves_in_one_send(self, server, server_sends,
                                              data, status):
        response = _exchange(server, data)
        assert response.startswith(f"HTTP/1.1 {status} ".encode())
        assert server_sends == [response]

    def test_expect_100_continue_is_not_buffered(self, server,
                                                 server_sends):
        body = json.dumps({"network": "alexnet", "batch": 1}).encode()
        head = _http("POST", "/predict", headers=[
            ("Content-Length", len(body)), ("Expect", "100-continue"),
            ("Connection", "close"),
        ])
        sock = socket.create_connection(server.server_address[:2],
                                        timeout=5.0)
        try:
            sock.sendall(head)
            interim = sock.recv(65536)
            assert interim.startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(body)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        finally:
            sock.close()
        assert b"".join(chunks).startswith(b"HTTP/1.1 200 ")
        assert len(server_sends) == 2


class TestKeepAliveHygiene:
    SMUGGLED = _http("GET", "/healthz")

    @pytest.mark.parametrize("head, status", [
        (_http("POST", "/predict",
               headers=[("Content-Length", MAX_BODY_BYTES + 1)]), 413),
        (_http("POST", "/predict",
               headers=[("Transfer-Encoding", "chunked")]), 411),
        (_http("POST", "/healthz",
               headers=[("Content-Length", len(SMUGGLED))]), 405),
    ], ids=["oversized", "chunked", "post-elsewhere"])
    def test_unread_body_is_never_parsed_as_a_request(self, server, head,
                                                      status):
        before = _counters(server)
        response = _exchange(server, head + self.SMUGGLED)
        assert response.count(b"HTTP/1.1 ") == 1
        assert response.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"\r\nConnection: close\r\n" in response
        expected = {"http_requests_total": 1.0, "errors_total": 1.0,
                    f"http_{status}_total": 1.0}
        if status != 405:
            expected["predict_requests_total"] = 1.0
        assert _deltas(before, _counters(server)) == expected

    def test_consumed_body_keeps_the_connection(self, server):
        host, port = server.server_address[:2]
        conn = HTTPConnection(host, port)
        try:
            for raw in (b"{not json", json.dumps({"network": "alexnet"})):
                conn.request("POST", "/predict", body=raw)
                response = conn.getresponse()
                response.read()
                assert response.getheader("Connection") is None
        finally:
            conn.close()


@pytest.fixture
def stall_server(monkeypatch, registry_dir):
    """A server with a short connection deadline that records every
    error its loop would report through ``handle_error``."""
    monkeypatch.setattr(PredictionServer, "timeout", 0.2)
    server, thread = _boot(ModelRegistry(registry_dir))
    leaked: list[BaseException] = []
    server.handle_error = lambda request, address: leaked.append(
        sys.exc_info()[1]
    )
    yield server, leaked
    _shutdown(server, thread)


class TestStalledClients:
    BODY = json.dumps({"network": "alexnet", "batch": 1}).encode()

    def test_handler_times_out_by_default(self):
        assert PredictionServer.timeout == REQUEST_TIMEOUT_S
        assert 0 < REQUEST_TIMEOUT_S < float("inf")

    @pytest.mark.parametrize("data, status", [
        (b"POST /pred", None),
        (b"POST /predict HTTP/1.1\r\nHost: test\r\nContent-Le", None),
        (_http("POST", "/predict", BODY[:10],
               [("Content-Length", len(BODY))]), 408),
    ], ids=["partial-request-line", "partial-headers", "partial-body"])
    def test_stalled_client_is_dropped(self, stall_server, data, status):
        server, leaked = stall_server
        before = _counters(server)
        response = _exchange(server, data)
        expected = {}
        if status is None:
            assert response == b""
        else:
            assert response.count(b"HTTP/1.1 ") == 1
            assert response.startswith(f"HTTP/1.1 {status} ".encode())
            assert b"\r\nConnection: close\r\n" in response
            expected = {"http_requests_total": 1.0,
                        "predict_requests_total": 1.0,
                        "errors_total": 1.0, f"http_{status}_total": 1.0}
        assert _deltas(before, _counters(server)) == expected
        assert leaked == []

    def test_idle_keep_alive_connection_is_closed(self, stall_server):
        server, leaked = stall_server
        response = _exchange(server, _http("POST", "/predict", self.BODY, [
            ("Content-Length", len(self.BODY)),
        ]))
        assert response.count(b"HTTP/1.1 ") == 1
        assert response.startswith(b"HTTP/1.1 200 ")
        assert leaked == []



# -- the selector loop -------------------------------------------------------


def _read_response(sock):
    """Read one ``Content-Length``-framed response off ``sock``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(next(
        line.split(b":", 1)[1] for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    ))
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    assert len(body) == length
    return head + b"\r\n\r\n" + body


def _undated(response):
    """``response`` without its ``Date`` header value, which ticks."""
    return b"\r\n".join(
        b"Date: -" if line.startswith(b"Date: ") else line
        for line in response.split(b"\r\n")
    )


class TestSelectorLoop:
    BODY = json.dumps({"network": "alexnet", "batch": 1}).encode()

    def test_stalled_head_does_not_delay_other_connections(self, server):
        stalled = socket.create_connection(server.server_address[:2],
                                           timeout=5.0)
        try:
            stalled.sendall(b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                            b"Content-Le")
            start = time.monotonic()
            status, _ = _post(server, {"network": "alexnet", "batch": 1})
            elapsed = time.monotonic() - start
        finally:
            stalled.close()
        assert status == 200
        assert elapsed < 0.5

    def test_pipelined_requests_are_answered_in_order(self, server):
        first = _http("POST", "/predict", self.BODY, [
            ("Content-Length", len(self.BODY)),
        ])
        other = json.dumps({"network": "vgg11", "batch": 8}).encode()
        second = _http("POST", "/predict", other, [
            ("Content-Length", len(other)), ("Connection", "close"),
        ])
        pipelined = _exchange(server, first + second)
        alone = [
            _exchange(server, _http("POST", "/predict", self.BODY, [
                ("Content-Length", len(self.BODY)), ("Connection", "close"),
            ])),
            _exchange(server, second),
        ]
        assert pipelined.count(b"HTTP/1.1 200 ") == 2
        cut = pipelined.index(b"HTTP/1.1 200 ", 1)
        assert _undated(pipelined[:cut]) == _undated(alone[0])
        assert _undated(pipelined[cut:]) == _undated(alone[1])

    def test_partial_send_arrives_whole_while_another_is_served(
        self, server, server_sends, monkeypatch
    ):
        accept = socket.socket.accept

        def small_send_buffer(sock):
            conn, address = accept(sock)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            return conn, address

        monkeypatch.setattr(socket.socket, "accept", small_send_buffer)
        queries = [{"network": "alexnet", "batch": 1 + i % 64}
                   for i in range(600)]
        body = json.dumps({"queries": queries}).encode()
        big = socket.socket()
        big.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        big.settimeout(10.0)
        try:
            big.connect(server.server_address[:2])
            big.sendall(_http("POST", "/predict", body, [
                ("Content-Length", len(body)), ("Connection", "close"),
            ]))
            # The big response now waits on the unread socket; the loop
            # still answers another connection.
            assert _post(server, {"network": "alexnet", "batch": 1})[0] == 200
            response = _read_response(big)
        finally:
            big.close()
        assert response.startswith(b"HTTP/1.1 200 ")
        answer = json.loads(response.partition(b"\r\n\r\n")[2])
        assert answer["count"] == len(queries)
        # The first send offered the whole response; the socket took it
        # in parts, each later send offering the rest.
        sends = [s for s in server_sends if response.endswith(s)]
        assert sends[0] == response and len(sends) > 1

    def test_keep_alive_connections_start_no_threads(self, server):
        before = threading.active_count()
        host, port = server.server_address[:2]
        conns = [HTTPConnection(host, port, timeout=5.0) for _ in range(32)]
        try:
            for conn in conns:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            assert threading.active_count() == before
        finally:
            for conn in conns:
                conn.close()

    def test_shutdown_with_idle_connections_then_close(self, registry_dir):
        server, thread = _boot(ModelRegistry(registry_dir))
        host, port = server.server_address[:2]
        conns = [HTTPConnection(host, port, timeout=5.0) for _ in range(3)]
        try:
            for conn in conns:
                conn.request("POST", "/predict", body=self.BODY)
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            start = time.monotonic()
            server.shutdown()
            assert time.monotonic() - start < 1.0
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            server.server_close()
            for conn in conns:
                assert conn.sock.recv(1) == b""
        finally:
            for conn in conns:
                conn.close()


def test_connection_past_the_cap_is_refused(monkeypatch, registry_dir):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    server, thread = _boot(ModelRegistry(registry_dir))
    host, port = server.server_address[:2]
    kept = [HTTPConnection(host, port, timeout=5.0) for _ in range(2)]
    body = json.dumps({"network": "alexnet", "batch": 1}).encode()
    try:
        for conn in kept:
            conn.request("POST", "/predict", body=body)
            response = conn.getresponse()
            assert response.status == 200
            response.read()
        before = _counters(server)
        refused = socket.create_connection((host, port), timeout=5.0)
        try:
            chunks = []
            while chunk := refused.recv(65536):
                chunks.append(chunk)
        finally:
            refused.close()
        response = b"".join(chunks)
        assert response.startswith(b"HTTP/1.1 503 ")
        assert b"\r\nConnection: close\r\n" in response
        assert json.loads(response.partition(b"\r\n\r\n")[2])[
            "status"] == 503
        assert _deltas(before, _counters(server)) == {
            "http_503_total": 1.0, "errors_total": 1.0,
        }
        for conn in kept:  # the open connections are unaffected
            conn.request("POST", "/predict", body=body)
            response = conn.getresponse()
            assert response.status == 200
            response.read()
    finally:
        for conn in kept:
            conn.close()
        _shutdown(server, thread)


# -- request parsing ---------------------------------------------------------


def _raw(request_line, header_lines, body=b""):
    """A request from exact header lines (``bytes``, CRLF-terminated)."""
    return (request_line + b"\r\n" + b"".join(header_lines) + b"\r\n"
            + body)


#: Headers the server's routes read; the differential test compares
#: each of them (in three casings) with ``http.client.parse_headers``.
HANDLER_READS = ("Content-Length", "Transfer-Encoding", "Connection",
                 "Expect", "Accept")


class TestRequestParsing:
    SMUGGLED = _http("GET", "/healthz")
    BODY = json.dumps({"network": "alexnet", "batch": 1}).encode()

    @pytest.mark.parametrize("data, status", [
        (_raw(b"GET /healthz HTTP/1.1",
              [b"X-Big: " + b"a" * MAX_LINE_BYTES + b"\r\n"]), 431),
        (_raw(b"GET /healthz HTTP/1.1",
              [b"X-%d: v\r\n" % i for i in range(MAX_HEADER_LINES + 1)]),
         431),
        (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        (_raw(b"GET /healthz HTTP/1.1",
              [b"Accept: text/plain\r\n", b" text/html\r\n"]), 400),
        (_raw(b"GET /healthz HTTP/1.1", [b"Accept text/plain\r\n"]), 400),
        (_raw(b"GET /healthz HTTP/1.1", [b"Accept : text/plain\r\n"]), 400),
        (_raw(b"GET /healthz HTTP/1.1", [b"Accept: a\rHost: b\r\n"]), 400),
    ], ids=["long-line", "101st-header", "bad-version", "http-2",
            "obs-fold", "no-colon", "space-before-colon", "bare-cr"])
    def test_malformed_head_is_refused_and_closed(self, server, server_sends,
                                                  data, status):
        before = _counters(server)
        response = _exchange(server, data + self.SMUGGLED)
        assert response.startswith(f"HTTP/1.1 {status} ".encode())
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in response
        assert server_sends == [response]
        # http.server's send_error answers these; they count nothing.
        assert _deltas(before, _counters(server)) == {}

    @pytest.mark.parametrize("lengths, status", [
        ((0, len(SMUGGLED)), 400),
        ((len(BODY), len(BODY)), 200),
    ], ids=["conflicting", "identical"])
    def test_repeated_content_length(self, server, lengths, status):
        headers = [b"Content-Length: %d\r\n" % n for n in lengths]
        body = b""
        if status == 200:  # ends the exchange; a refusal must close alone
            headers.append(b"Connection: close\r\n")
            body = self.BODY
        data = _raw(b"POST /predict HTTP/1.1", headers, body)
        before = _counters(server)
        response = _exchange(server, data + self.SMUGGLED)
        assert response.startswith(f"HTTP/1.1 {status} ".encode())
        assert response.count(b"HTTP/1.1 ") == 1
        assert (b"\r\nConnection: close\r\n" in response) is (status == 400)
        expected = {} if status == 400 else {
            "http_requests_total": 1.0, "predict_requests_total": 1.0,
            "predictions_total": 1.0, "http_200_total": 1.0,
        }
        assert _deltas(before, _counters(server)) == expected

    def test_transfer_encoding_beside_content_length_is_411(self, server):
        # Honouring Content-Length: 0 would answer the empty body and then
        # parse the chunked body, a whole request, as the next one.
        data = _raw(b"POST /predict HTTP/1.1", [
            b"Transfer-Encoding: chunked\r\n", b"Content-Length: 0\r\n",
        ], b"%x\r\n" % len(self.SMUGGLED) + self.SMUGGLED + b"\r\n0\r\n\r\n")
        before = _counters(server)
        response = _exchange(server, data + self.SMUGGLED)
        assert response.startswith(b"HTTP/1.1 411 ")
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in response
        assert _deltas(before, _counters(server)) == {
            "http_requests_total": 1.0, "predict_requests_total": 1.0,
            "errors_total": 1.0, "http_411_total": 1.0,
        }

    @pytest.mark.parametrize("path, status", [
        ("/healthz", 200), ("/metrics", 200), ("/nowhere", 404),
    ])
    @pytest.mark.parametrize("framing", ["content-length", "chunked"])
    def test_get_with_a_body_is_answered_once_and_closed(
        self, server, path, status, framing
    ):
        # A GET body is never read: answered on an open connection, the
        # smuggled request in it would be answered next.
        inner = _http("GET", "/metrics")
        if framing == "chunked":
            header = b"Transfer-Encoding: chunked\r\n"
            body = b"%x\r\n" % len(inner) + inner + b"\r\n0\r\n\r\n"
        else:
            header = b"Content-Length: %d\r\n" % len(inner)
            body = inner
        data = _raw(b"GET %s HTTP/1.1" % path.encode(), [header], body)
        before = _counters(server)
        response = _exchange(server, data)
        assert response.startswith(f"HTTP/1.1 {status} ".encode())
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in response
        expected = {"http_requests_total": 1.0, f"http_{status}_total": 1.0}
        if status != 200:
            expected["errors_total"] = 1.0
        assert _deltas(before, _counters(server)) == expected

    def test_get_with_an_empty_body_keeps_the_connection(self, server):
        data = _raw(b"GET /healthz HTTP/1.1", [b"Content-Length: 0\r\n"])
        before = _counters(server)
        response = _exchange(server, data + _http(
            "GET", "/healthz", headers=[("Connection", "close")]
        ))
        assert response.count(b"HTTP/1.1 200 ") == 2
        assert b"\r\nConnection: close\r\n" not in response
        assert _deltas(before, _counters(server)) == {
            "http_requests_total": 2.0, "http_200_total": 2.0,
        }

    def test_header_names_are_case_insensitive(self, server):
        data = _raw(b"POST /predict HTTP/1.1", [
            b"cOnTeNt-LeNgTh: %d\r\n" % len(self.BODY),
            b"CONNECTION: Close\r\n",
        ], self.BODY)
        before = _counters(server)
        response = _exchange(server, data + self.SMUGGLED)
        assert response.startswith(b"HTTP/1.1 200 ")
        assert response.count(b"HTTP/1.1 ") == 1
        assert _deltas(before, _counters(server)) == {
            "http_requests_total": 1.0, "predict_requests_total": 1.0,
            "predictions_total": 1.0, "http_200_total": 1.0,
        }

    @pytest.mark.parametrize("headers, answers", [
        ([], 1),
        ([b"Connection: keep-alive\r\n"], 2),
    ], ids=["default-close", "keep-alive"])
    def test_http_1_0_closes_unless_kept_alive(self, server, headers,
                                               answers):
        first = _raw(b"GET /healthz HTTP/1.0", headers)
        before = _counters(server)
        response = _exchange(server, first + _raw(
            b"GET /healthz HTTP/1.0", []
        ))
        assert response.count(b"HTTP/1.1 200 ") == answers
        assert _deltas(before, _counters(server)) == {
            "http_requests_total": float(answers),
            "http_200_total": float(answers),
        }

    def test_http_0_9_gets_the_bare_body(self, server):
        response = _exchange(server, b"GET /healthz\r\n\r\n")
        assert json.loads(response)["status"] == "ok"

    @pytest.mark.parametrize("data", [
        b"POST /predict HTTP/1.1\r\nHost: test\r\n",
        b"POST /predict HTTP/1.1\r\nHost: test\r\nContent-Le",
    ], ids=["between-lines", "mid-line"])
    def test_half_close_mid_headers(self, stall_server, data):
        server, leaked = stall_server
        before = _counters(server)
        sock = socket.create_connection(server.server_address[:2],
                                        timeout=5.0)
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        finally:
            sock.close()
        response = b"".join(chunks)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert response.count(b"HTTP/1.1 ") == 1
        assert _deltas(before, _counters(server)) == {}
        assert leaked == []


_FIELD_LINES = st.builds(
    "{}{}{}{}".format,
    st.sampled_from([*HANDLER_READS, "content-length", "CONNECTION",
                     "Host", "X-Id"]),
    st.sampled_from([":", ": ", ":\t", "::"]),
    st.lists(
        st.sampled_from([*"09aZ ,;=-/\t\xe9\xff:", "close",
                         "100-continue"]),
        max_size=6,
    ).map("".join),
    st.sampled_from(["\r\n", "\n"]),
)
#: Lines the email parser takes loosely and ``read_headers`` refuses.
_MALFORMED_LINES = st.sampled_from([
    " folded\r\n", "\tfolded\r\n", "no colon\r\n", "Accept : a\r\n",
    "Bad Name: a\r\n", ": a\r\n", "X(y): a\r\n", "Accept: a\r\r\n",
    "Accept: a\rHost: b\r\n",
])


def _block(lines):
    return "".join(lines).encode("latin-1") + b"\r\n"


def _both(block):
    """``(read_headers, http.client.parse_headers)`` results on ``block``
    and the stream offset each one stopped at; an exception for a
    refused block."""
    results = []
    for parse in (read_headers, parse_headers):
        rfile = io.BytesIO(block + b"next")
        try:
            results.append((parse(rfile), rfile.tell()))
        except (ProtocolError, HTTPException) as exc:
            results.append((exc, None))
    return results


class TestHeaderReader:
    @given(lines=st.lists(_FIELD_LINES, max_size=8),
           malformed=st.none() | st.tuples(_MALFORMED_LINES, st.integers()))
    @settings(max_examples=300, deadline=None)
    def test_get_matches_http_client_on_accepted_blocks(self, lines,
                                                         malformed):
        if malformed is not None:
            line, at = malformed
            lines.insert(at % (len(lines) + 1), line)
        block = _block(lines)
        (ours, our_end), (theirs, their_end) = _both(block)
        lengths = {
            line.split(":", 1)[1].strip()
            for line in lines
            if line.lower().startswith("content-length:")
        }
        if malformed is not None or len(lengths) > 1:
            assert isinstance(ours, ProtocolError) and ours.status == 400
            return
        assert our_end == their_end == len(block)
        for name in HANDLER_READS + ("Host", "X-Id", "Missing"):
            for spelled in (name, name.lower(), name.upper()):
                assert ours.get(spelled) == theirs.get(spelled), spelled
                assert ours.get(spelled, "-") == theirs.get(spelled, "-")

    def test_a_typical_block_is_accepted(self):
        block = (b"Host: 127.0.0.1:8151\r\nAccept-Encoding: identity\r\n"
                 b"Content-Length: 47\r\nContent-Type: application/json"
                 b"\r\nAccept:   text/plain  \r\nX-Empty:\r\n\r\n")
        (ours, _), (theirs, _) = _both(block)
        for name in (*HANDLER_READS, "Host", "X-Empty", "Missing"):
            assert ours.get(name) == theirs.get(name)
        assert ours.get("accept") == "text/plain  "

    @pytest.mark.parametrize("n_fields, refused", [
        (MAX_HEADER_LINES - 1, False),
        (MAX_HEADER_LINES, True),
        (MAX_HEADER_LINES + 1, True),
    ])
    def test_field_limit_is_http_clients(self, n_fields, refused):
        block = b"".join(b"X-%d: v\r\n" % i for i in range(n_fields))
        (ours, _), (theirs, _) = _both(block + b"\r\n")
        assert isinstance(theirs, HTTPException) is refused
        assert isinstance(ours, ProtocolError) is refused
        if refused:
            assert ours.status == 431

    @pytest.mark.parametrize("size, refused", [
        (MAX_LINE_BYTES, False), (MAX_LINE_BYTES + 1, True),
    ])
    def test_line_limit_is_http_clients(self, size, refused):
        line = b"X-Big: " + b"a" * (size - len(b"X-Big: \r\n")) + b"\r\n"
        assert len(line) == size
        (ours, _), (theirs, _) = _both(line + b"\r\n")
        assert isinstance(theirs, HTTPException) is refused
        assert isinstance(ours, ProtocolError) is refused
        if refused:
            assert ours.status == 431

if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    print(json.dumps(_golden_response(), indent=2, sort_keys=True))
