"""Hot-path performance analyzer: every PERF rule firing, staying silent,
and suppressible; hot-root propagation over the call graph; the CLI
contract (``--domain performance``, ``--statistics``); the repository
gate (`src/repro` must be clean); and byte-identity assertions for every
triage fix the analyzer drove."""

import json
import textwrap
from itertools import combinations_with_replacement

import numpy as np
import pytest

from repro.analysis.perf import (
    PERF_RULES,
    _hot_roots,
    analyze_paths,
    analyze_program,
    analyze_source,
    analyze_sources,
)
from repro.cli import main
from repro.diagnostics import Severity
from repro.hardware.backend import BACKEND_REGISTRY, get_backend
from tests.conftest import REPO_SRC


def rules_of(source: str) -> list[str]:
    return [d.rule for d in analyze_source(textwrap.dedent(source))]


def diags_of(source: str):
    return analyze_source(textwrap.dedent(source))


class TestParseErrorsPERF000:
    def test_syntax_error_fires(self):
        assert rules_of("def broken(:\n    pass\n") == ["PERF000"]

    def test_valid_module_is_silent(self):
        assert rules_of("x = 1\n") == []

    def test_missing_path_reported_not_raised(self, tmp_path):
        diags, n_files = analyze_paths([tmp_path / "absent.py"])
        assert [d.rule for d in diags] == ["PERF000"]
        assert n_files == 0


class TestScalarLoopsPERF001:
    def test_iterating_array_fires(self):
        assert "PERF001" in rules_of(
            """
            import numpy as np

            def predict_one(X: np.ndarray):
                total = 0.0
                for x in X:
                    total = total + float(x)
                return total
            """
        )

    def test_range_over_array_extent_fires(self):
        assert "PERF001" in rules_of(
            """
            import numpy as np

            def predict_one(X: np.ndarray):
                total = 0.0
                for i in range(len(X)):
                    total += X[i]
                return total
            """
        )

    def test_enumerate_over_array_fires(self):
        assert "PERF001" in rules_of(
            """
            import numpy as np

            def predict_one(X: np.ndarray):
                total = 0.0
                for i, x in enumerate(X):
                    total += float(x)
                return total
            """
        )

    def test_indexing_by_loop_target_fires(self):
        assert "PERF001" in rules_of(
            """
            import numpy as np

            def predict_one(X: np.ndarray, items):
                total = 0.0
                for i in items:
                    total += X[i]
                return total
            """
        )

    def test_slice_access_is_silent(self):
        assert rules_of(
            """
            import numpy as np

            def predict_one(X: np.ndarray, items):
                out = []
                for i in items:
                    out.append(X[i:].sum())
                return out
            """
        ) == []

    def test_vectorized_gather_is_silent(self):
        # base[combos[:, k]] reads a whole column per iteration — a
        # vectorized gather, not per-element access (the neuralpower
        # polynomial_row shape).
        assert rules_of(
            """
            import numpy as np

            def predict_one(base: np.ndarray, combos: np.ndarray):
                prod = base[combos[:, 0]]
                for k in range(1, 4):
                    prod = prod * base[combos[:, k]]
                return prod
            """
        ) == []

    def test_self_referential_rebind_keeps_array_typing(self):
        # X = X[None, :] rebinds X to a view of itself; the analyzer must
        # classify the right-hand side under the OLD binding, or X loses
        # array typing and the loop below goes unflagged (the
        # regression.py LinearModel.predict shape).
        assert "PERF001" in rules_of(
            """
            import numpy as np

            def predict(X: np.ndarray, coef: np.ndarray):
                if X.ndim == 1:
                    X = X[None, :]
                total = X[:, 0] * coef[0]
                for column in range(1, X.shape[1]):
                    total = total + X[:, column] * coef[column]
                return total
            """
        )

    def test_cold_function_is_silent(self):
        assert rules_of(
            """
            import numpy as np

            def offline_report(X: np.ndarray):
                total = 0.0
                for x in X:
                    total = total + float(x)
                return total
            """
        ) == []

    def test_suppression_comment_works(self):
        assert rules_of(
            """
            import numpy as np

            def predict_one(X: np.ndarray):
                total = 0.0
                for x in X:  # repro-lint: disable=PERF001
                    total = total + float(x)
                return total
            """
        ) == []


class TestLoopAllocationPERF002:
    def test_allocation_in_loop_fires(self):
        assert "PERF002" in rules_of(
            """
            import numpy as np

            def predict_one(items):
                out = []
                for item in items:
                    out.append(np.zeros(3))
                return out
            """
        )

    def test_allocation_outside_loop_is_silent(self):
        assert rules_of(
            """
            import numpy as np

            def predict_one(items):
                buffer = np.zeros(len(items))
                for i, item in enumerate(items):
                    buffer[i] = item
                return buffer
            """
        ) == []

    def test_allocation_in_raise_is_silent(self):
        # A raise exits the loop; its f-string/array work runs at most
        # once per call.
        assert rules_of(
            """
            import numpy as np

            def predict_one(items):
                total = 0.0
                for item in items:
                    if item < 0:
                        raise ValueError(np.array([item]))
                    total += item
                return total
            """
        ) == []

    def test_suppression_comment_works(self):
        assert rules_of(
            """
            import numpy as np

            def predict_one(items):
                out = []
                for item in items:
                    out.append(np.zeros(3))  # repro-lint: disable=PERF002
                return out
            """
        ) == []

    def test_append_rebind_growth_fires_with_prefix_copy_hint(self):
        diags = diags_of(
            """
            import numpy as np

            def predict_one(items):
                acc = np.zeros(0)
                for item in items:
                    acc = np.append(acc, item)
                return acc
            """
        )
        assert [d.rule for d in diags] == ["PERF002"]
        assert "copies the prefix" in diags[0].hint


class TestListThenArrayPERF004:
    def test_stack_over_row_comprehension_fires(self):
        assert "PERF004" in rules_of(
            """
            import numpy as np

            def make_row(x: int) -> np.ndarray:
                return np.zeros(3)

            def predict_one(xs):
                return np.array([make_row(x) for x in xs])
            """
        )

    def test_append_then_array_fires(self):
        assert "PERF004" in rules_of(
            """
            import numpy as np

            def predict_one(xs):
                rows = []
                for x in xs:
                    rows.append(x * 2.0)
                return np.array(rows)
            """
        )

    def test_preallocated_fill_is_silent(self):
        assert rules_of(
            """
            import numpy as np

            def predict_one(xs):
                out = np.empty(len(xs))
                for i, x in enumerate(xs):
                    out[i] = x * 2.0
                return out
            """
        ) == []

    def test_suppression_comment_works(self):
        assert rules_of(
            """
            import numpy as np

            def make_row(x: int) -> np.ndarray:
                return np.zeros(3)

            def predict_one(xs):
                return np.array(  # repro-lint: disable=PERF004
                    [make_row(x) for x in xs]
                )
            """
        ) == []


class TestUnbatchedSweepPERF006:
    def test_per_point_predict_fires(self):
        diags = diags_of(
            """
            def run_campaign(model, features, batches):
                out = []
                for b in batches:
                    out.append(model.predict_one(features, b))
                return out
            """
        )
        assert [d.rule for d in diags] == ["PERF006"]
        assert "predict_configs" in diags[0].hint

    @pytest.mark.parametrize(
        "call",
        [
            "zoo_profile(p.model, p.image_size)",
            'graph_record("model", p.model, p.image_size)',
        ],
    )
    def test_per_point_profile_lookup_fires(self, call):
        diags = diags_of(
            f"""
            def run_campaign(points):
                out = []
                for p in points:
                    out.append({call})
                return out
            """
        )
        assert [(d.rule, d.severity) for d in diags] == [
            ("PERF006", Severity.WARN)
        ]
        name = call.split("(")[0]
        assert f"calls {name}() once per sweep point" in diags[0].message
        assert "outside the sweep loop" in diags[0].hint
        assert diags[0].location.endswith(":5")

    def test_call_outside_loop_is_silent(self):
        assert rules_of(
            """
            def run_campaign(model, features, batch):
                return model.predict_one(features, batch)
            """
        ) == []

    def test_suppression_comment_works(self):
        assert rules_of(
            """
            def run_campaign(model, features, batches):
                out = []
                for b in batches:
                    out.append(model.predict_one(features, b))  # repro-lint: disable=PERF006
                return out
            """
        ) == []


class TestLoopOverheadPERF008:
    def test_try_per_iteration_fires(self):
        assert "PERF008" in rules_of(
            """
            def predict_one(items):
                out = []
                for item in items:
                    try:
                        out.append(1.0 / item)
                    except ZeroDivisionError:
                        out.append(0.0)
                return out
            """
        )

    def test_try_wrapping_nested_loop_is_silent(self):
        assert rules_of(
            """
            def predict_one(groups):
                out = []
                for group in groups:
                    try:
                        for item in group:
                            out.append(item)
                    except TypeError:
                        pass
                return out
            """
        ) == []

    def test_logger_call_in_loop_fires(self):
        assert "PERF008" in rules_of(
            """
            import logging

            LOG = logging.getLogger(__name__)

            def predict_one(items):
                out = []
                for item in items:
                    LOG.info("measuring %s", item)
                    out.append(item)
                return out
            """
        )

    def test_print_in_loop_fires(self):
        assert "PERF008" in rules_of(
            """
            def predict_one(items):
                out = []
                for item in items:
                    print(item)
                    out.append(item)
                return out
            """
        )

    def test_suppression_comment_works(self):
        assert rules_of(
            """
            def predict_one(items):
                out = []
                for item in items:
                    try:  # repro-lint: disable=PERF008
                        out.append(1.0 / item)
                    except ZeroDivisionError:
                        out.append(0.0)
                return out
            """
        ) == []


class TestHotRootPropagation:
    def test_helper_called_from_named_root_is_hot(self):
        diags = diags_of(
            """
            import numpy as np

            def _helper(X: np.ndarray):
                total = 0.0
                for i in range(len(X)):
                    total += X[i]
                return total

            def run_campaign(X: np.ndarray):
                return _helper(X)
            """
        )
        assert [d.rule for d in diags] == ["PERF001"]
        assert "campaign sweep driver" in diags[0].message

    def test_same_body_without_hot_caller_is_silent(self):
        assert rules_of(
            """
            import numpy as np

            def _helper(X: np.ndarray):
                total = 0.0
                for i in range(len(X)):
                    total += X[i]
                return total

            def offline(X: np.ndarray):
                return _helper(X)
            """
        ) == []

    def test_explicit_marker_makes_function_hot(self):
        diags = diags_of(
            """
            import numpy as np

            # repro-perf: hot
            def crunch(X: np.ndarray):
                total = 0.0
                for i in range(len(X)):
                    total += X[i]
                return total
            """
        )
        assert [d.rule for d in diags] == ["PERF001"]
        assert "explicit hot marker" in diags[0].message

    def test_pipeline_run_method_is_hot(self):
        diags = diags_of(
            """
            import numpy as np

            class FusePipeline:
                def run(self, X: np.ndarray):
                    rows = []
                    for x in X:
                        rows.append(np.zeros(3))
                    return rows
            """
        )
        assert {d.rule for d in diags} == {"PERF001", "PERF002"}
        assert all(
            "pass-pipeline execution (FusePipeline.run)" in d.message
            for d in diags
        )

    def test_request_handler_methods_are_hot(self):
        diags = diags_of(
            """
            import numpy as np
            from http.server import BaseHTTPRequestHandler

            class Handler(BaseHTTPRequestHandler):
                def do_POST(self):
                    rows = []
                    for item in range(8):
                        rows.append(np.zeros(3))
                    return rows
            """
        )
        assert [d.rule for d in diags] == ["PERF002"]
        assert "request-handler method (Handler.do_POST)" in diags[0].message

    def test_hotness_crosses_modules(self):
        diags = analyze_sources([
            (
                "a.py",
                textwrap.dedent(
                    """
                    from b import crunch

                    def run_campaign(X):
                        return crunch(X)
                    """
                ),
            ),
            (
                "b.py",
                textwrap.dedent(
                    """
                    import numpy as np

                    def crunch(X: np.ndarray):
                        total = 0.0
                        for i in range(len(X)):
                            total += X[i]
                        return total
                    """
                ),
            ),
        ])
        assert [d.rule for d in diags] == ["PERF001"]
        assert diags[0].location.startswith("b.py:")


class TestStaleSuppressions:
    def test_stale_perf_suppression_reported(self):
        diags = diags_of(
            """
            def offline():
                x = 1  # repro-lint: disable=PERF002
                return x
            """
        )
        assert [d.rule for d in diags] == ["SUP001"]
        assert "PERF002" in diags[0].message

    def test_other_domains_not_judged_here(self):
        assert rules_of(
            """
            def offline():
                x = 1  # repro-lint: disable=DET002
                return x
            """
        ) == []


class TestRuleCatalogue:
    def test_rules_plus_parse_registered(self):
        assert [r.rule for r in PERF_RULES] == [
            "PERF000", "PERF001", "PERF002", "PERF004", "PERF006", "PERF008",
        ]

    def test_severities_match_docs(self):
        by_rule = {r.rule: r.severity for r in PERF_RULES}
        assert {
            rule
            for rule, sev in by_rule.items()
            if sev is Severity.ERROR
        } == {"PERF000", "PERF001", "PERF002", "PERF004"}
        assert {
            rule
            for rule, sev in by_rule.items()
            if sev is Severity.WARN
        } == {"PERF006", "PERF008"}


class TestRepositoryIsClean:
    def test_src_repro_gates_clean(self, repo_program):
        diags = analyze_program(repo_program)
        assert repo_program.n_files > 0
        rendered = [d.render() for d in diags]
        assert rendered == []

    def test_serve_request_path_is_hot(self, repo_program):
        # The server's request method has no http.server base class to
        # make it a root; its explicit marker does.
        roots = _hot_roots(repo_program)
        assert roots[
            "repro.serve.server.PredictionServer._handle_requests"
        ] == "explicit hot marker on _handle_requests"
        assert "repro.serve.protocol.answer_request" in roots

    def test_every_perf_suppression_in_repo_is_used(self, repo_program):
        # Covered by the gate above (stale ones surface as SUP001), but
        # assert it separately so a SUP001 regression names itself.
        diags = analyze_program(repo_program)
        assert [d for d in diags if d.rule == "SUP001"] == []


class TestCliContract:
    def _hot_loop_file(self, tmp_path):
        target = tmp_path / "hot.py"
        target.write_text(
            textwrap.dedent(
                """
                import numpy as np

                def predict_one(X: np.ndarray):
                    total = 0.0
                    for x in X:
                        total = total + float(x)
                    return total
                """
            )
        )
        return target

    def test_performance_domain_exit_codes(self, tmp_path, capsys):
        target = self._hot_loop_file(tmp_path)
        assert main(["lint", "--domain", "performance", str(target)]) == 1
        out = capsys.readouterr().out
        assert "PERF001" in out
        # The path precedes --ignore: the nargs="*" flag would swallow
        # it and lint the default src/repro instead.
        assert main(
            ["lint", "--domain", "performance", str(target),
             "--ignore", "PERF001"]
        ) == 0
        assert "0 errors, 0 warnings across 1 file" in capsys.readouterr().out

    def test_src_repro_performance_gate_is_clean(self, capsys):
        assert main(["lint", "--domain", "performance", str(REPO_SRC)]) == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out

    def test_all_domain_includes_performance(self, tmp_path, capsys):
        target = self._hot_loop_file(tmp_path)
        assert main(["lint", "--domain", "all", str(target)]) == 1
        assert "PERF001" in capsys.readouterr().out

    def test_statistics_flag_counts_by_domain(self, tmp_path, capsys):
        target = self._hot_loop_file(tmp_path)
        main(["lint", "--domain", "all", "--statistics", str(target)])
        out = capsys.readouterr().out
        assert "statistics:" in out
        assert "performance (PERF): 1" in out
        assert "PERF001: 1" in out
        assert "determinism (DET): 0" in out
        assert "concurrency (CON): 0" in out
        assert "suppressions (SUP): 0" in out

    def test_json_format_carries_perf_findings(self, tmp_path, capsys):
        target = self._hot_loop_file(tmp_path)
        main(["lint", "--domain", "performance", "--format", "json",
              str(target)])
        payload = json.loads(capsys.readouterr().out)
        assert [d["rule"] for d in payload["diagnostics"]] == ["PERF001"]


# --------------------------------------------------------------------------
# byte-identity of the triage fixes the analyzer drove
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def forward_model_and_data():
    from repro.benchdata import inference_campaign
    from repro.core.forward import ForwardModel

    data = inference_campaign(
        models=("alexnet", "resnet18"),
        batch_sizes=(1, 8, 32),
        image_sizes=(64, 128),
        seed=31,
    )
    return ForwardModel().fit(data), data


@pytest.fixture(scope="module")
def step_model_and_data():
    from repro.benchdata import distributed_campaign
    from repro.core.training import TrainingStepModel

    data = distributed_campaign(
        models=("alexnet", "resnet18", "mobilenet_v2"),
        node_counts=(1, 2, 4),
        batch_sizes=(16, 64),
        image_sizes=(64, 128),
        seed=33,
    )
    return TrainingStepModel().fit(data), data


class TestTriageByteIdentity:
    """Every triaged fix ships with a proof that outputs did not move."""

    def test_linear_predict_matrix_vs_single_rows(self, forward_model_and_data):
        # regression.py keeps its columnwise loop (suppressed, justified);
        # batching rows through it must equal row-at-a-time calls.
        model, data = forward_model_and_data
        lm = model.model
        from repro.core.features import forward_design

        X = forward_design(list(data), model.metric_names)
        batched = lm.predict(X)
        rows = np.array([lm.predict(X[i])[0] for i in range(len(X))])
        assert batched.tolist() == rows.tolist()

    def test_forward_predict_configs_vs_predict_one(
        self, forward_model_and_data
    ):
        model, data = forward_model_and_data
        features = data[0].features
        batches = [1, 4, 16, 64, 256]
        batched = model.predict_configs(features, batches)
        scalar = [model.predict_one(features, b) for b in batches]
        assert batched.tolist() == scalar

    def test_step_predict_configs_vs_predict_one(self, step_model_and_data):
        model, data = step_model_and_data
        features = data[0].features
        configs = [
            (16, 1, 1), (64, 1, 1), (16, 8, 2), (64, 8, 2), (32, 16, 4),
        ]
        batched = model.predict_configs(features, configs)
        scalar = [
            model.predict_one(features, b, devices=d, nodes=n).total
            for b, d, n in configs
        ]
        assert batched.tolist() == scalar

    def test_scaling_curves_vs_per_config_predictions(
        self, step_model_and_data
    ):
        from repro.core.scalability import (
            batch_scaling_curve,
            node_scaling_curve,
            strong_scaling_curve,
        )

        model, data = step_model_and_data
        features = data[0].features
        for curve in (
            node_scaling_curve(
                model, features, 16, (1, 2, 4), domain_factor=None
            ),
            strong_scaling_curve(
                model, features, 256, (1, 2, 4), domain_factor=None
            ),
            batch_scaling_curve(
                model, features, (16, 64, 256), domain_factor=None
            ),
        ):
            for point in curve:
                expected = model.predict_one(
                    features,
                    point.per_device_batch,
                    devices=point.devices,
                    nodes=max(point.devices // 4, 1)
                    if point.devices > 1
                    else 1,
                ).total
                assert point.step_time == expected

    @staticmethod
    def _served(model, kind, queries):
        """A batched ``answer_request`` of ``queries`` and the features
        each query was answered from."""
        from pathlib import Path

        from repro.serve.protocol import (
            FeatureCache,
            PredictQuery,
            PredictRequest,
            answer_request,
        )
        from repro.serve.registry import ArtifactEntry

        entry = ArtifactEntry(name="m", path=Path("m.json"), kind=kind,
                              format=2, model=model)
        request = PredictRequest(
            model=None, queries=tuple(PredictQuery(**q) for q in queries),
            batched=True,
        )
        cache = FeatureCache()
        body = answer_request(request, entry, cache)
        features = [
            cache.lookup(q.network, q.image, "inference" if q.fuse else "")[1]
            for q in request.queries
        ]
        return body["predictions"], features

    def test_serve_forward_batch_vs_scalar(self, forward_model_and_data):
        model, _ = forward_model_and_data
        queries = [
            {"network": network, "image": image, "batch": batch,
             "fuse": fuse}
            for network, image, batch, fuse in (
                ("alexnet", 64, 1, False), ("resnet18", 128, 2, False),
                ("alexnet", 128, 8, True), ("resnet18", 64, 16, False),
                ("resnet18", 128, 64, True), ("alexnet", 64, 256, False),
            )
        ]
        served, features = self._served(model, "forward", queries)
        scalar = [
            model.predict_one(f, q["batch"])
            for f, q in zip(features, queries)
        ]
        assert [p["t_seconds"] for p in served] == scalar

    def test_serve_step_batch_vs_scalar(self, step_model_and_data):
        model, _ = step_model_and_data
        queries = [
            {"network": "resnet18", "image": 128, "batch": batch,
             "devices": devices, "nodes": nodes}
            for batch, devices, nodes in (
                (16, 1, 1), (64, 1, 1), (16, 8, 2), (64, 8, 2),
            )
        ]
        served, features = self._served(model, "training_step", queries)
        for prediction, f, q in zip(served, features, queries):
            pred = model.predict_one(
                f, q["batch"], devices=q["devices"], nodes=q["nodes"]
            )
            assert prediction["phases"]["forward"] == pred.forward
            assert (prediction["phases"]["backward_plus_update"]
                    == pred.backward_plus_update)
            assert prediction["t_seconds"] == pred.total

    def test_polynomial_row_vs_scalar_reference(self):
        from repro.baselines.neuralpower import _base_row, polynomial_row
        from repro.benchdata.records import ConvNetFeatures

        def reference(features, batch, degree):
            base = _base_row(features, batch)
            parts = [base]
            for d in range(2, degree + 1):
                parts.append(
                    np.array([
                        np.prod(base[list(combo)])
                        for combo in combinations_with_replacement(
                            range(base.size), d
                        )
                    ])
                )
            parts.append(np.ones(1))
            return np.concatenate(parts)

        features = ConvNetFeatures(7.13e9, 1.2e7, 9.4e6, 6.1e7, 21)
        for degree in (1, 2, 3, 4):
            for batch in (1, 32, 2048):
                assert polynomial_row(
                    features, batch, degree
                ).tolist() == reference(features, batch, degree).tolist()

    def test_paleo_predict_vs_scalar_reference(self, forward_model_and_data):
        from repro.baselines.paleo import PaleoModel
        from repro.hardware.device import get_device

        _, data = forward_model_and_data
        model = PaleoModel(get_device("a100-80gb"))
        records = list(data)
        got = model.predict(records)
        expected = np.array([
            r.features.flops * r.batch
            / (model.device.peak_flops * model.percent_of_peak)
            + ((r.features.inputs + r.features.outputs) * r.batch
               + r.features.weights) * 4.0
            / (model.device.mem_bandwidth * model.percent_of_peak)
            for r in records
        ])
        assert got.tolist() == expected.tolist()

    def test_layer_times_batched_rows_vs_scalar(self):
        from repro.hardware.device import get_device
        from repro.hardware.roofline import layer_times, zoo_profile

        profile = zoo_profile("alexnet", 64)
        device = get_device("a100-80gb")
        batches = (1, 8, 64, 512)
        grid = layer_times(profile, np.asarray(batches), device)
        for row, batch in zip(grid, batches):
            assert row.tolist() == layer_times(
                profile, batch, device
            ).tolist()

    @pytest.mark.parametrize("backend", sorted(BACKEND_REGISTRY))
    def test_clean_time_grids_vs_clean_components(self, backend):
        from repro.hardware.executor import SimulatedExecutor
        from repro.hardware.roofline import zoo_profile

        profile = zoo_profile("alexnet", 64)
        executor = SimulatedExecutor(seed=3, backend=get_backend(backend))
        clean = executor.backend
        batches = (1, 8, 64)
        (inference,) = executor.clean_time_grids([profile], batches)
        (training,) = executor.clean_time_grids(
            [profile], batches, training=True
        )
        for batch in batches:
            assert inference[batch] == (
                clean.forward_time_clean(profile, batch),
            )
            assert training[batch] == (
                clean.forward_time_clean(profile, batch),
                clean.backward_time_clean(profile, batch),
                clean.grad_update_time_clean(profile),
            )

    @pytest.mark.parametrize(
        "scenario", ("inference", "blocks", "training", "distributed")
    )
    @pytest.mark.parametrize("backend", sorted(BACKEND_REGISTRY))
    def test_campaign_vs_point_reference(self, backend, scenario):
        """The grid-cached campaign equals direct per-point measurements:
        no clean-time grid, memory enforced by the executor itself."""
        from repro.benchdata import CampaignSpec, enumerate_points, run_campaign
        from repro.benchdata.engine import block_profile
        from repro.distributed.cluster import ClusterSpec
        from repro.distributed.trainer import DistributedTrainer
        from repro.hardware.executor import SimulatedExecutor
        from repro.hardware.memory import OutOfDeviceMemory
        from repro.hardware.roofline import zoo_profile

        device = BACKEND_REGISTRY[backend].default_device
        spec = CampaignSpec(
            scenario=scenario,
            models=("Bottleneck1",) if scenario == "blocks" else ("vgg16",),
            device=device,
            batch_sizes=(1, 8, 65536),
            image_sizes=(64, 224),
            seed=37,
            reps=2,
            node_counts=(1, 2),
            backend=backend,
        )
        executor = SimulatedExecutor(
            seed=spec.seed, backend=get_backend(backend, device)
        )
        expected = []
        for point in enumerate_points(spec):
            if scenario == "blocks":
                profile = block_profile(point.model, point.image_size)
            else:
                profile = zoo_profile(point.model, point.image_size)
            try:
                if scenario in ("inference", "blocks"):
                    times = (
                        executor.measure_inference(
                            profile, point.batch, rep=point.rep
                        ),
                        0.0,
                        0.0,
                    )
                elif scenario == "training":
                    phases = executor.measure_training_step(
                        profile, point.batch, rep=point.rep
                    )
                    times = (
                        phases.forward, phases.backward, phases.grad_update
                    )
                else:
                    cluster = ClusterSpec(
                        nodes=point.nodes, gpus_per_node=spec.gpus_per_node,
                        device=device,
                    )
                    phases = DistributedTrainer(
                        cluster, seed=spec.seed, backend=executor.backend
                    ).measure_step(profile, point.batch, rep=point.rep)
                    times = (
                        phases.forward, phases.backward, phases.grad_update
                    )
            except OutOfDeviceMemory:
                continue
            expected.append(
                (point.model, point.image_size, point.batch, point.nodes,
                 point.rep, *times)
            )

        result = run_campaign(spec, verify="off")
        got = [
            (r.model, r.image_size, r.batch, r.nodes, r.rep,
             r.t_fwd, r.t_bwd, r.t_grad)
            for r in result.dataset
        ]
        assert got == expected
        n_oom = len(enumerate_points(spec)) - len(got)
        assert result.stats.n_oom == n_oom > 0

    def test_pipeline_runs_are_identical(self):
        from repro.graph.passes import default_inference_pipeline
        from repro.zoo import build_model

        graph = build_model("alexnet", 64)
        first = default_inference_pipeline().run(graph)
        again = default_inference_pipeline().run(graph)
        assert again is not first
        assert [
            (n.name, n.layer, n.output_shape) for n in again.graph
        ] == [(n.name, n.layer, n.output_shape) for n in first.graph]

    def test_pipeline_sees_graph_mutation(self):
        # Nothing is memoised: a run after the graph changed rewrites the
        # changed graph, not the one an earlier run saw.
        from repro.graph.graph import ComputeGraph, Node
        from repro.graph.layers import Activation, Input
        from repro.graph.passes import default_inference_pipeline
        from repro.graph.tensor import TensorShape

        shape = TensorShape(3, 8, 8)
        graph = ComputeGraph("probe")
        graph.add_node(Node("in", Input(shape), (), shape))
        pipeline = default_inference_pipeline()
        before = pipeline.run(graph)
        graph.add_node(Node("relu", Activation("relu"), ("in",), shape))
        after = pipeline.run(graph)
        assert [n.name for n in before.graph] == ["in"]
        assert [n.name for n in after.graph] == ["in", "relu"]
