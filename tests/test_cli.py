"""CLI: every subcommand exercised through main()."""

import json

import pytest

from repro.cli import main
from tests.conftest import REPO_SRC


class TestListing:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "ResNet50" in out

    def test_blocks(self, capsys):
        assert main(["blocks"]) == 0
        out = capsys.readouterr().out
        assert "Bottleneck4" in out and "layer2.1" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "a100-80gb" in out and "jetson-agx-orin" in out


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "campaign.json"
    rc = main(
        [
            "campaign",
            "--scenario", "inference",
            "--models", "alexnet", "resnet18",
            "--seed", "3",
            "-o", str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def training_campaign_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "training.json"
    rc = main(
        [
            "campaign",
            "--scenario", "training",
            "--models", "alexnet", "resnet18",
            "-o", str(path),
        ]
    )
    assert rc == 0
    return path


class TestCampaign:
    def test_writes_valid_json(self, campaign_file):
        payload = json.loads(campaign_file.read_text())
        assert len(payload["records"]) > 0

    def test_distributed_scenario(self, tmp_path, capsys):
        path = tmp_path / "dist.json"
        rc = main(
            [
                "campaign",
                "--scenario", "distributed",
                "--models", "resnet18",
                "--nodes", "1", "2",
                "-o", str(path),
            ]
        )
        assert rc == 0
        assert "nodes=[1, 2]" in capsys.readouterr().out

    def test_max_seconds_flag(self, tmp_path):
        slow = tmp_path / "all.json"
        fast = tmp_path / "capped.json"
        base = ["campaign", "--models", "vgg16",
                "--device", "xeon-gold-5318y-core"]
        main(base + ["-o", str(slow)])
        main(base + ["--max-seconds", "5", "-o", str(fast)])
        n_slow = len(json.loads(slow.read_text())["records"])
        n_fast = len(json.loads(fast.read_text())["records"])
        assert n_fast < n_slow


    @pytest.mark.parametrize("argv, name", [
        (["--models", "alexnet", "nosuch"], "nosuch"),
        (["--scenario", "blocks", "--models", "typo"], "typo"),
        (["--backend", "fp16", "--device", "xeon-gold-5318y-core",
          "--models", "alexnet"], "xeon-gold-5318y-core"),
    ])
    def test_unknown_name_exits_2_with_one_line(
        self, tmp_path, capsys, argv, name
    ):
        path = tmp_path / "out.json"
        rc = main(["campaign", *argv, "-o", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("campaign: ") and f"'{name}'" in err
        assert err.count("\n") == 1
        assert not path.exists()

    def test_blocks_scenario_honours_models(self, tmp_path):
        path = tmp_path / "blocks.json"
        rc = main(["campaign", "--scenario", "blocks",
                   "--models", "BasicBlock7", "-o", str(path)])
        assert rc == 0
        records = json.loads(path.read_text())["records"]
        assert records and {r["model"] for r in records} == {"BasicBlock7"}


class TestTraceCommand:
    def test_tree_format_to_stdout(self, capsys):
        rc = main(["trace", "alexnet", "--device", "xeon-gold-5318y-core"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alexnet@224 b=1" in out
        assert "forward" in out
        assert "counters:" in out

    def test_json_format(self, capsys):
        rc = main(["trace", "alexnet", "--format", "json", "--image", "64"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["spans"][0]["category"] == "model"

    def test_chrome_format_written_to_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc = main(
            ["trace", "alexnet", "--format", "chrome", "--phase", "step",
             "--image", "64", "-o", str(path)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events
        assert all(
            e["ph"] == "X" and "ts" in e and "dur" in e for e in events
        )

    def test_distributed_phase(self, tmp_path):
        path = tmp_path / "trace.json"
        rc = main(
            ["trace", "resnet18", "--phase", "distributed", "--nodes", "2",
             "--image", "64", "--batch", "32", "--format", "chrome",
             "-o", str(path)]
        )
        assert rc == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e["tid"] == 1 for e in events), "no comm row"

    def test_unknown_model_exits_2(self, capsys):
        rc = main(["trace", "not-a-model"])
        assert rc == 2
        assert "unknown model" in capsys.readouterr().err

    def test_out_of_memory_exits_1(self, capsys):
        rc = main(["trace", "vgg16", "--batch", str(2 ** 17)])
        assert rc == 1
        assert "trace:" in capsys.readouterr().err

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "alexnet", "--format", "xml"])

    def test_campaign_trace_flag_round_trips_through_store(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        store = tmp_path / "store"
        rc = main(
            [
                "campaign",
                "--scenario", "inference",
                "--models", "alexnet",
                "--device", "xeon-gold-5318y-core",
                "--store", str(store),
                "--trace", str(trace_path),
                "-o", str(tmp_path / "data.json"),
            ]
        )
        assert rc == 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert events[0]["cat"] == "campaign"
        manifest = json.loads((store / "manifest.json").read_text())
        counters = manifest["stats"]["counters"]
        assert counters["flops"] > 0
        assert counters["bytes"] > 0
        assert "cache_hits" in counters


class TestFitAndPredict:
    def test_fit_forward(self, campaign_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        rc = main(
            ["fit", "--data", str(campaign_file), "--kind", "forward",
             "-o", str(model_path)]
        )
        assert rc == 0
        assert "fitted forward model" in capsys.readouterr().out
        assert model_path.exists()

    def test_fit_with_exclude(self, campaign_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        # Only resnet18's records remain after exclusion, so the design
        # columns are proportional to each other (one network's features
        # are constants) — the audit gate rightly warns about the
        # collinear fit while warn-mode still saves it.
        with pytest.warns(RuntimeWarning, match="audit ERROR"):
            main(
                ["fit", "--data", str(campaign_file), "--exclude",
                 "alexnet", "-o", str(model_path)]
            )
        out = capsys.readouterr().out
        assert "84 records" in out

    def test_predict_inference(self, campaign_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(campaign_file), "-o", str(model_path)])
        capsys.readouterr()
        rc = main(
            ["predict", "--model", str(model_path), "--network", "resnet50",
             "--image", "128", "--batch", "32"]
        )
        assert rc == 0
        assert "predicted inference" in capsys.readouterr().out

    def test_predict_training_with_epochs(
        self, training_campaign_file, tmp_path, capsys
    ):
        model_path = tmp_path / "step.json"
        main(
            ["fit", "--data", str(training_campaign_file), "--kind", "step",
             "-o", str(model_path)]
        )
        capsys.readouterr()
        rc = main(
            [
                "predict", "--model", str(model_path),
                "--network", "resnet50", "--image", "128", "--batch", "64",
                "--dataset-size", "50000", "--epochs", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted training step" in out
        assert "predicted epoch" in out
        assert "predicted full run" in out


class TestReportCommand:
    def test_block_report(self, campaign_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(campaign_file), "-o", str(model_path)])
        capsys.readouterr()
        rc = main(
            ["report", "--model", str(model_path), "--network", "resnet18",
             "--image", "128", "--batch", "16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "layer1.0" in out
        assert "bottleneck:" in out

    def test_report_rejects_step_model(
        self, training_campaign_file, tmp_path
    ):
        model_path = tmp_path / "step.json"
        main(
            ["fit", "--data", str(training_campaign_file), "--kind", "step",
             "-o", str(model_path)]
        )
        with pytest.raises(SystemExit, match="forward model"):
            main(
                ["report", "--model", str(model_path),
                 "--network", "resnet18"]
            )


class TestExperimentCommand:
    def test_table4(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "ConvMeter (ours)" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_device_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--device", "tpu", "-o", str(tmp_path / "x")])


class TestLintDomains:
    """`repro lint` fronts two analyzers behind one contract: exit 0 clean,
    1 on errors, 2 on usage error; `--quiet`, `--ignore`, and the JSON
    schema behave identically for `--domain determinism|concurrency|all`."""

    RACY = (
        "import threading\n"
        "import warnings\n"
        "def worker():\n"
        "    warnings.warn('racy')\n"
        "def spawn():\n"
        "    threading.Thread(target=worker).start()\n"
    )

    def test_default_domain_is_determinism(self, tmp_path, capsys):
        # The racy-but-deterministic file is clean for the default domain.
        bad = tmp_path / "racy.py"
        bad.write_text(self.RACY)
        assert main(["lint", str(bad)]) == 0
        capsys.readouterr()
        assert main(["lint", "--domain", "concurrency", str(bad)]) == 1
        assert "CON006" in capsys.readouterr().out

    def test_domain_all_merges_both_reports(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n" + self.RACY +
                       "def stamp():\n    return time.time()\n")
        assert main(["lint", "--domain", "all", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "CON006" in out and "DET005" in out

    def test_ignore_rule_restores_exit_zero(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(self.RACY)
        # Paths precede --ignore: the nargs="*" flag would swallow a
        # trailing positional (same ordering the DET006 CI step uses).
        rc = main(["lint", "--domain", "concurrency", str(bad),
                   "--ignore", "CON006"])
        assert rc == 0
        assert "1 file" in capsys.readouterr().out

    def test_quiet_single_summary_line(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(self.RACY)
        rc = main(["lint", "--domain", "concurrency", "--quiet", str(bad)])
        assert rc == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "1 error" in lines[0]

    def test_json_schema_shared_across_domains(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(self.RACY)
        rc = main(["lint", "--domain", "concurrency", "--format", "json",
                   str(bad)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["diagnostics", "summary"]
        diag = payload["diagnostics"][0]
        assert diag["rule"] == "CON006"
        assert diag["severity"] == "ERROR"
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["unit"] == "file"

    def test_bad_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--domain", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, unknown", [
        (["--select", "NOPE123"], ["'NOPE123'"]),
        (["--ignore", "DET006", "CON004"], ["'CON004'"]),
        # A path after --select is swallowed by it and named, rather
        # than the default tree being linted instead.
        (["--select", "DET006", "src"], ["'src'"]),
    ])
    def test_unknown_rule_id_is_usage_error(self, tmp_path, capsys, argv,
                                            unknown):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lint: unknown rule id ")
        for rule in unknown:
            assert rule in captured.err
        assert "'DET006'" not in captured.err

    def test_known_rule_ids_are_accepted(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", "--domain", "all", str(clean), "--select",
                     "DET006", "CON002", "PERF001", "SUP001"]) == 0
        assert "0 errors, 0 warnings across 1 file" in capsys.readouterr().out

    def test_ignore_keeps_suppressions_used(self, capsys):
        # Ignoring a rule must not turn the in-source suppressions of that
        # rule into stale SUP001 warnings: the analyzers see every rule
        # and the CLI drops ignored findings afterwards.
        rc = main(["lint", "--domain", "performance", str(REPO_SRC),
                   "--ignore", "PERF001", "PERF008"])
        assert rc == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out


class TestLeaderboardCommand:
    def test_fast_single_scenario_writes_payload(self, tmp_path, capsys):
        out = tmp_path / "BENCH_leaderboard.json"
        rc = main([
            "leaderboard", "--fast", "--scenario", "inference",
            "--models", "alexnet", "resnet18", "mobilenet_v2",
            "--predictors", "convmeter", "paleo",
            "-o", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ConvMeter (paper)" in text
        assert "PALEO (analytical)" in text
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro/leaderboard-bench/v1"
        entries = payload["scenarios"]["inference"]["entries"]
        assert [e["rank"] for e in entries] == [1, 2]

    def test_unknown_scenario_exits_2(self, capsys):
        rc = main(["leaderboard", "--fast", "--scenario", "nonsense"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_one_model_exits_2(self, capsys):
        rc = main([
            "leaderboard", "--fast", "--models", "alexnet",
            "--scenario", "inference",
        ])
        assert rc == 2
        assert "at least two" in capsys.readouterr().err
