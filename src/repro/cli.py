"""Command-line interface.

Mirrors how the paper's tooling would be used operationally::

    repro models                               # list the zoo
    repro verify --all-zoo                     # static graph IR checks
    repro lint src/repro                       # determinism-hazard linter
    repro lint --domain concurrency src/repro  # lock-discipline race linter
    repro campaign --scenario inference -o data.json
    repro campaign --scenario inference --workers 8 \
                   --store runs/gpu --resume -o data.json
    repro devices                              # presets + execution backends
    repro campaign --scenario training --backend edge -o edge.json
    repro trace alexnet --format chrome -o trace.json
    repro transform resnet18 --diff          # inference fusion pipeline
    repro campaign --scenario training --trace trace.json -o data.json
    repro fit --data data.json --kind forward -o model.json
    repro audit model.json --data data.json    # fitted-model auditor
    repro predict --model model.json --network resnet50 \
                  --image 224 --batch 64
    repro leaderboard --fast -o BENCH_leaderboard.json
    repro experiment table1                    # regenerate a paper artefact

Every subcommand is a thin shell over the library API; nothing here is
logic of its own.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.baselines.eval import (
    PREDICTOR_NAMES as _LEADERBOARD_PREDICTORS,
    SCENARIO_NAMES as _LEADERBOARD_SCENARIOS,
)
from repro.benchdata import (
    CampaignSpec,
    CampaignStore,
    Dataset,
    run_campaign,
)
from repro.benchdata.campaign import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_IMAGE_SIZES,
    DEFAULT_MODELS,
)
from repro.core.epoch import epoch_time, total_training_time
from repro.core.forward import ForwardModel
from repro.core.persistence import load_model, save_model
from repro.core.training import TrainingStepModel
from repro.experiments import EXPERIMENTS
from repro.fileio import DocumentError
from repro.hardware.backend import BACKEND_REGISTRY, get_backend
from repro.hardware.device import DEVICE_PRESETS, get_device
from repro.hardware.roofline import graph_record
from repro.zoo import available_models, get_entry
from repro.zoo.blocks import BLOCK_CATALOGUE

def _cmd_models(_args: argparse.Namespace) -> int:
    print(f"{'name':22s}{'display':18s}{'family':12s}{'min image':>9s}")
    for name in available_models():
        entry = get_entry(name)
        print(
            f"{name:22s}{entry.display:18s}{entry.family:12s}"
            f"{entry.min_image_size:9d}"
        )
    return 0


def _cmd_blocks(_args: argparse.Namespace) -> int:
    print(f"{'block':22s}{'source model':20s}{'scope'}")
    for spec in BLOCK_CATALOGUE:
        print(f"{spec.name:22s}{spec.model:20s}{spec.scope}")
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    if args.format == "json":
        import json

        payload = {
            "devices": [
                {
                    "name": name,
                    "kind": dev.kind,
                    "peak_flops": dev.peak_flops,
                    "mem_bandwidth": dev.mem_bandwidth,
                    "memory_bytes": dev.memory_bytes,
                    "precision_modes": list(dev.precision_modes),
                }
                for name, dev in DEVICE_PRESETS.items()
            ],
            "backends": [
                {
                    "name": info.name,
                    "summary": info.summary,
                    **get_backend(info.name).capabilities(),
                }
                for info in BACKEND_REGISTRY.values()
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{'name':24s}{'kind':6s}{'peak TFLOP/s':>13s}{'BW GB/s':>9s}"
          f"{'memory GB':>10s}  {'precision'}")
    for name, dev in DEVICE_PRESETS.items():
        print(
            f"{name:24s}{dev.kind:6s}{dev.peak_flops / 1e12:13.1f}"
            f"{dev.mem_bandwidth / 1e9:9.0f}{dev.memory_bytes / 1e9:10.0f}"
            f"  {','.join(dev.precision_modes)}"
        )
    print()
    print(f"{'backend':10s}{'default device':18s}{'precision':10s}"
          f"{'eff TFLOP/s':>12s}{'eff GB/s':>9s}{'avail GB':>9s}  summary")
    for info in BACKEND_REGISTRY.values():
        caps = get_backend(info.name).capabilities()
        print(
            f"{info.name:10s}{caps['device']:18s}{caps['precision']:10s}"
            f"{caps['peak_flops'] / 1e12:12.1f}"
            f"{caps['mem_bandwidth'] / 1e9:9.0f}"
            f"{caps['memory_available_bytes'] / 1e9:9.0f}  {info.summary}"
        )
    return 0


def _resolve_device(name: str | None, backend: str):
    """CLI device resolution: an explicit ``--device`` wins; otherwise the
    backend's registered default device (so ``--backend edge`` targets the
    Jetson preset without extra flags), falling back to the A100."""
    if name is not None:
        return get_device(name)
    if backend:
        return BACKEND_REGISTRY[backend].default_device
    return get_device("a100-80gb")


def _campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    """Build the engine spec an invocation describes (defaults mirror the
    paper's per-scenario sweeps)."""
    device = _resolve_device(args.device, args.backend)
    if args.models:
        models: tuple[str, ...] = tuple(args.models)
    elif args.scenario == "blocks":
        # Block campaigns sweep the whole Table 2 catalogue by default.
        models = ()
    else:
        models = DEFAULT_MODELS
    if args.scenario == "distributed":
        batch_sizes: tuple[int, ...] = (16, 32, 64, 128, 256)
        image_sizes: tuple[int, ...] = (64, 128, 192)
    else:
        batch_sizes = DEFAULT_BATCH_SIZES
        image_sizes = DEFAULT_IMAGE_SIZES
    return CampaignSpec(
        scenario=args.scenario,
        models=models,
        device=device,
        batch_sizes=batch_sizes,
        image_sizes=image_sizes,
        seed=args.seed,
        max_seconds=args.max_seconds,
        node_counts=tuple(args.nodes),
        transform="inference" if args.fuse else "",
        backend=args.backend,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.trace import Tracer, write_chrome

    try:
        spec = _campaign_spec(args)
    except (KeyError, ValueError) as exc:
        # An unknown model or block name, or a backend the device cannot
        # run, is a usage error.
        print(f"campaign: {exc.args[0]}", file=sys.stderr)
        return 2
    verify = "strict" if args.strict else ("off" if args.no_verify else "warn")
    store = (
        CampaignStore.open(args.store, spec, resume=args.resume)
        if args.store
        else None
    )
    tracer = Tracer() if args.trace else None
    try:
        result = run_campaign(
            spec, workers=args.workers, store=store, verify=verify,
            tracer=tracer,
        )
    finally:
        if store is not None:
            store.close()
    data = result.dataset
    data.to_json(args.out)
    print(f"wrote {len(data)} records to {args.out} ({data.summary()})")
    print(result.stats.summary())
    if tracer is not None:
        n_events = write_chrome(tracer, args.trace)
        print(f"wrote {n_events} trace events to {args.trace}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.fileio import write_text_atomic
    from repro.hardware.memory import OutOfDeviceMemory
    from repro.trace import chrome_json, render_tree, to_json
    from repro.trace.run import trace_model

    if args.model not in available_models():
        print(
            f"trace: unknown model {args.model!r}; see `repro models`",
            file=sys.stderr,
        )
        return 2
    try:
        tracer = trace_model(
            args.model,
            _resolve_device(args.device, args.backend),
            image_size=args.image,
            batch=args.batch,
            phase=args.phase,
            nodes=args.nodes,
            gpus_per_node=args.gpus_per_node,
            seed=args.seed,
            fuse=args.fuse,
            backend=args.backend,
        )
    except OutOfDeviceMemory as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 1
    if args.format == "tree":
        text = render_tree(tracer)
    elif args.format == "json":
        text = to_json(tracer)
    else:
        text = chrome_json(tracer)
    if args.out:
        write_text_atomic(args.out, text + "\n")
        spans = sum(1 for root in tracer.roots for _ in root.walk())
        print(f"wrote {spans} spans ({args.format}) to {args.out}")
    else:
        print(text)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.graph.metrics import summarize_costs
    from repro.graph.passes import build_pipeline, default_inference_pipeline
    from repro.zoo import build_model

    if args.model not in available_models():
        print(
            f"transform: unknown model {args.model!r}; see `repro models`",
            file=sys.stderr,
        )
        return 2
    image = max(args.image, get_entry(args.model).min_image_size)
    graph = build_model(args.model, image)
    try:
        pipeline = (
            build_pipeline(tuple(args.passes), name="custom")
            if args.passes
            else default_inference_pipeline()
        )
    except KeyError as exc:
        print(f"transform: {exc.args[0]}", file=sys.stderr)
        return 2
    result = pipeline.run(graph)

    print(f"{args.model}@{image}: pipeline {pipeline.name!r} "
          f"(fingerprint {pipeline.fingerprint()})")
    for res in result.results:
        print(
            f"  {res.pass_name:22s}{res.nodes_before:4d} -> "
            f"{res.nodes_after:4d} nodes  ({res.changed} rewrites)"
        )
    before = summarize_costs(graph)
    after = summarize_costs(result.graph)
    print(f"  {'metric':14s}{'before':>16s}{'after':>16s}")
    for label, attr in (
        ("FLOPs (F)", "flops"),
        ("conv in (I)", "conv_input_elems"),
        ("conv out (O)", "conv_output_elems"),
        ("weights (W)", "weights"),
        ("layers (L)", "layers"),
        ("activations", "total_output_elems"),
    ):
        print(f"  {label:14s}{getattr(before, attr):16,d}"
              f"{getattr(after, attr):16,d}")
    if args.diff:
        renames = result.renames()
        removed = result.removed()
        print(f"  fused layers ({len(renames)}):")
        for fused, sources in sorted(renames.items()):
            print(f"    {' + '.join(sources)} -> {fused}")
        if removed:
            print(f"  removed dead layers ({len(removed)}): "
                  + ", ".join(removed))
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.analysis.audit import ModelAuditError
    from repro.core.persistence import load_audit_block

    data = Dataset.from_json(args.data)
    if args.backend is not None:
        data = data.for_backend(args.backend)
        if not len(data):
            print(
                f"fit: no records measured under backend "
                f"{args.backend or 'roofline'!r} in {args.data}",
                file=sys.stderr,
            )
            return 2
    if args.exclude:
        data = data.excluding_model(args.exclude)
    model = (
        ForwardModel(method=args.method)
        if args.kind == "forward"
        else TrainingStepModel(method=args.method)
    )
    model.fit(data)
    try:
        save_model(model, args.out, audit=args.audit)
    except ModelAuditError as exc:
        for diag in exc.diagnostics:
            print(diag.render())
        print(f"fit: refusing to save {args.out} (--audit strict): {exc}")
        return 1
    metrics = model.evaluate(data)
    print(f"fitted {args.kind} model on {len(data)} records: {metrics}")
    block = load_audit_block(args.out)
    if block is not None:
        print(
            f"audit: {block['errors']} errors, {block['warnings']} warnings "
            "(embedded in the model JSON; see `repro audit`)"
        )
    print(f"saved to {args.out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.analysis.audit import audit_model
    from repro.core.persistence import load_audit_block, load_model
    from repro.diagnostics import (
        Diagnostic,
        Severity,
        has_errors,
        render_json,
        render_text,
    )

    data = Dataset.from_json(args.data) if args.data else None
    ignored = set(args.ignore)
    diags = []
    for path in args.models:
        model = load_model(path)
        if data is not None:
            found = audit_model(model, data, ignore=args.ignore)
        else:
            block = load_audit_block(path)
            if block is not None:
                # Replay the audit embedded at save time — it was computed
                # with the full design matrix, which a bare JSON no longer
                # carries.
                found = [
                    Diagnostic(
                        d["rule"], Severity[d["severity"]], d["location"],
                        d["message"], d["hint"],
                    )
                    for d in block["diagnostics"]
                    if d["rule"] not in ignored
                ]
            else:
                found = audit_model(model, ignore=args.ignore)
        diags.extend(
            replace(d, location=f"{path}:{d.location}") for d in found
        )
    if args.format == "json":
        print(render_json(diags, len(args.models), "model"))
    else:
        print(render_text(diags, len(args.models), "model",
                          quiet=args.quiet))
    return 1 if has_errors(diags) else 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.analysis.audit import audit_prediction_query

    model = load_model(args.model)
    pipeline = None
    if args.fuse:
        from repro.graph.passes import default_inference_pipeline

        pipeline = default_inference_pipeline()
    record = graph_record("model", args.network, args.image, pipeline)
    profile, features = record.profile, record.features
    if args.backend:
        backend = get_backend(args.backend)
        training = isinstance(model, TrainingStepModel)
        if not backend.fits(profile, args.batch, training=training):
            print(
                f"warning: configuration exceeds {args.backend} backend "
                f"memory on {backend.device.name} at batch {args.batch}; "
                "the prediction extrapolates past what the device could "
                "measure"
            )
    for diag in audit_prediction_query(
        model, features, args.batch, args.devices, args.nodes,
        factor=args.domain_factor,
    ):
        print(f"warning: {diag.render()}")
    if isinstance(model, TrainingStepModel):
        pred = model.predict_one(
            features, args.batch, devices=args.devices, nodes=args.nodes
        )
        step = pred.total
        print(f"predicted training step: {step * 1e3:.2f} ms "
              f"(fwd {pred.forward * 1e3:.2f} ms, "
              f"bwd+update {pred.backward_plus_update * 1e3:.2f} ms)")
        if args.dataset_size:
            t_epoch = epoch_time(
                step, args.dataset_size, args.batch, args.devices
            )
            print(f"predicted epoch: {t_epoch / 60:.1f} min")
            if args.epochs:
                total = total_training_time(
                    step, args.dataset_size, args.batch, args.epochs,
                    args.devices,
                )
                print(f"predicted full run ({args.epochs} epochs): "
                      f"{total / 3600:.2f} h")
    elif isinstance(model, ForwardModel):
        t = model.predict_one(features, args.batch)
        print(f"predicted inference: {t * 1e3:.3f} ms "
              f"({args.batch / t:.0f} images/s)")
    else:  # pragma: no cover - persistence restricts kinds
        raise SystemExit(f"cannot predict with {type(model).__name__}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ModelRegistry, RegistryError, make_server

    try:
        registry = ModelRegistry(args.registry)
    except RegistryError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    domain_factor = args.domain_factor if args.domain_factor > 0 else None
    server = make_server(
        registry,
        host=args.host,
        port=args.port,
        fuse=args.fuse,
        domain_factor=domain_factor,
        feature_cache_size=args.feature_cache,
    )
    names = ", ".join(registry.names())
    print(f"serving {names} from {args.registry} on {server.url}")
    print("endpoints: POST /predict, GET /healthz, GET /metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.verify import verify_model
    from repro.diagnostics import has_errors, render_json, render_text

    if args.all_zoo:
        names = available_models()
    elif args.models:
        names = list(args.models)
    else:
        raise SystemExit("verify: name at least one model or pass --all-zoo")
    diags = []
    for name in names:
        diags.extend(
            verify_model(name, args.image, ignore=args.ignore,
                         fuse=args.fuse)
        )
    if args.format == "json":
        print(render_json(diags, len(names), "model"))
    else:
        print(render_text(diags, len(names), "model", quiet=args.quiet))
    return 1 if has_errors(diags) else 0


#: Lint rule families, in report order: (domain label, rule-id prefix).
_LINT_DOMAINS = (
    ("determinism", "DET"),
    ("concurrency", "CON"),
    ("performance", "PERF"),
    ("suppressions", "SUP"),
)


def _render_lint_statistics(diags) -> str:
    """Per-domain, per-rule finding counts for ``lint --statistics``."""
    from collections import Counter

    counts = Counter(d.rule for d in diags)
    lines = ["statistics:"]
    for domain, prefix in _LINT_DOMAINS:
        rules = sorted(r for r in counts if r.startswith(prefix))
        total = sum(counts[r] for r in rules)
        lines.append(f"  {domain} ({prefix}): {total}")
        for rule in rules:
            lines.append(f"    {rule}: {counts[rule]}")
    return "\n".join(lines)


def _unknown_lint_rules(ids: Sequence[str]) -> list[str]:
    """The ids in ``ids`` that no lint domain registers, in order."""
    from repro.analysis.concurrency import CONCURRENCY_RULES
    from repro.analysis.perf import PERF_RULES
    from repro.lint import LINT_RULES

    known = {r.rule for r in (*LINT_RULES, *CONCURRENCY_RULES, *PERF_RULES)}
    return [rule for rule in dict.fromkeys(ids) if rule not in known]


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.diagnostics import has_errors, render_json, render_text
    from repro.diagnostics import sort_diagnostics
    from repro.lint import Program, lint_program

    unknown = _unknown_lint_rules([*args.select, *args.ignore])
    if unknown:
        print(
            f"lint: unknown rule id {', '.join(map(repr, unknown))} "
            "(paths go before --select/--ignore, which take every "
            "word after them)",
            file=sys.stderr,
        )
        return 2
    program = Program.load(args.paths)
    diags = []
    if args.domain in ("determinism", "all"):
        diags.extend(lint_program(program))
    if args.domain in ("concurrency", "all"):
        from repro.analysis.concurrency import analyze_program

        diags.extend(analyze_program(program))
    if args.domain in ("performance", "all"):
        from repro.analysis.perf import analyze_program as analyze_perf

        diags.extend(analyze_perf(program))
    if args.ignore:
        unwanted = set(args.ignore)
        diags = [d for d in diags if d.rule not in unwanted]
    if args.select:
        wanted = set(args.select)
        diags = [d for d in diags if d.rule in wanted]
    diags = sort_diagnostics(diags)
    if args.format == "json":
        print(render_json(diags, program.n_files, "file"))
    else:
        print(render_text(diags, program.n_files, "file", quiet=args.quiet))
    if args.statistics:
        print(_render_lint_statistics(diags))
    return 1 if has_errors(diags) else 0


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    from repro.baselines.eval import (
        DEFAULT_LEADERBOARD_MODELS,
        render_leaderboard,
        run_leaderboard,
        write_leaderboard,
    )

    models = tuple(args.models) if args.models else DEFAULT_LEADERBOARD_MODELS
    try:
        payload = run_leaderboard(
            models=models,
            scenarios=tuple(args.scenario),
            seed=args.seed,
            fast=args.fast,
            predictors=tuple(args.predictors),
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"leaderboard: {message}", file=sys.stderr)
        return 2
    print(render_leaderboard(payload))
    if args.out:
        write_leaderboard(payload, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.model_report import block_report
    from repro.zoo import build_model

    model = load_model(args.model)
    if not isinstance(model, ForwardModel):
        raise SystemExit("report requires a forward model (fit --kind forward)")
    graph = build_model(args.network, args.image)
    report = block_report(graph, model, batch=args.batch)
    print(report.render())
    bottleneck = report.bottleneck()
    print(
        f"\nbottleneck: {bottleneck.block} "
        f"({bottleneck.share:.0%} of predicted block time)"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiment = next(e for e in EXPERIMENTS if e.id == args.id)
    print(experiment.runner()().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ConvMeter: ConvNet runtime and scalability prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list zoo architectures").set_defaults(
        func=_cmd_models
    )
    sub.add_parser("blocks", help="list the Table 2 block catalogue"
                   ).set_defaults(func=_cmd_blocks)
    devices = sub.add_parser(
        "devices",
        help="list device presets and registered execution backends",
    )
    devices.add_argument("--format", choices=("text", "json"),
                         default="text")
    devices.set_defaults(func=_cmd_devices)

    _EXIT_CODES = (
        "exit codes: 0 = clean (warnings allowed), "
        "1 = ERROR diagnostics found, 2 = usage error"
    )
    verify = sub.add_parser(
        "verify",
        help="statically verify graph IRs (shapes, topology, metric "
             "accounting)",
        epilog=_EXIT_CODES,
    )
    verify.add_argument("models", nargs="*",
                        help="zoo model names to verify")
    verify.add_argument("--all-zoo", action="store_true",
                        help="verify every registered zoo architecture")
    verify.add_argument("--image", type=int, default=224,
                        help="square image size (clamped up to each "
                             "model's minimum)")
    verify.add_argument("--ignore", nargs="*", default=(), metavar="RULE",
                        help="rule ids to suppress (e.g. IR005)")
    verify.add_argument("--format", choices=("text", "json"),
                        default="text")
    verify.add_argument("--quiet", action="store_true",
                        help="print only the one-line summary")
    verify.add_argument("--fuse", action="store_true",
                        help="additionally verify the fused inference "
                             "graph and its semantic preservation (IR008)")
    verify.set_defaults(func=_cmd_verify)

    transform = sub.add_parser(
        "transform",
        help="apply graph transformation passes and report the effect",
        epilog="exit codes: 0 = transformed, 2 = unknown model or pass",
    )
    transform.add_argument("model",
                           help="zoo model name (see `repro models`)")
    transform.add_argument("--image", type=int, default=224,
                           help="square image size (clamped up to the "
                                "model's minimum)")
    transform.add_argument("--passes", nargs="*", default=(),
                           metavar="PASS",
                           help="pass names to run in order (default: the "
                                "inference pipeline; see docs/"
                                "transforms.md)")
    transform.add_argument("--diff", action="store_true",
                           help="also print the fused-layer mapping and "
                                "removed dead layers")
    transform.set_defaults(func=_cmd_transform)

    lint = sub.add_parser(
        "lint",
        help="lint code for determinism hazards (unbounded caches, "
             "wall-clock reads, float == on runtimes), concurrency "
             "hazards (lock discipline, thread-hostile APIs), or "
             "hot-path performance hazards (per-element loops over "
             "vectorizable work)",
        epilog=_EXIT_CODES,
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint "
                           "(default: src/repro)")
    lint.add_argument("--domain",
                      choices=("determinism", "concurrency",
                               "performance", "all"),
                      default="determinism",
                      help="which rule family to run: determinism "
                           "(DET0xx, per-file), concurrency (CON0xx, "
                           "whole-program lock/race analysis), "
                           "performance (PERF0xx, hot-path "
                           "vectorization/allocation analysis), or all")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--quiet", action="store_true",
                      help="print only the one-line summary")
    lint.add_argument("--select", nargs="*", default=(), metavar="RULE",
                      help="report only these rule ids (e.g. DET006); "
                           "give paths before this option")
    lint.add_argument("--ignore", nargs="*", default=(), metavar="RULE",
                      help="rule ids to drop from the report (e.g. "
                           "CON008); give paths before this option")
    lint.add_argument("--statistics", action="store_true",
                      help="append per-domain, per-rule finding counts "
                           "after the report")
    lint.set_defaults(func=_cmd_lint)

    audit = sub.add_parser(
        "audit",
        help="statistically audit fitted model artifacts (coefficient "
             "signs, collinearity, leverage, extrapolation domain)",
        epilog=_EXIT_CODES,
    )
    audit.add_argument("models", nargs="+", metavar="MODEL_JSON",
                       help="saved model JSON files to audit")
    audit.add_argument("--data", default=None,
                       help="campaign JSON the model was fitted on; "
                            "re-derives design matrices and enables the "
                            "data-dependent rules (FIT002/3/5/6)")
    audit.add_argument("--ignore", nargs="*", default=(), metavar="RULE",
                       help="rule ids to suppress (e.g. FIT007)")
    audit.add_argument("--format", choices=("text", "json"),
                       default="text")
    audit.add_argument("--quiet", action="store_true",
                       help="print only the one-line summary")
    audit.set_defaults(func=_cmd_audit)

    campaign = sub.add_parser("campaign", help="run a benchmark campaign")
    campaign.add_argument(
        "--scenario",
        choices=("inference", "training", "distributed", "blocks"),
        default="inference",
    )
    campaign.add_argument("--device", default=None,
                          choices=sorted(DEVICE_PRESETS),
                          help="hardware preset (default: the backend's "
                               "default device; a100-80gb for roofline)")
    campaign.add_argument("--backend", default="",
                          choices=sorted(BACKEND_REGISTRY),
                          help="execution backend (see `repro devices`; "
                               "default: roofline)")
    campaign.add_argument("--models", nargs="*", default=None,
                          help="zoo models to sweep, or Table 2 block "
                               "names with --scenario blocks (see `repro "
                               "models` / `repro blocks`)")
    campaign.add_argument("--nodes", nargs="*", type=int,
                          default=(1, 2, 4, 8),
                          help="node counts (distributed scenario)")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--max-seconds", type=float, default=None,
                          help="skip configs slower than this estimate")
    campaign.add_argument("--workers", type=int, default=1,
                          help="process-pool size; 1 runs in-process "
                               "(records are identical either way)")
    campaign.add_argument("--store", default=None,
                          help="directory for the resumable record store "
                               "(JSONL + manifest)")
    campaign.add_argument("--resume", action="store_true",
                          help="continue an interrupted campaign from "
                               "--store, skipping recorded points")
    campaign.add_argument("--strict", action="store_true",
                          help="refuse to measure any graph with ERROR "
                               "verification diagnostics (default: warn "
                               "and measure anyway)")
    campaign.add_argument("--no-verify", action="store_true",
                          help="skip pre-measurement graph verification")
    campaign.add_argument("--fuse", action="store_true",
                          help="measure inference-fused graphs (BatchNorm "
                               "folding + activation fusion; see "
                               "`repro transform`)")
    campaign.add_argument("--trace", default=None, metavar="PATH",
                          help="also write a Chrome-format trace of the "
                               "full sweep (serial post-pass; records and "
                               "stats are unchanged)")
    campaign.add_argument("-o", "--out", required=True)
    campaign.set_defaults(func=_cmd_campaign)

    trace = sub.add_parser(
        "trace",
        help="trace one simulated measurement (spans + work counters)",
        epilog="exit codes: 0 = trace written, 1 = configuration does not "
               "fit device memory, 2 = unknown model",
    )
    trace.add_argument("model", help="zoo model name (see `repro models`)")
    trace.add_argument("--device", default=None,
                       choices=sorted(DEVICE_PRESETS),
                       help="hardware preset (default: the backend's "
                            "default device; a100-80gb for roofline)")
    trace.add_argument("--backend", default="",
                       choices=sorted(BACKEND_REGISTRY),
                       help="execution backend (see `repro devices`)")
    trace.add_argument("--image", type=int, default=224,
                       help="square image size (clamped up to the model's "
                            "minimum)")
    trace.add_argument("--batch", type=int, default=1)
    trace.add_argument("--phase",
                       choices=("inference", "step", "distributed"),
                       default="inference",
                       help="what to measure: forward pass, single-device "
                            "training step, or data-parallel step")
    trace.add_argument("--nodes", type=int, default=2,
                       help="cluster nodes (--phase distributed)")
    trace.add_argument("--gpus-per-node", type=int, default=4)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--fuse", action="store_true",
                       help="trace the fused inference graph (spans carry "
                            "fused names like conv+bn+relu)")
    trace.add_argument("--format", choices=("tree", "json", "chrome"),
                       default="tree",
                       help="text tree, full span JSON, or a "
                            "chrome://tracing / Perfetto-loadable file")
    trace.add_argument("-o", "--out", default=None,
                       help="write to a file instead of stdout")
    trace.set_defaults(func=_cmd_trace)

    fit = sub.add_parser("fit", help="fit a performance model")
    fit.add_argument("--data", required=True, help="campaign JSON file")
    fit.add_argument("--kind", choices=("forward", "step"),
                     default="forward")
    fit.add_argument("--method", choices=("ols", "nnls"), default="ols",
                     help="regression solver; nnls constrains "
                          "coefficients to be non-negative (the FIT001 "
                          "fix)")
    fit.add_argument("--exclude", default=None,
                     help="hold out one model (leave-one-out)")
    fit.add_argument("--backend", default=None,
                     choices=sorted(BACKEND_REGISTRY),
                     help="fit only records measured under this backend "
                          "(default: use every record)")
    fit.add_argument("--audit", choices=("warn", "strict", "off"),
                     default="warn",
                     help="fitted-model audit gate: warn embeds the audit "
                          "block and warns on ERRORs, strict refuses to "
                          "save on ERRORs, off skips auditing")
    fit.add_argument("-o", "--out", required=True)
    fit.set_defaults(func=_cmd_fit)

    predict = sub.add_parser("predict", help="predict with a saved model")
    predict.add_argument("--model", required=True, help="model JSON file")
    predict.add_argument("--network", required=True)
    predict.add_argument("--image", type=int, default=224)
    predict.add_argument("--batch", type=int, default=1)
    predict.add_argument("--devices", type=int, default=1)
    predict.add_argument("--nodes", type=int, default=1)
    predict.add_argument("--dataset-size", type=int, default=None)
    predict.add_argument("--epochs", type=int, default=None)
    predict.add_argument("--domain-factor", type=float, default=10.0,
                         help="flag queries beyond this multiple of the "
                              "fitted feature range (FIT004)")
    predict.add_argument("--fuse", action="store_true",
                         help="predict from the fused inference graph's "
                              "metric vector")
    predict.add_argument("--backend", default="",
                         choices=sorted(BACKEND_REGISTRY),
                         help="warn when the configuration would not fit "
                              "this backend's memory accounting")
    predict.set_defaults(func=_cmd_predict)

    serve = sub.add_parser(
        "serve",
        help="serve predictions over HTTP from a registry of fitted "
             "models (see docs/serving.md)",
        epilog="exit codes: 0 = clean shutdown, "
               "2 = unusable registry or artifact",
    )
    serve.add_argument("--registry", required=True,
                       help="directory of v2 model artifacts (+ optional "
                            "registry.json manifest)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8151,
                       help="listen port (0 picks an ephemeral one)")
    serve.add_argument("--fuse", action="store_true",
                       help="default queries to the fused inference "
                            "graph's metric vector (per-query 'fuse' "
                            "overrides)")
    serve.add_argument("--domain-factor", type=float, default=10.0,
                       help="flag query features beyond this multiple of "
                            "the fitted range per response (FIT004); "
                            "<= 0 disables")
    serve.add_argument("--feature-cache", type=int, default=512,
                       help="max entries of the (network, image, "
                            "transform) feature-vector LRU cache")
    serve.set_defaults(func=_cmd_serve)

    leaderboard = sub.add_parser(
        "leaderboard",
        help="leave-one-out leaderboard racing every baseline predictor "
             "(ConvMeter, PALEO, NeuralPower, DIPPM, ResPerfNet, "
             "PerfSeer, PreNeT) on seeded campaigns",
        epilog="exit codes: 0 = leaderboard rendered/written, "
               "2 = unknown scenario/predictor or bad model set",
    )
    leaderboard.add_argument("--models", nargs="*", default=None,
                             help="networks to race over (>= 2; default: "
                                  "the common-ground zoo subset)")
    leaderboard.add_argument("--scenario", nargs="*", metavar="NAME",
                             default=list(_LEADERBOARD_SCENARIOS),
                             help="scenarios to run "
                                  f"(default: {' '.join(_LEADERBOARD_SCENARIOS)})")
    leaderboard.add_argument("--predictors", nargs="*", metavar="NAME",
                             default=list(_LEADERBOARD_PREDICTORS),
                             help="suite members to race "
                                  f"(default: {' '.join(_LEADERBOARD_PREDICTORS)})")
    leaderboard.add_argument("--seed", type=int, default=0)
    leaderboard.add_argument("--fast", action="store_true",
                             help="reduced sweep grid + small learned "
                                  "models (CI-sized; still deterministic)")
    leaderboard.add_argument("-o", "--out", default=None,
                             help="also write the schema-validated "
                                  "BENCH_leaderboard.json payload here")
    leaderboard.set_defaults(func=_cmd_leaderboard)

    report = sub.add_parser(
        "report", help="block-level latency report for one network"
    )
    report.add_argument("--model", required=True,
                        help="saved forward model JSON")
    report.add_argument("--network", required=True)
    report.add_argument("--image", type=int, default=224)
    report.add_argument("--batch", type=int, default=1)
    report.set_defaults(func=_cmd_report)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("id", choices=sorted(e.id for e in EXPERIMENTS))
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        # An input file (dataset, model artifact) that is unreadable or
        # has the wrong shape is a usage error, reported without a
        # traceback.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early (e.g. `repro trace ... | head`); exit
        # quietly on a detached stream rather than dumping a traceback.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
