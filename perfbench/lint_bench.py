"""``lint`` workload: ``repro lint --domain all`` over a frozen corpus.

The corpus is ``corpus/repro-src.tar.gz``, a snapshot of the package
source (119 files, 23,876 lines) taken when the benchmark was defined, so
the workload does not drift as the live tree changes.  Each sample is a
fresh interpreter that unpacks the corpus, imports the CLI and times the
three domain calls ``repro lint --domain all`` makes.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tarfile
import time
from pathlib import Path

from harness import (
    BENCH_DIR,
    ChildFailed,
    median,
    peak_rss_mb,
    run_child,
    samples_note,
)
from spans import install_layers, layer_totals

CORPUS = BENCH_DIR / "corpus" / "repro-src.tar.gz"
#: Files, lines and content digest of the frozen corpus.
CORPUS_FILES = 119
CORPUS_LINES = 23876
CORPUS_SHA256 = (
    "37129624bed9ee258822c73b97b76c2b5d5eefed6367e31f5f3aa547dd698b5e"
)
#: Rules that mean "this file could not be read or parsed", per domain.
PARSE_FAILURE_RULES = ("DET000", "CON000", "PERF000")
DOMAINS = 3

#: Fewest samples per untraced run, however short ``--seconds``.
MIN_SAMPLES = 5

LINT_LAYERS = ("lint.rules", "analysis.concurrency", "analysis.perf")


def unpack_corpus(dest: Path) -> None:
    """Extract the corpus under ``dest`` and check it is the frozen one."""
    digest = hashlib.sha256()
    lines = 0
    with tarfile.open(CORPUS, "r:gz") as tar:
        members = sorted(tar.getmembers(), key=lambda m: m.name)
        for member in members:
            if not member.isfile() or member.name.startswith(("/", "..")):
                raise ValueError(f"unexpected corpus member {member.name!r}")
            data = tar.extractfile(member).read()
            digest.update(member.name.encode() + b"\0" + data + b"\0")
            lines += data.count(b"\n")
            target = dest / member.name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
    found = (len(members), lines, digest.hexdigest())
    if found != (CORPUS_FILES, CORPUS_LINES, CORPUS_SHA256):
        raise ValueError(f"corpus is not the frozen snapshot: {found}")


# -- child (runs in a fresh interpreter) -------------------------------------


def child_lint(args: dict) -> dict:
    import repro.cli  # noqa: F401 - `repro lint` pays this import
    import repro.analysis.concurrency
    import repro.analysis.perf
    import repro.lint

    recorder = None
    if args["trace"]:
        recorder = install_layers(LINT_LAYERS)
        parse = ast.parse

        def counted_parse(*a, **kw):
            recorder.count("lint.parses")
            return parse(*a, **kw)

        ast.parse = counted_parse
    work = Path(args["dir"])
    unpack_corpus(work)
    os.chdir(work)  # diagnostics then name files as repro/..., every run
    paths = ["repro"]
    setup_s = time.monotonic() - args["t0"]
    start = time.perf_counter()
    det, n_det = repro.lint.lint_paths(paths)
    con, n_con = repro.analysis.concurrency.analyze_paths(paths)
    perf, n_perf = repro.analysis.perf.analyze_paths(paths)
    end = time.perf_counter()
    rss_mb = peak_rss_mb()
    diags = [d.to_dict() for d in det + con + perf]
    out = {
        "setup_s": setup_s,
        "window_s": end - start,
        "rss_mb": rss_mb,
        "files": [n_det, n_con, n_perf],
        "diagnostics": len(diags),
        "parse_failures": sum(
            d["rule"] in PARSE_FAILURE_RULES for d in diags
        ),
        "diagnostics_sha256": hashlib.sha256(
            json.dumps(diags, sort_keys=True).encode()
        ).hexdigest(),
    }
    if recorder is not None:
        out["layers"] = recorder.totals()
        out["parses"] = recorder.counts["lint.parses"]
        out["cover_s"] = recorder.root_time(start, end)
    return out


# -- parent ------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    # The corpus is fixed; ``seed`` only names the run.
    problems: list[str] = []
    notes: list[str] = []
    samples: list[dict] = []
    attempted = failed = 0

    def sample(traced: bool) -> dict | None:
        nonlocal attempted, failed
        sample_dir = work / f"sample{len(samples)}"
        sample_dir.mkdir()
        attempted += CORPUS_FILES * DOMAINS
        try:
            out = run_child("lint", {"dir": str(sample_dir), "trace": traced},
                            sample_dir)
        except ChildFailed as exc:
            failed += CORPUS_FILES * DOMAINS
            problems.append(str(exc))
            return None
        failed += out["parse_failures"]
        if out["files"] != [CORPUS_FILES] * DOMAINS:
            problems.append(f"domains analyzed {out['files']} files")
        if samples and out["diagnostics_sha256"] != (
            samples[0]["diagnostics_sha256"]
        ):
            problems.append("diagnostics differ between runs")
        samples.append(out)
        return out

    metrics: dict = {}
    if trace:
        # Untraced samples bracket the traced one, so drift cancels out of
        # the overhead estimate.
        before = sample(False)
        traced = sample(True)
        after = sample(False)
        if before and traced and after:
            plain_s = median([before["window_s"], after["window_s"]])
            metrics = _layer_metrics(plain_s, traced, problems)
    else:
        begin = time.monotonic()
        while len(samples) < MIN_SAMPLES or time.monotonic() - begin < seconds:
            if sample(False) is None:
                break
        if not problems:
            # One operation is one file analyzed by one domain, as counted
            # in ``attempted``; a pass is one ``repro lint --domain all``.
            ops = [CORPUS_FILES * DOMAINS / s["window_s"] for s in samples]
            pass_ms = [1e3 * s["window_s"] for s in samples]
            setups = [s["setup_s"] for s in samples]
            notes += [samples_note("ops_per_s (file analyses/s)", ops),
                      samples_note("p50_ms (lint pass)", pass_ms),
                      samples_note("setup_s", setups),
                      f"kLOC/s median {CORPUS_LINES / median(pass_ms):.4g}"]
            metrics = {
                "setup_s": median(setups),
                "peak_rss_mb": median([s["rss_mb"] for s in samples]),
                "ops_per_s": median(ops),
                "p50_ms": median(pass_ms),
            }
    if samples:
        notes.append(f"{samples[0]['diagnostics']} diagnostics, sha256 "
                     f"{samples[0]['diagnostics_sha256']}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes + problems,
    }


def _layer_metrics(plain_s: float, traced: dict, problems: list) -> dict:
    layers = traced["layers"]
    for name in LINT_LAYERS:
        if name not in layers:
            problems.append(f"traced lint recorded no {name} calls")
    if not traced["parses"]:
        problems.append("traced lint counted no ast.parse calls")
    return {
        "lint.rules.s": layer_totals(layers, "lint.rules")[0],
        "analysis.concurrency.s": layer_totals(
            layers, "analysis.concurrency")[0],
        "analysis.perf.s": layer_totals(layers, "analysis.perf")[0],
        "lint.parses": traced["parses"],
        "lint.files": traced["files"][0],
        "lint.diagnostics": traced["diagnostics"],
        "bench.span_cover": traced["cover_s"] / traced["window_s"],
        "bench.trace_overhead_s": traced["window_s"] - plain_s,
    }
