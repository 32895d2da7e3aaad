"""Benchmark of the three user journeys: campaign, serve and lint.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that reports the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every
correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from harness import ROOT, SRC, child_env, median

WORKLOADS = ("campaign", "serve", "lint")


def _import_seconds(samples: int = 3) -> float:
    """Median wall time of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        times.append(float(out.strip().splitlines()[-1]))
    return median(times)


def _catalogue() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _catalogue()
    sys.path.insert(0, str(SRC))  # the serve workload fits in-process
    # A terminated benchmark still stops its servers and children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    module = importlib.import_module(f"{args.workload}_bench")
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    begin = time.monotonic()
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    values = dict(result["metrics"])
    units = per_layer if args.trace else end_to_end
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    if args.trace:
        values["import_s"] = _import_seconds()
        # Layers a workload does not touch read zero: they should stay flat.
        values = {name: values.get(name, 0.0) for name in units}
    elif result["correct"]:
        # Every workload reports every end-to-end metric of the catalogue.
        missing = sorted(set(units) - set(values))
        if missing:
            raise KeyError(f"{args.workload} did not measure {missing}")
    for note in result["notes"]:
        print(f"{args.workload}: {note}")
    print(f"{args.workload}: run took {time.monotonic() - begin:.1f} s")
    payload = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(payload), flush=True)
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
