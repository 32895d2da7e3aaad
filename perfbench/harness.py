"""Process plumbing and statistics shared by the three workloads.

Every measured sample runs in a fresh interpreter (``child.py``), as a CLI
invocation does, so cold caches come from the new process.  A child prints
one JSON object as its last line of standard output; :func:`run_child`
returns it, or raises :class:`ChildFailed` after the child has been reaped.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"

#: Longest a single child may run before it is killed, seconds.
CHILD_TIMEOUT_S = 120.0


class ChildFailed(RuntimeError):
    """A measurement child exited non-zero, timed out or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(kind: str, args: dict, cwd: Path) -> dict:
    """Run ``child.py kind`` in a fresh interpreter; returns its result.

    ``args["t0"]`` is set to the monotonic clock just before the process
    is spawned, so the child can report its set-up time from interpreter
    start (the clock is system-wide on Linux).
    """
    args = dict(args, t0=time.monotonic())
    cmd = [sys.executable, str(CHILD), kind, json.dumps(args)]
    with subprocess.Popen(
        cmd, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{kind} child timed out") from None
        except BaseException:
            # Interrupted or terminated: stop the child before waiting on it.
            proc.kill()
            raise
    if proc.returncode != 0:
        raise ChildFailed(
            f"{kind} child exited {proc.returncode}:\n{err.strip()[-4000:]}"
        )
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{kind} child printed no result")
    return json.loads(lines[-1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def peak_rss_mb() -> float:
    """This process's peak resident set size, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set size (``VmHWM``), MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def samples_note(name: str, values: list[float]) -> str:
    listed = " ".join(f"{v:.4g}" for v in values)
    return (f"{name}: median {median(values):.6g} over {len(values)} "
            f"samples [{listed}]")

