"""On-disk campaign record store: append-only JSONL plus a manifest.

Layout of a store directory::

    manifest.json    # spec fingerprint + status; written once, updated last
    records.jsonl    # one line per completed sweep point, appended live

Each JSONL line is ``{"key": <point key>, "records": [<record dicts>]}``.
Gated points (out of memory, over the runtime budget) are logged with an
empty record list, so a resumed run restores the *decision*, not just the
measurements, and never re-profiles a configuration it already rejected.

A truncated trailing line — the signature of a killed process — is ignored
on load and cut off before the next append, so that point is simply
re-measured onto a clean line.  Because every measurement is seeded by
point identity (:func:`repro.hardware.noise.point_seed`), an
interrupted-then-resumed campaign is byte-identical to an uninterrupted one.
The manifest is replaced atomically, so a crash while writing it leaves
the previous version in place.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, IO

from repro.benchdata.records import TimingRecord

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids cycle
    from repro.benchdata.engine import CampaignSpec, CampaignStats

_MANIFEST = "manifest.json"
_RECORDS = "records.jsonl"
_VERSION = 1


class StoreMismatch(ValueError):
    """The store on disk was written by a different campaign spec."""


def _write_manifest(path: Path, manifest: dict) -> None:
    """Replace ``path`` whole: readers see the old manifest or the new one,
    never a torn write."""
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(tmp, path)


def _cut_torn_tail(path: Path) -> None:
    """Truncate ``path`` after its last newline, dropping a torn record."""
    if not path.exists() or path.stat().st_size == 0:
        return
    with path.open("rb+") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)


class CampaignStore:
    """Resumable record log for one campaign."""

    def __init__(self, directory: str | Path, spec: "CampaignSpec") -> None:
        self.directory = Path(directory)
        self.spec = spec
        self._handle: IO[str] | None = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | Path,
        spec: "CampaignSpec",
        resume: bool = False,
    ) -> "CampaignStore":
        """Create a fresh store, or re-open an existing one for resume.

        Opening an existing store without ``resume`` raises, so a stale
        directory is never silently mixed into a new campaign; resuming a
        store written by a different spec raises :class:`StoreMismatch`.
        """
        store = cls(directory, spec)
        manifest_path = store.directory / _MANIFEST
        if manifest_path.exists():
            if not resume:
                raise FileExistsError(
                    f"campaign store {store.directory} already exists; "
                    "pass resume=True (CLI: --resume) or remove it"
                )
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("fingerprint") != spec.fingerprint():
                raise StoreMismatch(
                    f"store {store.directory} was written by a different "
                    "campaign spec; refusing to mix record streams"
                )
        else:
            store.directory.mkdir(parents=True, exist_ok=True)
            _write_manifest(
                manifest_path,
                {
                    "version": _VERSION,
                    "fingerprint": spec.fingerprint(),
                    "spec": spec.manifest(),
                    "complete": False,
                },
            )
        return store

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- record log --------------------------------------------------------

    @property
    def records_path(self) -> Path:
        return self.directory / _RECORDS

    def restored_points(self) -> dict[str, list[TimingRecord]]:
        """Completed points already on disk, keyed by sweep-point key."""
        done: dict[str, list[TimingRecord]] = {}
        if not self.records_path.exists():
            return done
        with self.records_path.open() as fh:
            for line in fh:
                # A line without its newline is a torn write, even when it
                # happens to parse: append() cuts it before writing on.
                if not line.endswith("\n"):
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    records = [
                        TimingRecord.from_dict(d) for d in entry["records"]
                    ]
                except (ValueError, KeyError):
                    # Truncated/corrupt tail of an interrupted run: drop the
                    # line; the engine re-measures that point identically.
                    continue
                done[entry["key"]] = records
        return done

    def append(
        self, key: str, records: list[TimingRecord], status: str = ""
    ) -> None:
        """Log one completed point (empty ``records`` = gated out).

        ``status`` marks *why* a point has no records — ``"oom"`` for
        memory-gated points (the edge-backend frontier perf4sight maps) or
        ``"budget"`` for runtime-budget gating.  It is omitted for measured
        points, so pre-status stores remain byte-identical, and it is
        deterministic: gating depends only on ``(spec, point)``.
        """
        if self._handle is None:
            _cut_torn_tail(self.records_path)
            self._handle = self.records_path.open("a")
        entry: dict = {"key": key, "records": [r.to_dict() for r in records]}
        if status:
            entry["status"] = status
        line = json.dumps(entry)
        self._handle.write(line + "\n")
        self._handle.flush()

    def finalize(self, stats: "CampaignStats") -> None:
        """Mark the campaign complete and persist its throughput counters."""
        self.close()
        manifest_path = self.directory / _MANIFEST
        manifest = json.loads(manifest_path.read_text())
        manifest["complete"] = True
        manifest["stats"] = stats.to_dict()
        _write_manifest(manifest_path, manifest)
