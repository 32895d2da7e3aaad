"""On-disk campaign record store: append-only JSONL plus a manifest.

Layout of a store directory::

    manifest.json    # spec fingerprint + status; written once, updated last
    records.jsonl    # one line per completed sweep point, appended
                     # one (model, image) grid at a time

Each JSONL line is ``{"key": <point key>, "records": [<record dicts>]}``,
exactly as ``json.dumps`` writes it.  The records are encoded by
:func:`repro.benchdata.records.encode_records`, the encoder
:meth:`Dataset.to_json <repro.benchdata.records.Dataset.to_json>` uses, and
read back through the same :class:`~repro.benchdata.records.RecordDecoder`
as datasets; the log is decoded in place from the file text.
Gated points (out of memory, over the runtime budget) are logged with an
empty record list, so a resumed run restores the *decision*, not just the
measurements, and never re-profiles a configuration it already rejected.

A truncated trailing line — the signature of a killed process — is ignored
on load and cut off before the next append, so that point (and any point
of its grid never written) is simply re-measured onto a clean line.
Because every measurement is seeded by point identity
(:func:`repro.hardware.noise.point_seed`), an interrupted-then-resumed
campaign is byte-identical to an uninterrupted one.
The manifest is replaced atomically, so a crash while writing it leaves
the previous version in place.

A finalized manifest also carries the campaign's graph verdicts::

    "verdicts": {"rules": ["IR001", ...],           # IR_RULES ids
                 "graphs": {"<name>@<image>": [<Diagnostic dicts>]}}

so a resume re-verifies only graphs without a verdict.  The spec
fingerprint already pins everything else a verdict depends on (transform,
IR007 gate, edge batch); the rule-id stamp retires verdicts written under
a different rule set.  A manifest that cannot be read back raises
:class:`StoreCorrupt`, naming the file and the key.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, IO, Iterable

from repro.benchdata.records import (
    RecordDecoder,
    TimingRecord,
    encode_records,
)
from repro.diagnostics import Diagnostic
from repro.fileio import write_text_atomic

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids cycle
    from repro.benchdata.engine import CampaignSpec, CampaignStats

_MANIFEST = "manifest.json"
_RECORDS = "records.jsonl"
_VERSION = 1


class StoreMismatch(ValueError):
    """The store on disk was written by a different campaign spec."""


class StoreCorrupt(ValueError):
    """The store manifest on disk cannot be read back."""


#: Persisted graph verdicts, keyed ``"<name>@<image>"``.
Verdicts = dict[str, tuple[Diagnostic, ...]]


def _rule_stamp() -> list[str]:
    """Rule ids of the IR verifier that produced (or would produce) a
    verdict; imported on first use, as only verified runs need it."""
    from repro.analysis.verify import IR_RULES

    return [rule.rule for rule in IR_RULES]


def _load_manifest(path: Path) -> tuple[dict, list[str], Verdicts]:
    """Parse and check a manifest; returns it with its verdict block's
    rule stamp and verdicts (``[]`` and ``{}`` when it has none)."""
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise StoreCorrupt(f"{path}: unparsable manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise StoreCorrupt(f"{path}: manifest is not a JSON object")
    if not isinstance(manifest.get("fingerprint"), str):
        raise StoreCorrupt(f"{path}: key 'fingerprint' is missing")
    block = manifest.get("verdicts")
    if block is None:
        return manifest, [], {}
    if not (
        isinstance(block, dict)
        and isinstance(block.get("rules"), list)
        and all(isinstance(r, str) for r in block["rules"])
        and isinstance(block.get("graphs"), dict)
    ):
        raise StoreCorrupt(
            f"{path}: key 'verdicts' must hold a 'rules' list of rule ids "
            "and a 'graphs' object"
        )
    verdicts: Verdicts = {}
    for key, diags in block["graphs"].items():
        try:
            if not isinstance(diags, list):
                raise TypeError(f"expected a list, got {type(diags).__name__}")
            verdicts[key] = tuple(Diagnostic.from_dict(d) for d in diags)
        except (KeyError, TypeError) as exc:
            raise StoreCorrupt(
                f"{path}: key 'verdicts.graphs.{key}' is malformed ({exc!r})"
            ) from exc
    return manifest, block["rules"], verdicts


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


_DECODER = json.JSONDecoder()


def _parse_line(text: str, start: int, end: int) -> object:
    """``json.loads(text[start:end].strip())``, decoded in place when the
    line is one JSON value from its first character, as ``append`` writes
    every line; raises ``ValueError`` when the line does not parse."""
    if not text[start].isspace():
        try:
            entry, stop = _DECODER.raw_decode(text, start)
        except ValueError:
            pass
        else:
            if stop <= end and not text[stop:end].strip():
                return entry
    return json.loads(text[start:end].strip())


def _read_log(text: str) -> dict[str, list[TimingRecord]]:
    """The points of a record log's text, keyed by sweep-point key; a
    later line for a key wins.

    A line without its newline is a torn write, even when it happens to
    parse: reading stops there (``append`` cuts it before writing on).
    Blank lines are skipped.  A line that does not parse, or parses to the
    wrong shape, is dropped: the engine re-measures that point
    identically.
    """
    decoder = RecordDecoder()
    done: dict[str, list[TimingRecord]] = {}
    start = 0
    while (end := text.find("\n", start)) >= 0:
        try:
            entry = _parse_line(text, start, end)
            done[entry["key"]] = decoder.records(entry["records"])
        except (ValueError, KeyError, TypeError):
            pass
        start = end + 1
    return done


class CampaignStore:
    """Resumable record log for one campaign."""

    def __init__(self, directory: str | Path, spec: "CampaignSpec") -> None:
        self.directory = Path(directory)
        self.spec = spec
        self._handle: IO[str] | None = None
        #: Rule stamp and verdicts read from the manifest on resume.
        self._rules: list[str] = []
        self._verdicts: Verdicts = {}

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
        store written by a different spec raises :class:`StoreMismatch`,
        and one whose manifest cannot be read raises :class:`StoreCorrupt`.
        """
        store = cls(directory, spec)
        manifest_path = store.directory / _MANIFEST
        if manifest_path.exists():
            if not resume:
                raise FileExistsError(
                    f"campaign store {store.directory} already exists; "
                    "pass resume=True (CLI: --resume) or remove it"
                )
            manifest, store._rules, store._verdicts = _load_manifest(
                manifest_path
            )
            if manifest["fingerprint"] != spec.fingerprint():
                raise StoreMismatch(
                    f"store {store.directory} was written by a different "
                    "campaign spec; refusing to mix record streams"
                )
        else:
            store.directory.mkdir(parents=True, exist_ok=True)
            manifest = {
                "version": _VERSION,
                "fingerprint": spec.fingerprint(),
                "spec": spec.manifest(),
                "complete": False,
            }
            write_text_atomic(manifest_path, json.dumps(manifest, indent=2))
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
        if not self.records_path.exists():
            return {}
        return _read_log(self.records_path.read_text())

    def append(
        self, entries: "Iterable[tuple[str, list[TimingRecord], str]]"
    ) -> None:
        """Log completed points, one line each, in one write and one flush.

        Each entry is ``(key, records, status)``; empty ``records`` means
        gated out, and ``status`` marks *why* — ``"oom"`` for memory-gated
        points (the edge-backend frontier perf4sight maps) or ``"budget"``
        for runtime-budget gating.  It is omitted for measured points, so
        pre-status stores remain byte-identical, and it is deterministic:
        gating depends only on the spec, the graph and the batch.  The
        engine appends one grid's points per call.
        """
        if self._handle is None:
            _cut_torn_tail(self.records_path)
            self._handle = self.records_path.open("a")
        entries = list(entries)
        encoded = iter(encode_records(
            [r for _, records, _ in entries for r in records]
        ))
        lines = []
        for key, records, status in entries:
            # json.dumps of {"key": key, "records": [...], "status": status}
            body = ", ".join([next(encoded) for _ in records])
            extra = f', "status": {json.dumps(status)}' if status else ""
            lines.append(
                f'{{"key": {json.dumps(key)}, "records": [{body}]{extra}}}\n'
            )
        self._handle.write("".join(lines))
        self._handle.flush()

    def persisted_verdicts(self) -> Verdicts:
        """Graph verdicts a finalized run left, keyed ``"<name>@<image>"``;
        empty when there are none or a different IR rule set wrote them."""
        return self._verdicts if self._rules == _rule_stamp() else {}

    def finalize(
        self, stats: "CampaignStats", verdicts: Verdicts | None = None
    ) -> None:
        """Mark the campaign complete and persist its throughput counters.

        ``verdicts`` (every unique graph's diagnostics) replaces the
        verdict block; ``None`` — an unverified run — keeps the one on disk.
        """
        self.close()
        manifest_path = self.directory / _MANIFEST
        manifest, _, _ = _load_manifest(manifest_path)
        manifest["complete"] = True
        manifest["stats"] = stats.to_dict()
        if verdicts is not None:
            manifest["verdicts"] = {
                "rules": _rule_stamp(),
                "graphs": {
                    key: [d.to_dict() for d in diags]
                    for key, diags in verdicts.items()
                },
            }
        write_text_atomic(manifest_path, json.dumps(manifest, indent=2))
