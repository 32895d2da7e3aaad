"""Versioned on-disk registry of fitted model artifacts.

The prediction server never holds coefficients of its own — it serves
whatever v2 artifacts (``repro fit``, ``docs/static-analysis.md``) live in
a registry directory::

    registry/
        registry.json       # optional manifest (names, device tags)
        default.json        # artifacts saved by `repro fit -o ...`
        step-a100.json

Without a manifest every ``*.json`` file is an artifact named by its stem.
A manifest pins the serveable set explicitly and may tag each artifact
with the device preset its campaign ran on::

    {"version": 1,
     "models": {"default": {"file": "default.json", "device": "a100-80gb"}}}

Hot reload: every lookup re-stats the artifact file and reloads it when
``(mtime_ns, size)`` changed, so ``repro fit`` can replace a model under a
running server without a restart.  Version-1 artifacts (no embedded audit
block, no fitted feature ranges) are **rejected at serve time** — a served
prediction must be able to carry FIT004 extrapolation warnings, which
requires the v2 ``feature_ranges``.  ``load_model`` itself still accepts
v1 for offline use; the rejection is a serving policy, not a format change.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.persistence import model_from_dict
from repro.fileio import DocumentError, read_json_object, write_text_atomic

#: Manifest schema version understood by this registry.
MANIFEST_VERSION = 1

#: Manifest filename inside a registry directory.
MANIFEST_NAME = "registry.json"

#: Artifact kinds the predict endpoint can answer queries against.
SERVABLE_KINDS = (
    "forward", "backward", "training_step",
    "resperfnet", "perfseer", "prenet",
)


class RegistryError(RuntimeError):
    """A registry directory, manifest, or artifact is unusable."""


class UnknownArtifactError(KeyError):
    """Lookup of a name the registry does not (or no longer does) hold."""


@dataclass
class ArtifactEntry:
    """One loaded artifact plus the stat identity it was loaded from."""

    name: str
    path: Path
    kind: str
    format: int
    model: object
    device: str = ""
    mtime_ns: int = 0
    size: int = 0
    #: Error/warning counts of the audit block embedded at save time.
    audit_errors: int = 0
    audit_warnings: int = 0
    #: How many times this artifact was hot-reloaded after a file change.
    reloads: int = 0

    def describe(self) -> dict[str, Any]:
        """JSON-safe summary for ``/healthz``."""
        return {
            "kind": self.kind,
            "format": self.format,
            "device": self.device,
            "servable": self.kind in SERVABLE_KINDS,
            "audit": {
                "errors": self.audit_errors,
                "warnings": self.audit_warnings,
            },
            "reloads": self.reloads,
        }


def _load_artifact(name: str, path: Path, device: str = "") -> ArtifactEntry:
    """Parse and validate one artifact file (serve-time policy applied)."""
    try:
        state = read_json_object(path)
    except DocumentError as exc:
        raise RegistryError(f"artifact {name!r}: {exc}") from exc
    fmt = state.get("format")
    if fmt == 1:
        raise RegistryError(
            f"artifact {name!r}: {path} is a v1 model document; serving "
            "requires v2 (fitted feature ranges for FIT004 warnings) — "
            "refit it with `repro fit`"
        )
    try:
        model = model_from_dict(state)
    except (KeyError, ValueError, TypeError) as exc:
        raise RegistryError(f"artifact {name!r}: {path}: {exc}")
    audit = state.get("audit") or {}
    stat = path.stat()
    return ArtifactEntry(
        name=name,
        path=path,
        kind=str(state.get("kind", "")),
        format=int(fmt),
        model=model,
        device=device,
        mtime_ns=stat.st_mtime_ns,
        size=stat.st_size,
        audit_errors=int(audit.get("errors", 0)),
        audit_warnings=int(audit.get("warnings", 0)),
    )


@dataclass
class RegistrySnapshot:
    """Point-in-time view of the registry for health reporting."""

    root: str
    models: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Artifacts that exist on disk but refused to load, with the reason.
    failed: dict[str, str] = field(default_factory=dict)
    reloads: int = 0


class ModelRegistry:
    """Thread-safe directory of fitted model artifacts with hot reload."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise RegistryError(f"registry root {self.root} is not a directory")
        self._lock = threading.Lock()
        self._entries: dict[str, ArtifactEntry] = {}
        self._failed: dict[str, str] = {}
        self._reloads = 0
        self.refresh()
        if not self._entries and not self._failed:
            raise RegistryError(
                f"registry {self.root} holds no model artifacts; run "
                "`repro fit -o {dir}/default.json` first"
            )

    # -- discovery ---------------------------------------------------------

    def _declared(self) -> dict[str, tuple[Path, str]]:
        """name -> (path, device tag) from the manifest or a directory scan."""
        manifest = self.root / MANIFEST_NAME
        if manifest.exists():
            try:
                doc = read_json_object(manifest)
            except DocumentError as exc:
                raise RegistryError(f"manifest: {exc}") from exc
            if doc.get("version") != MANIFEST_VERSION:
                raise RegistryError(
                    f"manifest {manifest} has version {doc.get('version')!r}; "
                    f"this registry understands {MANIFEST_VERSION}"
                )
            models = doc.get("models", {})
            if not isinstance(models, dict):
                raise RegistryError(
                    f"manifest {manifest}: 'models' is not an object"
                )
            declared = {}
            for name, spec in models.items():
                if not isinstance(spec, dict) or "file" not in spec:
                    raise RegistryError(
                        f"manifest {manifest}: missing key models.{name}.file"
                    )
                declared[str(name)] = (
                    self.root / str(spec["file"]),
                    str(spec.get("device", "")),
                )
            return declared
        return {
            path.stem: (path, "")
            for path in sorted(self.root.glob("*.json"))
            if path.name != MANIFEST_NAME
        }

    def refresh(self) -> None:
        """Re-scan the directory: pick up added, changed and removed
        artifacts.  Load failures are recorded, not raised — one broken
        artifact must not take down serving of the healthy ones.

        Artifact files are stat'd and parsed *outside* the lock (disk
        latency must not stall every concurrent ``get()`` behind
        ``_lock``); results are installed in a single critical section.
        Two threads may race to load the same file change — the loser's
        copy is discarded by the stat-identity check in
        :meth:`_install_locked`, keeping reload counts exact."""
        declared = self._declared()
        with self._lock:
            current = {
                name: (entry.path, entry.mtime_ns, entry.size)
                for name, entry in self._entries.items()
            }
        loaded: dict[str, ArtifactEntry] = {}
        fresh_failures: dict[str, str] = {}
        unchanged: set[str] = set()
        for name, (path, device) in declared.items():
            # Per-artifact try blocks are the registry's failure-isolation
            # contract: one unreadable or corrupt artifact must not take
            # the rest of the manifest down, and each failure message must
            # name its artifact.  The loop is bounded by the manifest size
            # (a handful of models), not by request volume.
            try:  # repro-lint: disable=PERF008
                stat = path.stat()
            except OSError as exc:
                fresh_failures[name] = (
                    f"artifact {name!r}: cannot stat {path}: {exc}"
                )
                continue
            if current.get(name) == (path, stat.st_mtime_ns, stat.st_size):
                unchanged.add(name)
                continue
            try:  # repro-lint: disable=PERF008
                loaded[name] = _load_artifact(name, path, device)
            except RegistryError as exc:
                fresh_failures[name] = str(exc)
        with self._lock:
            for name in list(self._entries):
                if name not in declared or name in fresh_failures:
                    # Re-validated here: a name that failed this scan (or
                    # vanished from the manifest) is dropped even if a
                    # concurrent get() reloaded it meanwhile.
                    del self._entries[name]  # repro-lint: disable=CON005
            self._failed = fresh_failures
            for name, entry in loaded.items():
                self._install_locked(name, entry)

    def _install_locked(self, name: str, entry: ArtifactEntry) -> ArtifactEntry:
        """Install a freshly-loaded entry under ``_lock``, keeping reload
        accounting exact when loads raced: if the incumbent already has
        this entry's stat identity, a concurrent load of the same file
        change won — keep it and discard ours."""
        current = self._entries.get(name)
        if current is not None:
            if (current.path, current.mtime_ns, current.size) == (
                entry.path, entry.mtime_ns, entry.size
            ):
                return current
            entry.reloads = current.reloads + 1
            self._reloads += 1
        self._entries[name] = entry
        self._failed.pop(name, None)
        return entry

    # -- lookup ------------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def get(self, name: str) -> ArtifactEntry:
        """The current entry for ``name``, hot-reloading on file change.

        The stat/parse happens outside ``_lock`` (see :meth:`refresh`);
        the result is installed with :meth:`_install_locked`, whose
        stat-identity check re-validates against concurrent reloads.

        Raises :class:`UnknownArtifactError` for names the registry never
        held and :class:`RegistryError` when the artifact exists but will
        not serve (v1 document, unreadable file, parse failure).
        """
        with self._lock:
            entry = self._entries.get(name)
        if entry is not None:
            try:
                stat = entry.path.stat()
            except OSError as exc:
                self._drop(name, entry,
                           f"artifact {name!r}: cannot stat "
                           f"{entry.path}: {exc}")
                raise RegistryError(
                    f"artifact {name!r}: cannot stat {entry.path}: {exc}"
                )
            if (entry.mtime_ns, entry.size) == (
                stat.st_mtime_ns, stat.st_size
            ):
                return entry
            try:
                fresh = _load_artifact(name, entry.path, entry.device)
            except RegistryError as exc:
                self._drop(name, entry, str(exc))
                raise
            with self._lock:
                return self._install_locked(name, fresh)
        # Unknown or previously-failed name: the artifact may have been
        # added (or repaired) after the failure was recorded — rescan
        # before giving up so a fixed file recovers without a restart.
        self.refresh()
        with self._lock:
            if name in self._entries:
                return self._entries[name]
            if name in self._failed:
                raise RegistryError(self._failed[name])
        raise UnknownArtifactError(name)

    def _drop(self, name: str, stale: ArtifactEntry, reason: str) -> None:
        """Record a load failure for ``name``, evicting the cached entry
        only if it is still the copy we failed to replace — a concurrent
        thread may have installed a healthy reload meanwhile."""
        with self._lock:
            if self._entries.get(name) is stale:
                del self._entries[name]
            self._failed[name] = reason

    def default_name(self) -> str:
        """The artifact a request without ``"model"`` targets: ``default``
        when present, else the only artifact, else ambiguous (error)."""
        names = self.names()
        if not names:
            # Everything may have failed and since been repaired; retry.
            self.refresh()
            names = self.names()
        if "default" in names:
            return "default"
        if len(names) == 1:
            return names[0]
        raise UnknownArtifactError(
            "request names no model and the registry holds "
            f"{len(names)}: {', '.join(names)}"
        )

    @property
    def reloads(self) -> int:
        """Total hot reloads performed since startup (monotonic)."""
        with self._lock:
            return self._reloads

    def snapshot(self) -> RegistrySnapshot:
        with self._lock:
            return RegistrySnapshot(
                root=str(self.root),
                models={
                    name: entry.describe()
                    for name, entry in sorted(self._entries.items())
                },
                failed=dict(self._failed),
                reloads=self._reloads,
            )


def write_manifest(
    root: str | Path, models: dict[str, dict[str, str]]
) -> Path:
    """Write a registry manifest; ``models`` maps name -> {file, device?}."""
    path = Path(root) / MANIFEST_NAME
    write_text_atomic(
        path,
        json.dumps(
            {"version": MANIFEST_VERSION, "models": models},
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    return path
