"""Atomic document writes and checked document reads, shared by
everything the package persists.

Campaign store manifests, fitted-model artifacts and registry manifests
are all read back by another process — a resumed campaign, the
hot-reloading model registry — that must never observe half a document.
:func:`write_text_atomic` writes a sibling temporary file and renames it
over the target, so a reader sees the old version or the new one.
:func:`read_json_object` is the matching read: a document that is
unreadable, not JSON, or not a JSON object raises one
:class:`DocumentError` naming the file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


class DocumentError(ValueError):
    """A JSON document on disk is unreadable or has the wrong shape."""


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` whole with ``text``.

    A failure at any point leaves ``path`` exactly as it was and removes
    the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json_object(path: str | Path) -> dict[str, Any]:
    """The JSON object stored at ``path``.

    Raises :class:`DocumentError` naming ``path`` when the file cannot be
    read, is not valid JSON, or holds a JSON value other than an object.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(
            f"{path} holds a JSON {type(doc).__name__}, not an object"
        )
    return doc
