"""Atomic document writes, shared by everything the package persists.

Campaign store manifests, fitted-model artifacts and registry manifests
are all read back by another process — a resumed campaign, the
hot-reloading model registry — that must never observe half a document.
:func:`write_text_atomic` writes a sibling temporary file and renames it
over the target, so a reader sees the old version or the new one.
"""

from __future__ import annotations

import os
from pathlib import Path


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
