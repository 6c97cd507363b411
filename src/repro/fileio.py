"""Atomic JSON writes, shared by the run cache and the profile databases."""
from __future__ import annotations

import json
import os
import tempfile


def write_json_atomic(path: str, data, **dump_options) -> None:
    """Write ``data`` as JSON to ``path``; a reader (or a crash) sees the
    old file or the new one, never a half-written one.

    Each writer gets its own mkstemp temp file next to ``path`` (same
    filesystem, so ``os.replace`` stays atomic).  A shared ``<path>.tmp``
    would let two concurrent writers interleave writes and race the final
    rename, leaving a corrupt or vanished file.
    """
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".",
        suffix=".tmp",
        dir=os.path.dirname(os.path.abspath(path)),
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(data, handle, **dump_options)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
