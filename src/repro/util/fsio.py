"""Small filesystem helpers shared by every artefact writer.

The design flow, the CLI ``--out`` targets and the checkpoint store all
write files whose directories may not exist yet (``--out runs/a/b/x.json``
is a perfectly reasonable request).  Rather than each writer remembering
to create directories, they all call :func:`ensure_parent` first.

:func:`write_json_atomic` is the shared publish primitive for JSON
artefacts that concurrent readers (or racing writers) may touch — the
exploration result cache that several ``repro explore`` processes may
share, checkpoint snapshots and benchmark records: the payload lands in a
unique temp file in the target directory and is published with
``os.replace``, so an observer sees either the previous version or the
complete new one, never torn bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

PathLike = Union[str, "os.PathLike[str]"]


def ensure_parent(path: PathLike) -> Path:
    """Create ``path``'s parent directory (and ancestors) if missing.

    Returns ``path`` as a :class:`~pathlib.Path` so callers can chain
    ``ensure_parent(target).write_text(...)``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    return target


def write_json_atomic(path: PathLike, payload: object, indent=None) -> Path:
    """Atomically publish ``payload`` as key-sorted JSON at ``path``.

    Compact by default; with ``indent`` the JSON is pretty-printed and
    ends in a newline.  Creates missing parent directories
    (:func:`ensure_parent`), writes to a sibling temp file and
    ``os.replace``-publishes it, unlinking the temp file on any failure.
    Returns the target as a :class:`~pathlib.Path`.
    """
    target = ensure_parent(path)
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=str(target.parent),
        prefix=target.name + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            json.dump(payload, handle, sort_keys=True, indent=indent)
            if indent is not None:
                handle.write("\n")
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return target
