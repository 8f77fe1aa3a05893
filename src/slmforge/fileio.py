"""Artifact writes that never leave a half-written file behind."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "wb", encoding: str | None = None):
    """Write ``path`` through a temporary file in its directory.

    ``mode`` is ``"w"`` or ``"wb"``. When the block exits cleanly the
    temporary file is renamed over ``path`` with ``os.replace``, so a reader
    sees either the old bytes or all of the new ones. When the block (or the
    rename) raises, the temporary file is removed and ``path`` is untouched.
    A symlinked target is written through its link. A target that exists but
    is not a regular file (a FIFO, ``/dev/stdout``) cannot be renamed over,
    so it is written in place.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), encoding=encoding)
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
