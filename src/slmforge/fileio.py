"""Artifact writes that never leave a half-written file behind, the
header-JSONL format of manifests and instruction (SFT) sets (one JSON object
per line with sorted keys, line 1 a header tagged ``"__header__": true``),
the one reader of text files, and the one reader of a keyed value in
checkpoint metadata or a header."""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

from .config import read_config
from .errors import ConfigError


@contextmanager
def atomic_open(path, mode: str = "wb", encoding: str | None = None):
    """Write ``path`` through a temporary file in its directory.

    ``mode`` is ``"w"`` or ``"wb"``. When the block exits cleanly the
    temporary file is renamed over ``path`` with ``os.replace``, so a reader
    sees either the old bytes or all of the new ones. When the block (or the
    rename) raises, the temporary file is removed and ``path`` is untouched.
    A symlinked target is written through its link. A target that exists but
    is not a regular file (a FIFO, ``/dev/stdout``) cannot be renamed over,
    so it is written in place. An error creating the temporary file (a
    missing directory, no write permission) names ``path``.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), encoding=encoding)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def read_text(path) -> str:
    """The UTF-8 text in ``path``, newlines read as ``open`` reads them.

    Bytes that are not UTF-8 are a ConfigError naming the path and the line
    that holds the first bad byte.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path} line {line}: not UTF-8: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path):
    """The JSON value in ``path``; invalid JSON is a ConfigError naming it."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def write_jsonl(path, header: dict, rows) -> None:
    """Atomically write ``header`` and one line per dataclass in ``rows``."""
    objs = [{**header, "__header__": True}] + [asdict(row) for row in rows]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(d, sort_keys=True, ensure_ascii=False) + "\n"
                         for d in objs))


def read_jsonl(path, row_type):
    """Return (header, rows) of a header-JSONL file, rows as ``row_type``.

    The header comes back without its tag, or empty when line 1 has none.
    Blank lines are skipped, keys that are not fields are ignored, and each
    row is read by ``config.read_config``. Bytes that are not UTF-8 (see
    ``read_text``), invalid JSON, a line that is not an object, or a row that
    reader rejects (a missing required field, a wrong JSON type) raises
    ConfigError naming the path, line and key.
    """
    known = {f.name for f in fields(row_type)}
    header, rows = {}, []
    for n, line in enumerate(io.StringIO(read_text(path)), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} line {n}: invalid JSON: {exc}") from None
        if not isinstance(d, dict):
            raise ConfigError(f"{path} line {n}: not a JSON object")
        if n == 1 and d.pop("__header__", False):
            header = d
            continue
        try:
            rows.append(read_config(row_type, {k: v for k, v in d.items() if k in known}))
        except ConfigError as exc:
            raise ConfigError(f"{path} line {n}: {exc}") from None
    return header, rows


def parse_field(path, record: dict, key: str, parse):
    """``parse(record[key])``. A missing key, or a value ``parse`` rejects
    with TypeError, ValueError or ConfigError, is a ConfigError naming
    ``path`` and ``key``."""
    if key not in record:
        raise ConfigError(f"{path}: missing key {key!r}")
    try:
        return parse(record[key])
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from None


def parse_count(text: str) -> int:
    """The integer that ``text`` spells, such as a checkpoint's width or class
    count; one below 1 is a ValueError."""
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value
