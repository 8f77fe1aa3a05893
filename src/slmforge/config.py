"""The one hash of a resolved configuration that artifacts embed."""

from __future__ import annotations

import hashlib
import json


def config_hash(cfg: dict) -> str:
    """First 16 hex digits of the sha256 of ``cfg`` as sorted-key JSON."""
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
