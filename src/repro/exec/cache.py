"""Content-addressed on-disk cache for sweep cells.

Every experiment cell is a pure, deterministic function of its inputs:
``(HybridConfig, Scale, crash_fraction)`` plus the
code that interprets them.  That makes the result memoizable across
*processes and runs*: re-running a sweep whose inputs have not changed
should cost one JSON read per cell, not laptop-minutes of simulation.

The cache key is the SHA-256 of the canonicalized inputs **and** a
fingerprint of the ``repro`` package source, so any code change
invalidates every entry automatically -- there is no way to read a
stale result produced by a different simulator.

Entries live under ``~/.cache/repro-cells/`` (override with the
``REPRO_CELL_CACHE`` environment variable), one JSON file per cell,
fanned out over 256 two-hex-digit subdirectories.  Writes go through a
same-directory temp file + :func:`os.replace`, so concurrent workers --
including separate sweep processes sharing the cache -- can never
observe a torn entry: a reader sees either the old file, the complete
new file, or nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from ..experiments.common import CellResult

__all__ = [
    "CACHE_ENV",
    "CellCache",
    "cell_key",
    "code_fingerprint",
    "default_cache_root",
]

CACHE_ENV = "REPRO_CELL_CACHE"

# Computed once per process; hashing the whole package source is a few
# milliseconds and only runs when a cache is actually consulted.
_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (stable per code tree).

    Part of every cache key: editing any module -- not just the
    experiment drivers -- invalidates previously cached cells, because
    a cell's value is a function of the whole simulator.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_ENV, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-cells"


def _spec_inputs(spec: "CellSpec") -> Dict[str, Any]:  # noqa: F821
    """The canonical, JSON-able identity of one cell."""
    return {
        "config": dataclasses.asdict(spec.config),
        "scale": dataclasses.asdict(spec.scale),
        "crash_fraction": spec.crash_fraction,
        "code": code_fingerprint(),
    }


def cell_key(spec: "CellSpec") -> str:  # noqa: F821
    """SHA-256 hex key of one cell (inputs + code fingerprint)."""
    canonical = json.dumps(_spec_inputs(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class CellCache:
    """Directory of memoized :class:`~repro.experiments.common.CellResult`.

    ``get`` treats every failure mode (missing, torn, stale-schema,
    hand-edited) as a miss -- the cell is simply recomputed -- and
    removes entries it could not parse.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def path_for(self, spec: "CellSpec") -> Path:  # noqa: F821
        key = cell_key(spec)
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, spec: "CellSpec") -> Optional[CellResult]:  # noqa: F821
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
            return CellResult.from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or schema-incompatible entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, spec: "CellSpec", result: CellResult) -> None:  # noqa: F821
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"inputs": _spec_inputs(spec), "result": result.to_dict()}
        text = json.dumps(payload, sort_keys=True)
        # Same-directory temp file + rename = atomic on POSIX; the pid +
        # object id suffix keeps concurrent writers of the *same* cell
        # from clobbering each other's temp file.
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{id(self):x}")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
