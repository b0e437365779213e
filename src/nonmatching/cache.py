"""Flat-file result cache and run manifests for the command-line front end.

Results are JSON files in one directory, keyed by a digest of the inputs
that determine them (command, parameters, seed, caps) and of the code that
computed them (:func:`code_fingerprint`), so a cached result never outlives
that code.  Timestamps live only in manifests, never in result payloads, so
reruns are byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

ENV_VAR = "NONMATCHING_CACHE_DIR"
CAPS_VERSION = "caps-v1"


@functools.cache
def code_fingerprint() -> str:
    """The package version and a sha256 of the package's module sources,
    computed once per process."""
    from . import __version__

    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        h.update(f"{path.name}\0{len(source)}\0".encode())
        h.update(source)
    return f"{__version__}+{h.hexdigest()}"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nonmatching"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_of(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    seed: int
    caps: str
    timestamp: float
    result_digest: str
    unreadable: int  # cache entries found but unreadable, so recomputed

    def input_digest(self) -> str:
        return digest_of(
            {
                "command": self.command,
                "parameters": self.parameters,
                "seed": self.seed,
                "caps": self.caps,
            }
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "seed": self.seed,
                "caps": self.caps,
                "timestamp": self.timestamp,
                "result_digest": self.result_digest,
                "unreadable": self.unreadable,
                "input_digest": self.input_digest(),
            },
            sort_keys=True,
            indent=2,
        )


class ResultCache:
    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.unreadable = 0  # entries :meth:`get` found but could not read

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The entry under ``key``, or None when there is none or it cannot
        be read (counted in :attr:`unreadable`)."""
        p = self._path(key)
        if not p.exists():
            return None
        try:
            return json.loads(p.read_text())
        except (OSError, ValueError):
            self.unreadable += 1
            return None

    def _write(self, name: str, text: str) -> Path:
        """Write a file in the cache directory atomically: a temp file in the
        same directory, then ``os.replace``, so a reader sees the old file or
        the whole new one and an interrupted write leaves no partial file."""
        self.root.mkdir(parents=True, exist_ok=True)
        p = self.root / name
        tmp = self.root / f".{name}.{os.getpid()}.tmp"
        try:
            tmp.write_text(text)
            os.replace(tmp, p)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return p

    def put(self, key: str, payload: dict) -> None:
        self._write(self._path(key).name, canonical_json(payload))

    def write_manifest(self, manifest: RunManifest) -> Path:
        return self._write(f"manifest-{manifest.input_digest()}.json", manifest.to_json())

    def write_artifact(self, name: str, text: str) -> Path:
        return self._write(name, text)


def now() -> float:
    return time.time()
