"""Canonical, stable SDFG content hashing and cache-key derivation.

The fingerprint covers everything that determines the generated module:
states, nodes, edges, memlets, interstate control flow, data descriptors,
symbols and the calling convention — all via the IR's own canonical JSON
serialization (``SDFG.to_json``), so two structurally identical graphs hash
equal regardless of object identity, and a serialize/deserialize round trip
is fingerprint-stable.

The cache *key* extends the fingerprint with everything else that changes
the artifact: target device, instrumentation/sanitizer variants, the
requested optimization level, the compilation-relevant configuration keys,
and a repo code-version salt (a digest of the compiler's own sources) so
stale entries die automatically when the toolchain changes.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

__all__ = ["fingerprint", "cache_key", "code_version", "config_digest"]

#: package subtrees whose sources determine generated-module behaviour;
#: editing any of them invalidates every cache entry (the version salt)
_SALT_SUBTREES = ("ir", "frontend", "codegen", "transformations", "symbolic",
                  "library", "runtime", "sanitizer")
_SALT_FILES = ("autoopt.py", "dtypes.py", "config.py")

_code_version: Optional[str] = None


def fingerprint(sdfg) -> str:
    """Content hash of an SDFG (hex sha256 over its canonical JSON form) —
    the only one: the cache key, the circuit-breaker key and the
    oscillation detector all use it."""
    from ..ir.serialize import canonical_json

    return hashlib.sha256(canonical_json(sdfg).encode("utf-8")).hexdigest()


def code_version() -> str:
    """Digest of the compilation-relevant repro sources (memoized).

    Any edit to the frontend, IR, optimizer, or backend yields a new salt,
    invalidating every previously cached artifact.
    """
    global _code_version
    if _code_version is not None:
        return _code_version
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    paths = []
    for subtree in _SALT_SUBTREES:
        root = os.path.join(package_root, subtree)
        for dirpath, _dirnames, filenames in os.walk(root):
            paths.extend(os.path.join(dirpath, f)
                         for f in filenames if f.endswith(".py"))
    paths.extend(os.path.join(package_root, f) for f in _SALT_FILES)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, package_root).encode())
        try:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        except OSError:
            continue
    _code_version = digest.hexdigest()
    return _code_version


def config_digest() -> str:
    """Digest of configuration keys that influence compilation output.

    ``device.*`` / ``parallel.*`` keys and the *resolved* worker count are
    included so serial and multicore thread-variants of the same graph get
    distinct cache keys: the generated parallel dispatch differs per
    schedule, and the resolved count covers ``$REPRO_CPU_THREADS``.
    """
    from ..config import Config
    from ..runtime.parallel import configured_threads

    relevant = {}
    for key in sorted(Config.keys()):
        if key.startswith(("optimizer.", "device.", "parallel.")):
            relevant[key] = Config.get(key)
    relevant["resolved.cpu_threads"] = configured_threads()
    blob = json.dumps(relevant, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(sdfg, device: str = "CPU", instrument: bool = False,
              sanitize: bool = False,
              optimize: Optional[str] = None) -> str:
    """Full content-addressed cache key (hex sha256).

    *optimize* names the device whose ``auto_optimize`` pipeline will run on
    the graph before code generation (None compiles the graph as-is); it is
    part of the key because the same input graph yields different artifacts
    per optimization level.
    """
    payload = "|".join([
        fingerprint(sdfg),
        str(device),
        f"instrument={int(bool(instrument))}",
        f"sanitize={int(bool(sanitize))}",
        f"optimize={optimize or ''}",
        config_digest(),
        code_version(),
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
