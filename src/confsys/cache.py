"""On-disk cache for constructed algebras.

An entry holds the type (family, rank), the basis names and the bracket
table, with its integer constants rendered as strings, in canonical JSON
guarded by a SHA-256 digest.  A hit takes the basis layout from
liealg.basis_layout and checks the stored names against it, so an entry
written under another layout is discarded.  An unusable entry (corrupt,
stale, unreadable, filed under another type's name, or holding a constant
that is not an integer) is rebuilt with a warning, and one that cannot be
written only warns: the cache saves work and never stops a run.  Hits skip
the construction and its self-checks.  The digest comes from CPython's
built-in SHA-256 (hashlib only on a build without it), because importing
hashlib maps OpenSSL's libcrypto, 3.5 MB of the peak memory of every short
confsys process.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

from .liealg import LieAlgebra, basis_layout, build_lie_algebra
from .roots import RootSystemSpec, build_root_system

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without CPython's own hashes
        from hashlib import sha256

CACHE_SCHEMA = 2
ENV_CACHE_DIR = "CONFSYS_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "confsys"


def cache_path(spec: RootSystemSpec, cache_dir: Path | None = None) -> Path:
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / f"algebra-{spec.family}{spec.rank}-v{CACHE_SCHEMA}.json"


def _payload_body(alg: LieAlgebra) -> dict:
    return {
        "schema": CACHE_SCHEMA,
        "family": alg.rs.spec.family,
        "rank": alg.rs.spec.rank,
        "names": list(alg.names),
        "table": [[[[k, str(c)] for k, c in row] for row in line]
                  for line in alg.table],
    }


def _digest(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def dump(alg: LieAlgebra, path: Path) -> None:
    body = _payload_body(alg)
    body["digest"] = _digest({k: v for k, v in body.items() if k != "digest"})
    path.parent.mkdir(parents=True, exist_ok=True)
    # a temp file of our own, so concurrent writers of one entry never share
    # it; its name is not an entry name, so no loader reads it
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(json.dumps(body))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _reconstruct(body: dict) -> LieAlgebra:
    layout = basis_layout(build_root_system(
        RootSystemSpec(body["family"], body["rank"])))
    if list(layout["names"]) != body["names"]:
        raise ValueError("cached basis names differ from the basis layout")
    table = tuple(
        tuple(tuple((k, int(c)) for k, c in row) for row in line)
        for line in body["table"])
    return LieAlgebra(table=table, **layout)


def load(path: Path) -> LieAlgebra:
    """Load a cached algebra; raises on any corruption or schema mismatch."""
    body = json.loads(path.read_text())
    if not isinstance(body, dict):
        raise ValueError("cache entry is not a JSON object")
    digest = body.pop("digest")
    if body.get("schema") != CACHE_SCHEMA:
        raise ValueError(f"cache schema {body.get('schema')} != {CACHE_SCHEMA}")
    if digest != _digest(body):
        raise ValueError("cache digest mismatch")
    return _reconstruct(body)


def load_or_build(spec: RootSystemSpec, cache_dir: Path | None = None, *,
                  check: bool = True) -> LieAlgebra:
    path = cache_path(spec, cache_dir)
    try:
        alg = load(path)
        if alg.rs.spec != spec:
            raise ValueError(f"entry holds {alg.rs.spec}, not {spec}")
        return alg
    except FileNotFoundError:
        pass  # a miss, also when another process deletes the entry meanwhile
    except (OSError, ValueError, KeyError, TypeError) as exc:
        warnings.warn(f"discarding unusable algebra cache {path}: {exc}",
                      stacklevel=2)
    alg = build_lie_algebra(build_root_system(spec), check=check)
    try:
        dump(alg, path)
    except OSError as exc:
        warnings.warn(f"cannot write algebra cache {path}: {exc}", stacklevel=2)
    return alg


def build(spec: RootSystemSpec, cache_dir: Path | None = None) -> Path:
    """Force a rebuild of the cache entry and return its path; unlike
    load_or_build, a write error raises."""
    path = cache_path(spec, cache_dir)
    alg = build_lie_algebra(build_root_system(spec), check=True)
    dump(alg, path)
    return path

