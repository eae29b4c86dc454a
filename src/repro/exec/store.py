"""Content-addressed on-disk result store (the warm-start layer).

Every cacheable unit of the artifact pipeline — a per-config analysis
report, a rendered table/figure, a sweep shard, a served query — is
stored under a key that hashes *everything that could change the
value*:

* the task's declared parameters (exhibit name, domain, size,
  subbatch, footprint flag, canonical request body), and
* the per-process **source digest** (:func:`source_digest`): SHA-256
  over every ``repro/**/*.py`` file of the running package plus the
  Python and NumPy versions.

Cost formulas, scaling constants, hardware profiles, model builders
and report code are all source, so any edit to them invalidates the
whole store — correct by construction for a cache.  No graph is built
or hashed to compute a key: the digest reads ~0.9 MB of source once
per process (a few milliseconds).

Values are pickled to ``<root>/<kk>/<key>.pkl`` (two-level fan-out
keeps directories small).  The store is append-mostly with an LRU-ish
eviction pass by file mtime when ``max_entries`` is exceeded.

Hits, misses, stores, and evictions are counted in :mod:`repro.obs`
metrics (``exec.store.*``) so ``--metrics`` shows cache effectiveness.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import sys
import tempfile
from typing import Any, Dict, Iterable, Optional, Tuple

from ..obs.metrics import counter as _obs_counter

__all__ = ["ResultStore", "content_key", "default_cache_dir",
           "source_digest"]

_HIT = _obs_counter("exec.store.hit")
_MISS = _obs_counter("exec.store.miss")
_PUT = _obs_counter("exec.store.put")
_EVICT = _obs_counter("exec.store.eviction")
_ERROR = _obs_counter("exec.store.error")

#: sentinel distinguishing "no entry" from a stored ``None``
_MISSING = object()


#: the ``repro`` package directory whose sources :func:`source_digest`
#: covers
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the package's own sources and runtime versions.

    Covers the sorted relative paths and bytes of every ``*.py`` file
    under the ``repro`` package (``__pycache__`` excluded) plus the
    Python and NumPy versions.  Memoized per process: the sources a
    process computes with are the ones it imported at startup.
    """
    import numpy

    digest = hashlib.sha256(
        f"{sys.version}\0{numpy.__version__}\0".encode("utf-8"))
    sources = []
    for folder, dirs, files in os.walk(_PACKAGE_DIR):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        sources += [os.path.relpath(os.path.join(folder, f), _PACKAGE_DIR)
                    for f in files if f.endswith(".py")]
    for rel in sorted(path.replace(os.sep, "/") for path in sources):
        with open(os.path.join(_PACKAGE_DIR, rel), "rb") as handle:
            data = handle.read()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


def content_key(*parts: Any) -> str:
    """SHA-256 key over canonical-JSON-encoded parts + source digest.

    Parts must be JSON-encodable (dicts are key-sorted; floats keep
    full ``repr`` precision through ``json``).  The
    :func:`source_digest` is always folded in, so an edit to any
    formula, constant or renderer never reuses a stale result.
    """
    payload = {"source": source_digest(), "parts": parts}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> str:
    """Default store root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


class ResultStore:
    """Pickle-backed content-addressed store with mtime eviction.

    ``get``/``put`` never raise on a corrupt or unwritable entry: a
    result store is an accelerator, not a source of truth, so IO and
    unpickling problems degrade to a miss (counted in
    ``exec.store.error``).
    """

    def __init__(self, root: str, *,
                 max_entries: Optional[int] = 4096):
        self.root = root
        self.max_entries = max_entries
        os.makedirs(root, exist_ok=True)

    # -- key/path layout ----------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    # -- primitives ----------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        value = self._read(key)
        if value is _MISSING:
            _MISS.inc()
            return default
        _HIT.inc()
        return value

    def contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def _read(self, key: str) -> Any:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            return _MISSING
        except Exception:  # corrupt entry: drop it, treat as miss
            _ERROR.inc()
            try:
                os.unlink(path)
            except OSError:
                pass
            return _MISSING
        try:  # LRU signal for the eviction pass
            os.utime(path, None)
        except OSError:
            pass
        return value

    def put(self, key: str, value: Any) -> bool:
        """Store ``value``; returns False (and counts an error) on IO
        or pickling failure rather than raising."""
        path = self._path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            # write-then-rename so concurrent readers never see a
            # half-written pickle
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except Exception:
            _ERROR.inc()
            return False
        _PUT.inc()
        if self.max_entries is not None:
            self._evict()
        return True

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> Iterable[Tuple[float, str]]:
        for sub in os.scandir(self.root):
            if not sub.is_dir():
                continue
            for entry in os.scandir(sub.path):
                if entry.name.endswith(".pkl"):
                    try:
                        yield entry.stat().st_mtime, entry.path
                    except OSError:
                        continue

    def _evict(self) -> int:
        """Drop oldest entries past ``max_entries``; returns count."""
        entries = sorted(self._entries())
        excess = len(entries) - (self.max_entries or 0)
        dropped = 0
        for _, path in entries[:max(excess, 0)]:
            try:
                os.unlink(path)
                dropped += 1
            except OSError:
                continue
        if dropped:
            _EVICT.inc(dropped)
        return dropped

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for _, path in list(self._entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        return removed

    def stats(self) -> Dict[str, Any]:
        entries = list(self._entries())
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(
                os.path.getsize(p) for _, p in entries
                if os.path.exists(p)
            ),
            "max_entries": self.max_entries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({self.root!r})"
