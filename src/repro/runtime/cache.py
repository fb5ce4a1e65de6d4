"""Content-addressed on-disk cache for engine results and reports.

Entries are pickles stored under ``<cache_dir>/<key[:2]>/<key>.pkl`` where
``key`` is the stable hash produced by :mod:`repro.runtime.hashing`.  The
cache is safe against concurrent writers (atomic rename via
:func:`repro.export.dump_pickle`) and against corrupted entries: a pickle
that fails to load is deleted and reported as a miss, so the caller simply
recomputes and overwrites it.

Traces are persisted in their compact columnar form: before pickling, any
stored value exposing ``seal()`` (or holding a sealable ``rich_trace`` /
``trace`` attribute, like :class:`~repro.core.engine.EngineResult`) has its
columns sealed into flat numpy arrays, so entries are a handful of arrays
instead of one object graph per layer-step record - smaller pickles and far
faster warm loads.

The default location is ``$REPRO_CACHE_DIR`` if set, else
``~/.cache/ditto-repro``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from ..export import dump_pickle, load_pickle

__all__ = ["CacheStats", "ResultCache", "default_cache_dir"]

_ENV_VAR = "REPRO_CACHE_DIR"


def _seal_for_storage(value: Any) -> None:
    """Seal columnar traces inside ``value`` ahead of pickling."""
    for target in (value, getattr(value, "rich_trace", None), getattr(value, "trace", None)):
        seal = getattr(target, "seal", None)
        if callable(seal):
            seal()


def default_cache_dir() -> Path:
    """The on-disk store location: ``$REPRO_CACHE_DIR`` or ``~/.cache/ditto-repro``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ditto-repro"


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """A new ``CacheStats`` summing this instance's counters with ``other``'s."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            stores=self.stores + other.stores,
            corrupt=self.corrupt + other.corrupt,
        )

    def summary(self) -> str:
        """One human-readable counter line for CLI output."""
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.corrupt} corrupt"
        )


@dataclass
class ResultCache:
    """Pickle-backed content-addressed store keyed by stable hashes."""

    cache_dir: Union[str, Path] = field(default_factory=default_cache_dir)
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)

    def path_for(self, key: str) -> Path:
        """The entry path for ``key``: ``<dir>/<key[:2]>/<key>.pkl``."""
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (always ``False`` when disabled)."""
        return self.enabled and self.path_for(key).exists()

    def get(self, key: str) -> Optional[Any]:
        """Return the cached object or ``None`` (miss or corrupted entry)."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        from . import faults

        plan = faults.active()
        if plan is not None and plan.corrupt_cache_read():
            # Deterministic fault injection: scribble over the entry so this
            # very read exercises the corrupted-entry path below (drop,
            # report a miss, recompute) instead of a synthetic unit test.
            path.write_bytes(b"repro fault injection: corrupted entry")
        try:
            value = load_pickle(path)
        except Exception:
            # Corrupted / truncated / stale-format entry: drop and recompute.
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Pickle ``value`` under ``key`` (no-op when the cache is disabled)."""
        if not self.enabled:
            return
        _seal_for_storage(value)
        dump_pickle(value, self.path_for(key))
        self.stats.stores += 1

    def invalidate(self, key: str) -> bool:
        """Delete one entry; returns whether it existed."""
        path = self.path_for(key)
        if path.exists():
            path.unlink()
            return True
        return False

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        if not Path(self.cache_dir).exists():
            return 0
        return sum(1 for _ in Path(self.cache_dir).rglob("*.pkl"))

    def size_bytes(self) -> int:
        """Total on-disk size of all entries, in bytes."""
        if not Path(self.cache_dir).exists():
            return 0
        return sum(p.stat().st_size for p in Path(self.cache_dir).rglob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry (and any orphaned temp files); returns the
        number of entries removed.

        There is no automatic eviction: keys embed the package code
        fingerprint, so each source edit strands the previous generation of
        entries.  ``repro cache clear`` (or this method) is the reclaim path.
        """
        removed = 0
        root = Path(self.cache_dir)
        if root.exists():
            for entry in root.rglob("*.pkl"):
                entry.unlink()
                removed += 1
            # Writers killed mid-dump_pickle leave *.tmp files behind.
            for leftover in root.rglob("*.tmp"):
                leftover.unlink()
        return removed
