"""Content-addressed on-disk result cache.

Results are stored as one JSON file per job under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), sharded by the first
two hex digits of the job hash::

    <root>/ab/abcdef....json

The key is the :meth:`CompileJob.content_hash`, which covers every *input*
that can change the compiled circuit — but not the compiler source itself.
Bump ``repro.service.jobs.SPEC_VERSION`` when compiler behavior changes
(old entries become misses), or ``clear()`` the cache after local compiler
edits.  Set ``REPRO_CACHE=off`` to disable caching globally.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs import metrics as obs_metrics
from ..obs.metrics import METRICS
from ..obs.tracer import span as obs_span
from .jobs import CompileJob, JobResult

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_TOGGLE_ENV = "REPRO_CACHE"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1] (0.0 when nothing was looked up)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}

    def summary(self) -> str:
        rate = f", {100.0 * self.hit_rate:.1f}% hit rate" if self.lookups else ""
        return (
            f"cache: {self.hits} hits, {self.misses} misses{rate}, "
            f"{self.puts} puts"
        )


#: Process-wide tally across every ResultCache instance (runner summaries).
GLOBAL_STATS = CacheStats()


def cache_enabled() -> bool:
    return os.environ.get(CACHE_TOGGLE_ENV, "on").lower() not in ("off", "0", "no")


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro"
    )


def default_cache() -> Optional["ResultCache"]:
    """The environment-configured cache, or None when disabled."""
    if not cache_enabled():
        return None
    return ResultCache()


class ResultCache:
    """A directory of ``JobResult`` JSON files keyed by job content hash."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.stats = CacheStats()

    def _path(self, job_hash: str) -> str:
        return os.path.join(self.root, job_hash[:2], job_hash + ".json")

    def __contains__(self, job: CompileJob) -> bool:
        return os.path.exists(self._path(job.content_hash()))

    def get(
        self, job: CompileJob, require_profile: bool = False
    ) -> Optional[JobResult]:
        """Cached result for ``job``, or None (counts a hit or a miss).

        An entry written without a profile can't answer a profiled
        lookup (``require_profile``): that counts as a miss, so the
        caller recompiles and the entry is upgraded in place.
        """
        job_hash = job.content_hash()
        path = self._path(job_hash)
        with obs_span(
            "cache:get", "cache", key=job_hash[:12], label=job.label()
        ) as sp:
            try:
                with open(path) as handle:
                    result = JobResult.from_json(handle.read())
            except FileNotFoundError:
                result = None
            except (ValueError, KeyError, TypeError, OSError):
                # Corrupt or stale-schema entry: drop it and treat as a miss.
                try:
                    os.remove(path)
                except OSError:
                    pass
                self._miss()
                sp.set(hit=False, corrupt=True)
                return None
            if result is None or (require_profile and result.profile is None):
                self._miss()
                sp.set(hit=False)
                return None
            result.cached = True
            self.stats.hits += 1
            GLOBAL_STATS.hits += 1
            METRICS.counter(obs_metrics.CACHE_HITS).inc()
            sp.set(hit=True)
            return result

    def put(self, result: JobResult) -> bool:
        """Store a successful result atomically; errored results are skipped."""
        if not result.ok:
            return False
        job_hash = result.job.content_hash()
        path = self._path(job_hash)
        with obs_span("cache:put", "cache", key=job_hash[:12]):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(result.to_json())
                os.replace(tmp, path)
            except OSError:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                return False
            self.stats.puts += 1
            GLOBAL_STATS.puts += 1
            METRICS.counter(obs_metrics.CACHE_PUTS).inc()
            return True

    def _miss(self) -> None:
        self.stats.misses += 1
        GLOBAL_STATS.misses += 1
        METRICS.counter(obs_metrics.CACHE_MISSES).inc()

    def _entries(self) -> List[str]:
        found: List[str] = []
        if not os.path.isdir(self.root):
            return found
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except (FileNotFoundError, NotADirectoryError):
                continue  # shard removed (or bogus file) mid-scan
            for name in names:
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    found.append(os.path.join(shard_dir, name))
        return found

    def __len__(self) -> int:
        return len(self._entries())

    @staticmethod
    def _remove_entry(path: str) -> bool:
        """Unlink one entry; False when it vanished (another process —
        a concurrent trim/clear, or the daemon's janitor — got there
        first, which is a success, not an error) or can't be removed."""
        try:
            os.remove(path)
            return True
        except FileNotFoundError:
            return False
        except OSError:
            return False

    @staticmethod
    def _entry_mtime(path: str) -> float:
        """Sort key tolerating entries deleted between listing and stat
        (vanished entries sort oldest, so trim tolerates the unlink)."""
        try:
            return os.path.getmtime(path)
        except OSError:
            return 0.0

    def clear(self) -> int:
        """Remove every cached entry; returns the number removed.

        Safe against concurrent mutation: entries removed by another
        process between listing and unlink are skipped, not errors.
        """
        return sum(1 for path in self._entries() if self._remove_entry(path))

    def trim(self, max_entries: int) -> int:
        """Evict oldest entries (by mtime) down to ``max_entries``.

        Concurrent-access tolerant the same way :meth:`clear` is; the
        eviction counter only counts entries this call actually removed.
        """
        entries = self._entries()
        if len(entries) <= max_entries:
            return 0
        entries.sort(key=self._entry_mtime)
        removed = sum(
            1
            for path in entries[: len(entries) - max_entries]
            if self._remove_entry(path)
        )
        METRICS.counter(obs_metrics.CACHE_EVICTIONS).inc(removed)
        return removed

    def disk_stats(self) -> Dict[str, int]:
        """On-disk shape of the cache: entry count and total bytes."""
        entries = self._entries()
        size = 0
        for path in entries:
            try:
                size += os.path.getsize(path)
            except OSError:
                pass
        return {"entries": len(entries), "bytes": size}
