"""The bounded, thread-safe LRU core shared by the engine's caches.

:class:`~repro.engine.plan_cache.PlanCache` and
:class:`~repro.engine.request_cache.SourceResultCache` differ only in their
key type, their invalidation predicate and (for source results) a
copy-on-put/get rule; the LRU bound, locking and traffic counters live here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional


@dataclass
class CacheStatistics:
    """Counters describing one cache instance's traffic."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    invalidations: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class LRUCache:
    """Bounded LRU map: O(1) ``get``/``put``, least recently used evicted."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.statistics = CacheStatistics()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.statistics.misses += 1
                return None
            self._entries.move_to_end(key)
            self.statistics.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.statistics.puts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.statistics.evictions += 1

    def drop_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; return the count."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            self.statistics.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        """Drop everything; returns the number of dropped entries."""
        return self.drop_where(lambda key: True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> Dict[str, int]:
        data = self.statistics.snapshot()
        data["entries"] = len(self)
        data["capacity"] = self.capacity
        return data
