"""The bounded least-recently-used cache behind every per-process cache.

Campaigns replay programs constantly (MABFuzz arms re-run their seeds,
mutants duplicate each other), so a worker process keeps four caches:
compiled programs and superblocks (:mod:`repro.isa.compiled`), golden runs
(:class:`repro.sim.golden.GoldenTraceCache`) and test outcomes
(:class:`repro.exec.cache.DutRunCache`, which keeps what a test reads of
its runs rather than their commit traces, so that 4,096 entries stay
small).  All four are an :class:`LRUCache`: one spill policy, one
re-bound, one set of counters.
:func:`repro.exec.cache.configure_process_caches` bounds them and
:func:`repro.exec.cache.process_cache_stats` reads them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Optional

#: capacity of a cache built without an explicit bound, and of the process
#: caches when the engine's ``cache_entries`` knob is unset.
DEFAULT_CACHE_ENTRIES = 4096


class LRUCache:
    """A map of at most ``max_entries`` entries that spills the least recently used.

    ``hits``/``misses`` count :meth:`lookup` outcomes and ``evictions``
    counts spilled entries, whether an insert or a re-bound spilled them.
    Values must not be ``None``, which :meth:`lookup` returns for a miss.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.configure(max_entries)

    def lookup(self, key: Hashable) -> Optional[object]:
        """The value under ``key``, now the most recently used, or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def insert(self, key: Hashable, value: object) -> None:
        """Store ``value`` under ``key`` as the most recently used entry."""
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            self._spill(self.max_entries - 1)
        self._entries[key] = value

    def configure(self, max_entries: int) -> None:
        """Re-bound the cache, spilling LRU entries down to the new capacity."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._spill(max_entries)

    def _spill(self, size: int) -> None:
        while len(self._entries) > size:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
        }

    def __len__(self) -> int:
        return len(self._entries)
