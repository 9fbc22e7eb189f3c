"""Set-associative cache with LRU replacement.

Models one level of the paper's Table 3 hierarchy: configurable size,
associativity, and block size; write-back with write-allocate (the
Alpha 21264's data-cache policy the paper simulates with ATOM).
Only hit/miss behaviour and dirty-victim traffic are modelled — data
values live in the interpreter, as they did in the paper's trace-driven
ATOM cache model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Attributes:
        size: capacity in bytes.
        associativity: ways per set (use ``1`` for direct-mapped).
        block_size: line size in bytes.
        name: label used in reports.
    """

    size: int
    associativity: int
    block_size: int
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size <= 0 or self.associativity <= 0 or self.block_size <= 0:
            raise ValueError("cache dimensions must be positive")
        if self.size % (self.associativity * self.block_size) != 0:
            raise ValueError(
                f"{self.name}: size {self.size} is not divisible by "
                f"associativity*block_size"
            )
        if self.block_size & (self.block_size - 1):
            raise ValueError("block size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size // (self.associativity * self.block_size)


class Cache:
    """One cache level.  ``access`` returns True on hit."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- address mapping -----------------------------------------------------
    def _locate(self, addr: int) -> Tuple[int, int]:
        block = addr // self.config.block_size
        return block % self.config.num_sets, block

    # -- operations --------------------------------------------------------------
    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; on miss, allocate (write-allocate policy).

        Returns True on hit.  Dirty evictions bump ``writebacks``.
        """
        set_index, tag = self._locate(addr)
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = OrderedDict()
        if tag in cache_set:
            self.hits += 1
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = True  # mark dirty
            return True
        self.misses += 1
        if len(cache_set) >= self.config.associativity:
            _, dirty = cache_set.popitem(last=False)  # LRU victim
            if dirty:
                self.writebacks += 1
        cache_set[tag] = is_write
        return False

    def contains(self, addr: int) -> bool:
        """Non-destructive lookup (no statistics, no LRU update)."""
        set_index, tag = self._locate(addr)
        cache_set = self._sets.get(set_index)
        return cache_set is not None and tag in cache_set

    def flush(self) -> None:
        """Empty the cache, keeping statistics."""
        self._sets.clear()

    def merge(self, other: "Cache") -> "Cache":
        """Add another cache's hit/miss/writeback counters; returns self.

        Contents are not merged — this aggregates the statistics of
        completed, independent simulations.
        """
        self.hits += other.hits
        self.misses += other.misses
        self.writebacks += other.writebacks
        return self

    # -- statistics -------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"Cache({cfg.name}: {cfg.size}B {cfg.associativity}-way "
            f"{cfg.block_size}B blocks, miss rate {self.miss_rate:.4f})"
        )
