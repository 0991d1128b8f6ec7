"""The one bounded cache: least-recently-used eviction, counted.

Every cache that a stream of distinct queries could otherwise grow for
the life of a process is an :class:`LRUCache` -- prepared plans
(:class:`~repro.engine.api.Engine`), compiled automata
(:class:`~repro.engine.plan.CompiledQueryCache`), fused label unions and
rank columns (:class:`~repro.index.labels.LabelIndex`,
:class:`~repro.index.jumping.TreeIndex`) and each pool worker's parsed
paths -- so each reports the same
``cache_info()`` fields and a bound spelled ``maxsize``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUCache:
    """A mapping of at most :attr:`maxsize` entries, oldest use first out.

    The methods take no lock themselves: a cache shared between threads
    is built with ``lock=True`` and its users hold :attr:`lock` around
    every access, which lets a lookup, the build it misses into and the
    insert be one critical section where duplicates must not happen.
    The lock does not travel through pickling; the copy gets a new one.

    :attr:`data` is the underlying ordered dict, for reading, deleting
    and clearing; insertion goes through :meth:`put`, which evicts.
    """

    __slots__ = ("maxsize", "data", "lock", "hits", "misses", "evictions")

    def __init__(self, maxsize: int, lock: bool = False) -> None:
        self.maxsize = maxsize
        self.data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.lock: Optional[threading.Lock] = threading.Lock() if lock else None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __getstate__(self) -> dict:
        state = {name: getattr(self, name) for name in self.__slots__}
        state["lock"] = self.lock is not None
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.lock = threading.Lock() if state["lock"] else None

    def __len__(self) -> int:
        return len(self.data)

    def get(self, key: Hashable) -> Any:
        """The cached value (now the most recently used), or ``None``."""
        value = self.data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.data.move_to_end(key)
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self.data
        data[key] = value
        data.move_to_end(key)
        while len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def cache_info(self) -> dict:
        return {
            "size": len(self.data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
