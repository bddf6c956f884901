"""Content-addressed LRU cache for localization results.

Cache keys are *canonical graph digests*: a SHA-256 over every array that
can influence the model's output (features, topology, tiers, edge types),
deliberately excluding presentation fields (``name``, ``meta``) and the
label (``fault_index``) so the same netlist submitted under different names
hits the same entry. The service prefixes keys with the active model's
fingerprint, so a hot-reload can never serve results computed by a previous
model version.

The cache is a bounded, thread-safe LRU — the m3dlint rule M3D205 exists
precisely so nobody replaces it with a module-level dict that grows with
every unique request.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from m3d_fault_loc.graph.schema import ARRAY_FIELDS, CircuitGraph

#: Bump when the digest recipe changes; keys from different recipes never mix.
_DIGEST_RECIPE = b"m3d-graph-digest-v1"


def graph_digest(graph: CircuitGraph) -> str:
    """Canonical content hash of everything that determines model output."""
    h = hashlib.sha256(_DIGEST_RECIPE)
    h.update(str(graph.num_tiers).encode())
    for field in ARRAY_FIELDS:
        arr = np.ascontiguousarray(getattr(graph, field))
        h.update(field.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class LRUResultCache:
    """Bounded thread-safe LRU mapping digest keys to localization results."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Any | None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (hot-reload path); hit/miss stats are kept."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
