"""Memory-hierarchy substrate: caches, hierarchy, memory controller."""

from repro.memsim.cache import Cache, CacheAccessResult, CacheHierarchy
from repro.memsim.controller import MemoryController

__all__ = [
    "Cache",
    "CacheAccessResult",
    "CacheHierarchy",
    "MemoryController",
]
