"""An in-memory key-value cache (the paper's intro motivation names
memcached as a canonical datacenter in-memory application).

GET traffic follows a Zipf popularity curve over the object space; each
GET walks the hash index (a small, hot region) and then reads the
object's value pages (1..4 contiguous pages — larger objects span
several).  SET traffic rewrites values.  There are no long streams to
speak of, which makes this an honest *negative* case for prefetching:
the win comes from the hot index and popular objects staying local, and
a good prefetcher's job is mostly to abstain (keep accuracy high by not
spraying guesses) — exactly what HoPP's stream-gated trainer does.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads import traclib
from repro.workloads.base import ProcessSpec, Visit, Workload

INDEX_BASE = 1 << 20
VALUE_BASE = 1 << 22


class KvCache(Workload):
    name = "kv-cache"
    jvm = False
    compute_us_per_access = 0.2

    def __init__(
        self,
        seed: int = 1,
        objects: int = 1200,
        index_pages: int = 48,
        operations: int = 8000,
        zipf_exponent: float = 1.2,
        set_ratio: float = 0.1,
        blocks_per_page: int = 8,
    ) -> None:
        super().__init__(seed)
        self.objects = objects
        self.index_pages = index_pages
        self.operations = operations
        self.zipf_exponent = zipf_exponent
        self.set_ratio = set_ratio
        self.blocks_per_page = blocks_per_page
        rng = random.Random(seed ^ 0x6B76)
        # Object sizes in pages (mostly small, a tail of multi-page
        # values) and their starting pages, laid out back to back.
        self._sizes: List[int] = [
            1 if rng.random() < 0.7 else rng.randint(2, 4)
            for _ in range(objects)
        ]
        self._starts: List[int] = []
        cursor = VALUE_BASE
        for size in self._sizes:
            self._starts.append(cursor)
            cursor += size
        self._value_pages = cursor - VALUE_BASE

    @property
    def footprint_pages(self) -> int:
        return self.index_pages + self._value_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (INDEX_BASE, self.index_pages, "hash-index"),
                    (VALUE_BASE, self._value_pages, "values"),
                ),
            )
        ]

    def _pick_object(self, rng: random.Random) -> int:
        u = rng.random()
        index = int(self.objects * u ** self.zipf_exponent)
        return min(index, self.objects - 1)

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        for _ in range(self.operations):
            obj = self._pick_object(rng)
            # Hash-index probe: one or two buckets.
            bucket = INDEX_BASE + (hash((obj, 0x9E37)) % self.index_pages)
            yield traclib.visit_page(1, bucket, blocks_per_page=2)
            # Value read (or rewrite): every page of the object.
            for offset in range(self._sizes[obj]):
                yield traclib.visit_page(
                    1, self._starts[obj] + offset,
                    blocks_per_page=self.blocks_per_page,
                )
