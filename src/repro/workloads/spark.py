"""Spark-Bayes and Spark-K-Means (Table IV: 33 GB / 13 GB, JVM-hosted).

Section VI-B: "Spark divides the K-means workload into multiple stages,
each stage writes the data into a different memory area", so streams are
plentiful but short and may end before the STT finishes training — the
reason Spark coverage trails the OMP variants.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads import jvmlib, traclib
from repro.workloads.base import ProcessSpec, Visit, Workload

HEAP_BASE = 1 << 20
BROADCAST_BASE = 1 << 24


class SparkKmeans(Workload):
    name = "spark-kmeans"
    jvm = True
    compute_us_per_access = 0.3

    def __init__(
        self,
        seed: int = 1,
        data_pages: int = 2600,
        centroid_pages: int = 32,
        stages: int = 4,
        segment_pages: int = 150,
        blocks_per_page: int = 8,
    ) -> None:
        super().__init__(seed)
        self.data_pages = data_pages
        self.centroid_pages = centroid_pages
        self.stages = stages
        self.segment_pages = segment_pages
        self.blocks_per_page = blocks_per_page
        rng = random.Random(seed ^ 0x4B4D)
        self._segments = jvmlib.make_segments(
            HEAP_BASE, data_pages, segment_pages, rng
        )

    @property
    def footprint_pages(self) -> int:
        return self.data_pages + self.centroid_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        start, npages = jvmlib.span(self._segments)
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (start, npages, "rdd-heap"),
                    (BROADCAST_BASE, self.centroid_pages, "broadcast-centroids"),
                ),
            )
        ]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        per_stage = max(1, len(self._segments) // self.stages)
        for stage in range(self.stages):
            # Stage = one K-means iteration: re-read the cached RDD
            # (all partitions materialized so far) against the broadcast
            # centroids, then materialize this stage's new partitions.
            live = self._segments[: (stage + 1) * per_stage]
            if not live:
                break
            scans = jvmlib.segmented_scan(
                1, live, self.blocks_per_page, parallelism=4, rng=rng
            )
            hot = traclib.hotspot(
                1,
                BROADCAST_BASE,
                self.centroid_pages,
                jvmlib.total_pages(live) // 2,
                rng,
            )
            yield from traclib.interleave(
                [scans, hot], rng, chunk_pages=6,
                blocks_per_page=self.blocks_per_page,
            )
            yield from jvmlib.gc_pass(1, live)


class SparkBayes(Workload):
    name = "spark-bayes"
    jvm = True
    compute_us_per_access = 0.3

    def __init__(
        self,
        seed: int = 1,
        corpus_pages: int = 3400,
        model_pages: int = 500,
        stages: int = 3,
        segment_pages: int = 180,
        blocks_per_page: int = 8,
    ) -> None:
        super().__init__(seed)
        self.corpus_pages = corpus_pages
        self.model_pages = model_pages
        self.stages = stages
        self.segment_pages = segment_pages
        self.blocks_per_page = blocks_per_page
        rng = random.Random(seed ^ 0xBA1E)
        self._segments = jvmlib.make_segments(
            HEAP_BASE, corpus_pages, segment_pages, rng
        )

    @property
    def footprint_pages(self) -> int:
        return self.corpus_pages + self.model_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        start, npages = jvmlib.span(self._segments)
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (start, npages, "corpus-heap"),
                    (BROADCAST_BASE, self.model_pages, "model"),
                ),
            )
        ]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        per_stage = max(1, len(self._segments) // self.stages)
        for stage in range(self.stages):
            live = self._segments[: (stage + 1) * per_stage]
            if not live:
                break
            # Tokenize/count pass: re-stream the corpus partitions
            # materialized so far (lineage re-read) with scattered
            # updates into the model's count tables.
            scans = jvmlib.segmented_scan(
                1, live, self.blocks_per_page, parallelism=4, rng=rng
            )
            updates = traclib.random_gather(
                1,
                BROADCAST_BASE,
                self.model_pages,
                int(jvmlib.total_pages(live) * 0.5),
                rng,
                blocks_per_page=3,
            )
            yield from traclib.interleave(
                [scans, updates], rng, chunk_pages=5,
                blocks_per_page=self.blocks_per_page,
            )
            yield from jvmlib.gc_pass(1, live)
