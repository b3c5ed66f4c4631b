"""Tests for the workload suite: registry, determinism, VMA coverage,
and the pattern properties each generator promises."""

import itertools

import pytest

from repro.analysis.patterns import analyze_trace, page_sequence
from repro.common.constants import PAGE_SHIFT
from repro.workloads import ALL_APPS, NON_JVM_APPS, SPARK_APPS, build, names
from repro.workloads import registry, traclib
import random


class TestRegistry:
    def test_all_apps_buildable(self):
        for name in ALL_APPS:
            wl = build(name, seed=3)
            assert wl.name == name
            assert wl.footprint_pages > 0

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build("nonexistent")

    def test_groups_are_disjoint_and_flagged(self):
        assert not set(NON_JVM_APPS) & set(SPARK_APPS)
        for name in NON_JVM_APPS:
            assert not build(name).jvm
        for name in SPARK_APPS:
            assert build(name).jvm

    def test_names_sorted(self):
        listed = names()
        assert listed == sorted(listed)

    def test_register_extension(self):
        from repro.workloads.microbench import SimpleStream

        class Custom(SimpleStream):
            name = "custom-test-wl"

        registry.register(Custom)
        assert build("custom-test-wl").name == "custom-test-wl"
        del registry._REGISTRY["custom-test-wl"]


class TestTraceProperties:
    @pytest.mark.parametrize("name", ALL_APPS)
    def test_trace_deterministic(self, name):
        wl_a = build(name, seed=11)
        wl_b = build(name, seed=11)
        head_a = list(itertools.islice(wl_a.trace(), 2000))
        head_b = list(itertools.islice(wl_b.trace(), 2000))
        assert head_a == head_b

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_different_seeds_differ(self, name):
        head_a = list(itertools.islice(build(name, seed=1).trace(), 5000))
        head_b = list(itertools.islice(build(name, seed=2).trace(), 5000))
        # Some generators are seed-insensitive in their first accesses;
        # compare a longer horizon and allow strictly-deterministic
        # kernels (FT has no randomness at all).
        deterministic = {"npb-ft", "hpl", "npb-mg"}  # structured kernels
        if name not in deterministic:
            assert head_a != head_b

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_accesses_within_declared_vmas(self, name):
        wl = build(name, seed=5)
        regions = {}
        for process in wl.processes:
            regions[process.pid] = [
                (start, start + npages) for start, npages, _ in process.vmas
            ]
        for pid, vaddr in itertools.islice(wl.trace(), 30000):
            vpn = vaddr >> PAGE_SHIFT
            assert any(lo <= vpn < hi for lo, hi in regions[pid]), (
                f"{name}: vpn {vpn} outside declared VMAs"
            )

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_footprint_upper_bounds_distinct_pages(self, name):
        wl = build(name, seed=5)
        pages = {vaddr >> PAGE_SHIFT for _, vaddr in wl.trace()}
        assert len(pages) <= wl.footprint_pages


class TestPatternPromises:
    def test_simple_stream_is_simple(self):
        wl = build("stream-simple", npages=300, passes=1)
        breakdown = analyze_trace(page_sequence(wl.trace()))
        assert breakdown.fraction("simple") > 0.9

    def test_ladder_stream_is_ladder(self):
        wl = build("stream-ladder", steps=200, passes=1)
        breakdown = analyze_trace(page_sequence(wl.trace()))
        assert breakdown.fraction("ladder") > 0.5
        assert breakdown.fraction("simple") < 0.3

    def test_ripple_stream_is_mostly_ripple(self):
        wl = build("stream-ripple", npages=400, passes=1)
        breakdown = analyze_trace(page_sequence(wl.trace()))
        # Ripple is the plurality; swap patterns also register as short
        # ladders (LSP outranks RSP in the cascade, same as here), and
        # almost nothing is unclassifiable.
        assert breakdown.fraction("ripple") > 0.4
        assert breakdown.fraction("irregular") < 0.15

    def test_hpl_contains_ladders(self):
        wl = build("hpl")
        breakdown = analyze_trace(page_sequence(wl.trace()))
        assert breakdown.fraction("ladder") > 0.1

    def test_kmeans_mostly_simple(self):
        wl = build("omp-kmeans")
        breakdown = analyze_trace(page_sequence(wl.trace()))
        assert breakdown.fraction("simple") > 0.5


class TestTraclib:
    def test_visit_page_spreads_blocks(self):
        accesses = list(traclib.accesses([traclib.visit_page(1, 5, blocks_per_page=8)]))
        assert len(accesses) == 8
        blocks = {(vaddr >> 6) & 63 for _, vaddr in accesses}
        assert len(blocks) == 8
        assert all(vaddr >> 12 == 5 for _, vaddr in accesses)

    def test_scan_stride(self):
        pages = page_sequence(
            traclib.accesses(traclib.scan(1, 100, 5, stride=3, blocks_per_page=2))
        )
        assert pages == [100, 103, 106, 109, 112]

    def test_scan_negative_stride(self):
        pages = page_sequence(
            traclib.accesses(traclib.scan(1, 100, 3, stride=-1, blocks_per_page=1))
        )
        assert pages == [100, 99, 98]

    def test_ladder_structure(self):
        pages = page_sequence(
            traclib.accesses(
                traclib.ladder(1, 0, (0, 5, 11), steps=2, rise=1, blocks_per_page=1)
            )
        )
        assert pages == [0, 5, 11, 1, 6, 12]

    def test_ripple_is_permutation_with_hops(self):
        rng = random.Random(1)
        pages = page_sequence(
            traclib.accesses(
                traclib.ripple(1, 0, 60, rng, hop_probability=0.0, blocks_per_page=1)
            )
        )
        assert sorted(pages) == list(range(60))

    def test_interleave_preserves_all_accesses(self):
        rng = random.Random(2)
        a = traclib.scan(1, 0, 10, blocks_per_page=2)
        b = traclib.scan(1, 100, 10, blocks_per_page=2)
        merged = list(
            traclib.accesses(
                traclib.interleave([a, b], rng, chunk_pages=2, blocks_per_page=2)
            )
        )
        assert len(merged) == 40
        pages = {vaddr >> 12 for _, vaddr in merged}
        assert pages == set(range(10)) | set(range(100, 110))

    def test_sprinkle_adds_noise(self):
        rng = random.Random(3)
        base = traclib.scan(1, 0, 50, blocks_per_page=1)
        noisy = list(
            traclib.accesses(
                traclib.sprinkle(
                    base, 1, 10_000, 16, rng, probability=0.5, blocks_per_page=1
                )
            )
        )
        noise_pages = {v >> 12 for _, v in noisy if (v >> 12) >= 10_000}
        assert noise_pages

    def test_random_gather_zipf_skews_low(self):
        rng = random.Random(4)
        accesses = list(
            traclib.accesses(
                traclib.random_gather(1, 0, 1000, 500, rng, blocks_per_page=1,
                                      zipf_exponent=1.5)
            )
        )
        pages = [v >> 12 for _, v in accesses]
        low = sum(1 for p in pages if p < 100)
        assert low > len(pages) * 0.3  # heavily skewed toward the head


class _ScriptedPicks:
    """An RNG whose ``randrange`` returns scripted source indices."""

    def __init__(self, picks):
        self.picks = list(picks)

    def randrange(self, n):
        pick = self.picks.pop(0)
        assert pick < n
        return pick


class _CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def _reference_interleave(sources, rng, chunk_pages, blocks_per_page):
    """interleave over access streams: each turn emits up to a chunk of
    accesses from one randomly picked live source."""
    live = list(sources)
    chunk = max(chunk_pages * blocks_per_page, 1)
    while live:
        source = live[rng.randrange(len(live))]
        emitted = 0
        for access in source:
            yield access
            emitted += 1
            if emitted >= chunk:
                break
        else:
            live.remove(source)


def _reference_sprinkle(source, rng, probability, blocks_per_page):
    """sprinkle over an access stream: a coin after every access."""
    for access in source:
        yield access
        if rng.random() < probability:
            noise = traclib.visit_page(1, 9000 + rng.randrange(16), blocks_per_page)
            yield from traclib.accesses([noise])


def _random_composition(cases, depth=0):
    kinds = ["scan", "gather"] + (["interleave", "sprinkle"] if depth < 3 else [])
    kind = cases.choice(kinds)
    blocks = cases.choice([0, 1, 3, 8, 13, 70])
    if kind == "scan":
        return kind, cases.randrange(100), cases.randrange(12), cases.choice([-2, 0, 1, 3]), blocks
    if kind == "gather":
        return kind, cases.randrange(100), cases.randrange(1, 30), cases.randrange(12), blocks
    if kind == "interleave":
        subs = [_random_composition(cases, depth + 1) for _ in range(cases.randrange(1, 4))]
        return kind, subs, cases.randrange(5), cases.choice([0, 1, 3, 8])
    return kind, _random_composition(cases, depth + 1), cases.choice([0.0, 0.3, 1.0]), blocks


def _compose(spec, rng, reference):
    """The stream ``spec`` describes: accesses from the reference
    helpers, or visits from traclib's."""
    kind = spec[0]
    if kind in ("scan", "gather"):
        if kind == "scan":
            _, start, npages, stride, blocks = spec
            leaf = traclib.scan(1, start, npages, stride, blocks)
        else:
            _, start, npages, visits, blocks = spec
            leaf = traclib.random_gather(1, start, npages, visits, rng, blocks)
        return traclib.accesses(leaf) if reference else leaf
    if kind == "interleave":
        _, subs, chunk_pages, blocks = spec
        sources = [_compose(sub, rng, reference) for sub in subs]
        helper = _reference_interleave if reference else traclib.interleave
        return helper(sources, rng, chunk_pages, blocks)
    _, sub, probability, blocks = spec
    source = _compose(sub, rng, reference)
    if reference:
        return _reference_sprinkle(source, rng, probability, blocks)
    return traclib.sprinkle(source, 1, 9000, 16, rng, probability, blocks)


class TestVisits:
    def test_interleave_splits_visit_at_chunk_edge(self):
        # 3-block visits against a 4-access chunk: each turn's second
        # visit crosses the edge, and its rest leads the next turn.
        a = traclib.scan(1, 0, 2, blocks_per_page=3)
        b = traclib.scan(1, 100, 2, blocks_per_page=3)
        merged = list(
            traclib.interleave(
                [a, b], _ScriptedPicks([0, 1, 0, 0]), chunk_pages=2, blocks_per_page=2
            )
        )
        assert merged == [
            (1, 0, 0, 3), (1, 1, 0, 1),
            (1, 100, 0, 3), (1, 101, 0, 1),
            (1, 1, 1, 3),
            (1, 101, 1, 3),
        ]
        blocks = [(v >> 12, (v >> 6) & 63) for _, v in traclib.accesses(merged)]
        assert blocks[4:6] == [(100, 0), (100, 1)]
        assert blocks[8:] == [(1, 1), (1, 2), (101, 1), (101, 2)]

    def test_sprinkle_flips_coin_after_every_access(self):
        rng = _CountingRandom(3)
        base = traclib.scan(1, 0, 5, blocks_per_page=4)
        quiet = list(
            traclib.accesses(traclib.sprinkle(base, 1, 10_000, 16, rng, probability=0.0))
        )
        assert len(quiet) == rng.draws == 20

    def test_sprinkle_noise_splits_visit(self):
        base = traclib.scan(1, 0, 1, blocks_per_page=2)
        rng = random.Random(5)
        visits = list(
            traclib.sprinkle(base, 1, 10_000, 16, rng, probability=1.0, blocks_per_page=1)
        )
        assert visits[0::2] == [(1, 0, 0, 1), (1, 0, 1, 2)]
        assert all(10_000 <= v[1] < 10_016 for v in visits[1::2])
        assert len(list(traclib.accesses(visits))) == 4

    def test_nested_compositions_match_access_level_reference(self):
        # interleave and sprinkle nested in each other, sharing one RNG,
        # with odd visit sizes, chunks and strides: the visit-level
        # helpers must emit the accesses, and leave the RNG, exactly as
        # helpers that work one access at a time.
        cases = random.Random(2024)
        for _ in range(300):
            spec = _random_composition(cases)
            seed = cases.randrange(1 << 30)
            rng_ref, rng_visits = random.Random(seed), random.Random(seed)
            reference = list(_compose(spec, rng_ref, reference=True))
            visits = list(traclib.accesses(_compose(spec, rng_visits, reference=False)))
            assert visits == reference, spec
            assert rng_visits.getstate() == rng_ref.getstate(), spec

    def test_revisited_page_shares_accesses(self):
        trace = list(build("stream-simple", npages=10, passes=2).trace())
        assert len(trace) == 160
        assert all(trace[i] is trace[i + 80] for i in range(80))

    def test_each_trace_call_builds_its_own_table(self):
        wl = build("stream-interleaved", npages=50, passes=1)
        first = list(wl.trace())
        second = list(wl.trace())
        assert first == second
        assert not any(a is b for a, b in zip(first, second))

    def test_register_accepts_trace_override(self):
        from repro.workloads.base import ProcessSpec, Workload

        class RawTrace(Workload):
            name = "custom-raw-trace"
            footprint_pages = 1
            processes = [ProcessSpec(pid=1, vmas=((1, 1, "raw"),))]

            def trace(self):
                return iter([(1, 4096), (1, 4160)])

        registry.register(RawTrace)
        try:
            assert list(build("custom-raw-trace").trace()) == [(1, 4096), (1, 4160)]
        finally:
            del registry._REGISTRY["custom-raw-trace"]


class TestAuxiliaryWorkloads:
    def test_kv_cache_buildable_and_bounded(self):
        wl = build("kv-cache", seed=3, objects=200, operations=500)
        pages = {vaddr >> 12 for _, vaddr in wl.trace()}
        assert len(pages) <= wl.footprint_pages
        assert wl.footprint_pages > 200  # index + multi-page values

    def test_kv_cache_zipf_skew(self):
        wl = build("kv-cache", seed=3, objects=500, operations=2000)
        from collections import Counter

        pages = Counter(vaddr >> 12 for _, vaddr in wl.trace())
        counts = sorted(pages.values(), reverse=True)
        # The hot head dominates: top 10% of pages take at least ~2x
        # their uniform share of visits.
        head = sum(counts[: max(len(counts) // 10, 1)])
        assert head > 0.18 * sum(counts)

    def test_scan_with_workingset_regions(self):
        wl = build("scan-with-workingset", scan_pages=300, working_set_pages=60,
                   passes=1)
        pages = {vaddr >> 12 for _, vaddr in wl.trace()}
        vmas = wl.processes[0].vmas
        scan_lo = vmas[0][0]
        ws_lo = vmas[1][0]
        assert any(scan_lo <= p < scan_lo + 300 for p in pages)
        assert any(ws_lo <= p < ws_lo + 60 for p in pages)

    def test_kv_cache_deterministic(self):
        import itertools

        a = list(itertools.islice(build("kv-cache", seed=5).trace(), 3000))
        b = list(itertools.islice(build("kv-cache", seed=5).trace(), 3000))
        assert a == b
