"""Tests for the prefetch execution engine (Section III-F)."""

from typing import Optional

import pytest

from repro.hopp.executor import ExecutionEngine
from repro.hopp.policy import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    PolicyConfig,
    PolicyEngine,
)


class FakeBackend:
    """Backend stub: remembers issued prefetches, configurable latency."""

    def __init__(self, latency_us: float = 4.0, reject=()):
        self.latency_us = latency_us
        self.reject = set(reject)
        self.issued = []

    def prefetch_page(self, pid, vpn, now_us, inject_pte, tier) -> Optional[float]:
        if (pid, vpn) in self.reject:
            return None
        self.issued.append((pid, vpn, inject_pte, tier))
        return now_us + self.latency_us


def make_engine(backend, **kwargs):
    """An engine over ``backend`` with a default policy, as the data
    plane builds it."""
    return ExecutionEngine(backend, PolicyEngine(PolicyConfig()), **kwargs)


def submit(engine, vpns, now_us=0.0, tier="ssp", stream_id=0):
    return engine.submit(1, vpns, tier, stream_id, now_us)


class TestSubmit:
    def test_issues_and_records(self):
        backend = FakeBackend()
        engine = make_engine(backend)
        sent = submit(engine, [10, 11], now_us=0.0)
        assert sent == 2
        assert engine.issued == 2
        assert engine.outstanding == 2
        assert backend.issued[0] == (1, 10, True, "ssp")

    def test_duplicates_suppressed(self):
        engine = make_engine(FakeBackend())
        submit(engine, [10], 0.0)
        submit(engine, [10], 1.0)
        assert engine.duplicates == 1
        assert engine.issued == 1

    def test_rejected_pages_not_recorded(self):
        engine = make_engine(FakeBackend(reject={(1, 10)}))
        sent = submit(engine, [10], 0.0)
        assert sent == 0
        assert engine.rejected == 1
        assert engine.outstanding == 0

    def test_inject_flag_forwarded(self):
        backend = FakeBackend()
        engine = make_engine(backend, inject_pte=False)
        submit(engine, [10], 0.0)
        assert backend.issued[0][2] is False

    def test_issued_by_tier(self):
        # The machine counts issues per tier from the tier each request
        # carries to the backend.
        backend = FakeBackend()
        engine = make_engine(backend)
        submit(engine, [10], 0.0, tier="ssp")
        submit(engine, [11], 0.0, tier="lsp")
        assert [tier for *_, tier in backend.issued] == ["ssp", "lsp"]


class TestHitsAndWaste:
    def test_first_hit_accounts_accuracy(self):
        engine = make_engine(FakeBackend(latency_us=4.0))
        submit(engine, [10], 0.0)
        engine.on_first_hit(1, 10, now_us=50.0)
        assert engine.hits == 1
        assert engine.accuracy == 1.0
        assert engine.outstanding == 0

    def test_timeliness_measured_from_arrival(self):
        engine = make_engine(FakeBackend(latency_us=4.0))
        submit(engine, [10], 0.0)
        engine.on_first_hit(1, 10, now_us=50.0)
        # T = 50 - (0 + 4) = 46.
        assert engine.timeliness.stat.mean == pytest.approx(46.0)

    def test_hit_before_arrival_clamps_to_zero(self):
        engine = make_engine(FakeBackend(latency_us=100.0))
        submit(engine, [10], 0.0)
        engine.on_first_hit(1, 10, now_us=5.0)
        assert engine.timeliness.stat.mean == 0.0

    def test_unknown_hit_ignored(self):
        engine = make_engine(FakeBackend())
        engine.on_first_hit(1, 999, 0.0)
        assert engine.hits == 0

    def test_eviction_counts_waste(self):
        engine = make_engine(FakeBackend())
        submit(engine, [10, 11], 0.0)
        engine.on_evicted_unused(1, 10)
        assert engine.wasted == 1
        assert engine.outstanding == 1
        # Accuracy counts resident-unhit and wasted against issued.
        assert engine.accuracy == 0.0

    def test_policy_gets_timeliness_reports(self):
        policy = PolicyEngine(PolicyConfig(alpha=0.2, t_min_us=100.0))
        engine = ExecutionEngine(FakeBackend(latency_us=4.0), policy)
        submit(engine, [10], 0.0, stream_id=7)
        engine.on_first_hit(1, 10, now_us=10.0)  # T=6 < 100 -> increase
        assert policy.offset_of(7) > 1.0

    def test_is_prefetched_unhit(self):
        engine = make_engine(FakeBackend())
        submit(engine, [10], 0.0)
        assert engine.is_prefetched_unhit(1, 10)
        engine.on_first_hit(1, 10, 1.0)
        assert not engine.is_prefetched_unhit(1, 10)

    def test_accuracy_zero_when_nothing_issued(self):
        assert make_engine(FakeBackend()).accuracy == 0.0


class FakeBatchBackend(FakeBackend):
    """Backend stub for 2 MB batches: ``found`` says whether a batch
    finds anything remote, and ``drop`` whether its READ loses its
    completion (reported through the engine, as the machine does)."""

    def __init__(self, found=True, drop=False):
        super().__init__()
        self.found = found
        self.drop = drop
        self.engine = None
        self.batches = []

    def prefetch_batch(self, pid, start_vpn, npages, now_us, inject_pte, tier):
        self.batches.append((pid, start_vpn, npages))
        if self.drop:
            self.engine.on_fabric_drop(now_us)
            return None
        # The last page lands 300 us late: past the latency threshold.
        return now_us + 300.0 if self.found else None


class TestBatchGate:
    """The huge-page batcher's requests pass the engine's breaker."""

    def _tripped(self, backend):
        breaker = CircuitBreaker(BreakerConfig(min_samples=1, cooldown_us=10.0))
        engine = make_engine(backend, breaker=breaker)
        backend.engine = engine
        breaker.record_failure(0.0)  # opens
        return engine, breaker

    def test_an_open_breaker_refuses_the_batch(self):
        backend = FakeBatchBackend()
        engine, breaker = self._tripped(backend)
        assert engine.prefetch_batch(1, 0, 512, 5.0, True, "huge") is None
        assert backend.batches == []
        assert engine.suppressed == 1

    def test_a_probe_that_finds_nothing_is_refunded(self):
        backend = FakeBatchBackend(found=False)
        engine, breaker = self._tripped(backend)
        for now_us in (20.0, 21.0, 22.0, 23.0, 24.0, 25.0):
            assert engine.prefetch_batch(1, 0, 512, now_us, True, "huge") is None
        # Six probes on a quota of four: each was given back.
        assert len(backend.batches) == 6
        assert breaker.state == BreakerState.HALF_OPEN
        assert engine.suppressed == 0

    def test_an_issued_batch_is_one_success_whatever_its_length(self):
        backend = FakeBatchBackend()
        engine, breaker = self._tripped(backend)
        assert engine.prefetch_batch(1, 0, 512, 20.0, True, "huge") == 320.0
        assert breaker.state == BreakerState.CLOSED

    def test_a_dropped_batch_reopens_the_breaker(self):
        backend = FakeBatchBackend(drop=True)
        engine, breaker = self._tripped(backend)
        assert engine.prefetch_batch(1, 0, 512, 20.0, True, "huge") is None
        assert breaker.state == BreakerState.OPEN
        assert breaker.opens == 2

    def test_without_a_breaker_the_batch_goes_straight_through(self):
        backend = FakeBatchBackend()
        engine = make_engine(backend)
        assert engine.prefetch_batch(1, 0, 512, 0.0, True, "huge") == 300.0
        assert backend.batches == [(1, 0, 512)]
