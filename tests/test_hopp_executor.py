"""Tests for the prefetch execution engine (Section III-F)."""

from typing import Optional

import pytest

from repro.hopp.executor import ExecutionEngine
from repro.hopp.policy import PolicyConfig, PolicyEngine


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


def submit(engine, vpns, now_us=0.0, tier="ssp", stream_id=0):
    return engine.submit(1, vpns, tier, stream_id, now_us)


class TestSubmit:
    def test_issues_and_records(self):
        backend = FakeBackend()
        engine = ExecutionEngine(backend)
        sent = submit(engine, [10, 11], now_us=0.0)
        assert sent == 2
        assert engine.issued == 2
        assert engine.outstanding == 2
        assert backend.issued[0] == (1, 10, True, "ssp")

    def test_duplicates_suppressed(self):
        engine = ExecutionEngine(FakeBackend())
        submit(engine, [10], 0.0)
        submit(engine, [10], 1.0)
        assert engine.duplicates == 1
        assert engine.issued == 1

    def test_rejected_pages_not_recorded(self):
        engine = ExecutionEngine(FakeBackend(reject={(1, 10)}))
        sent = submit(engine, [10], 0.0)
        assert sent == 0
        assert engine.rejected == 1
        assert engine.outstanding == 0

    def test_inject_flag_forwarded(self):
        backend = FakeBackend()
        engine = ExecutionEngine(backend, inject_pte=False)
        submit(engine, [10], 0.0)
        assert backend.issued[0][2] is False

    def test_issued_by_tier(self):
        # The machine counts issues per tier from the tier each request
        # carries to the backend.
        backend = FakeBackend()
        engine = ExecutionEngine(backend)
        submit(engine, [10], 0.0, tier="ssp")
        submit(engine, [11], 0.0, tier="lsp")
        assert [tier for *_, tier in backend.issued] == ["ssp", "lsp"]


class TestHitsAndWaste:
    def test_first_hit_accounts_accuracy(self):
        engine = ExecutionEngine(FakeBackend(latency_us=4.0))
        submit(engine, [10], 0.0)
        engine.on_first_hit(1, 10, now_us=50.0)
        assert engine.hits == 1
        assert engine.accuracy == 1.0
        assert engine.outstanding == 0

    def test_timeliness_measured_from_arrival(self):
        engine = ExecutionEngine(FakeBackend(latency_us=4.0))
        submit(engine, [10], 0.0)
        engine.on_first_hit(1, 10, now_us=50.0)
        # T = 50 - (0 + 4) = 46.
        assert engine.timeliness.stat.mean == pytest.approx(46.0)

    def test_hit_before_arrival_clamps_to_zero(self):
        engine = ExecutionEngine(FakeBackend(latency_us=100.0))
        submit(engine, [10], 0.0)
        engine.on_first_hit(1, 10, now_us=5.0)
        assert engine.timeliness.stat.mean == 0.0

    def test_unknown_hit_ignored(self):
        engine = ExecutionEngine(FakeBackend())
        engine.on_first_hit(1, 999, 0.0)
        assert engine.hits == 0

    def test_eviction_counts_waste(self):
        engine = ExecutionEngine(FakeBackend())
        submit(engine, [10, 11], 0.0)
        engine.on_evicted_unused(1, 10)
        assert engine.wasted == 1
        assert engine.outstanding == 1
        # Accuracy counts resident-unhit and wasted against issued.
        assert engine.accuracy == 0.0

    def test_policy_gets_timeliness_reports(self):
        policy = PolicyEngine(PolicyConfig(alpha=0.2, t_min_us=100.0))
        engine = ExecutionEngine(FakeBackend(latency_us=4.0), policy=policy)
        submit(engine, [10], 0.0, stream_id=7)
        engine.on_first_hit(1, 10, now_us=10.0)  # T=6 < 100 -> increase
        assert policy.offset_of(7) > 1.0

    def test_is_prefetched_unhit(self):
        engine = ExecutionEngine(FakeBackend())
        submit(engine, [10], 0.0)
        assert engine.is_prefetched_unhit(1, 10)
        engine.on_first_hit(1, 10, 1.0)
        assert not engine.is_prefetched_unhit(1, 10)

    def test_accuracy_zero_when_nothing_issued(self):
        assert ExecutionEngine(FakeBackend()).accuracy == 0.0
