"""Tests for the RDMA fabric and remote memory node."""

import pytest

from repro.net.faults import FaultInjector, FaultPlan
from repro.net.rdma import FabricConfig, RdmaFabric
from repro.net.remote import RemoteMemoryNode, RemoteReadError
from tests.conftest import quiet_fabric


class TestRdmaFabric:
    def test_uncontended_read_latency(self):
        fabric = RdmaFabric(quiet_fabric())
        done = fabric.read_page(10.0)
        assert done == pytest.approx(10.0 + 4.0)

    def test_jitter_bounds(self):
        fabric = RdmaFabric(FabricConfig(jitter_us=1.0, spike_probability=0.0))
        for _ in range(100):
            latency = fabric.read_page(0.0)
            assert 4.0 <= latency <= 5.0 + fabric.page_service_us * 1000

    def test_queueing_under_burst(self):
        """Bulk transfers serialize on the link."""
        fabric = RdmaFabric(quiet_fabric())
        first = fabric.read_page(0.0)
        tenth = None
        for _ in range(9):
            tenth = fabric.read_page(0.0)
        assert tenth > first
        assert tenth == pytest.approx(9 * fabric.page_service_us + 4.0)

    def test_priority_reads_bypass_bulk_queue(self):
        fabric = RdmaFabric(quiet_fabric())
        for _ in range(50):
            fabric.read_page(0.0)  # bulk backlog
        demand = fabric.read_page(0.0, priority=True)
        assert demand == pytest.approx(4.0)

    def test_priority_occupies_shared_link(self):
        fabric = RdmaFabric(quiet_fabric())
        fabric.read_page(0.0, priority=True)
        bulk = fabric.read_page(0.0)
        assert bulk >= 4.0 + fabric.page_service_us

    def test_spikes_inflate_latency(self):
        always_spike = FabricConfig(
            jitter_us=0.0, spike_probability=1.0, spike_factor=5.0
        )
        fabric = RdmaFabric(always_spike)
        assert fabric.read_page(0.0) == pytest.approx(20.0)

    def test_page_service_time_at_56gbps(self):
        fabric = RdmaFabric(FabricConfig(gbps=56.0))
        # 4 KB = 32768 bits at 56 Gb/s = ~0.585 us.
        assert fabric.page_service_us == pytest.approx(32768 / 56_000)

    def test_counters(self):
        fabric = RdmaFabric(quiet_fabric())
        fabric.read_page(0.0)
        fabric.write_page(0.0)
        assert fabric.reads == 1 and fabric.writes == 1
        assert fabric.transfers == 2
        assert fabric.bytes_moved == 2 * 4096

    def test_deterministic_with_seed(self):
        a = RdmaFabric(FabricConfig(seed=42))
        b = RdmaFabric(FabricConfig(seed=42))
        lat_a = [a.read_page(float(i)) for i in range(50)]
        lat_b = [b.read_page(float(i)) for i in range(50)]
        assert lat_a == lat_b


class TestReadBatchPinned:
    """Seed-pinned ``read_batch`` latency sequences.  Any change to the
    fabric's RNG consumption order, queueing rule, or service time shows
    up here as an exact-value diff — the single-node-equivalence
    invariant of the cluster subsystem depends on this sequence never
    shifting silently."""

    def _fabric(self):
        return RdmaFabric(FabricConfig(seed=7))

    def test_first_batch_sequence(self):
        fabric = self._fabric()
        assert fabric.read_batch(0.0, 4) == [
            4.844209069009388,
            5.429351926152245,
            6.014494783295102,
            6.599637640437959,
        ]

    def test_second_batch_queues_behind_first(self):
        fabric = self._fabric()
        fabric.read_batch(0.0, 4)
        # Issued at t=0 but the link is busy until the first batch
        # drains, so arrivals continue one service time apart.
        assert fabric.read_batch(0.0, 3) == [
            7.446461864146169,
            8.031604721289026,
            8.616747578431884,
        ]

    def test_batch_arrivals_are_service_time_spaced(self):
        fabric = self._fabric()
        arrivals = fabric.read_batch(0.0, 4)
        for earlier, later in zip(arrivals, arrivals[1:]):
            assert later - earlier == pytest.approx(fabric.page_service_us)

    def test_priority_read_after_batches(self):
        fabric = self._fabric()
        fabric.read_batch(0.0, 4)
        fabric.read_batch(0.0, 3)
        # The priority QP does not queue behind bulk batches.
        assert fabric.read_page(100.0, priority=True) == 104.42870560344535

    def test_interleaved_transfers_with_spikes(self):
        # Bulk reads, writebacks, priority reads and one batch share the
        # RNG stream and the two service cursors; at this spike rate
        # some transfers take 5x the base latency.  Any change to the
        # draw order or to the float operations of a transfer moves
        # these values.
        fabric = RdmaFabric(FabricConfig(seed=7, spike_probability=0.25))
        ops = [
            ("read", 0.0), ("write", 0.0), ("prio", 0.5), ("read", 1.0),
            ("write", 1.0), ("prio", 1.0), ("read", 9.0), ("batch", 9.0),
            ("prio", 9.0), ("write", 30.0), ("read", 30.0), ("prio", 30.2),
            ("write", 31.0),
        ]
        done = []
        for kind, now in ops:
            if kind == "read":
                done.append(fabric.read_page(now))
            elif kind == "prio":
                done.append(fabric.read_page(now, priority=True))
            elif kind == "batch":
                done.append(fabric.read_batch(now, 3)[-1])
            else:
                done.append(fabric.write_page(now))
        assert done == [
            21.295331059332653,
            23.18888074930227,
            4.928705603445351,
            5.21668485410548,
            5.785425098182159,
            21.36456455144133,
            13.339615351314011,
            31.835779273170008,
            13.501946577924471,
            34.461682358893995,
            54.49016327951453,
            34.88677476723895,
            51.74730604771546,
        ]
        assert (fabric.reads, fabric.writes) == (11, 4)
        assert fabric.latency_stat.mean == 12.641758428583127
        assert fabric.latency_stat.max == 24.490163279514533

    def test_page_service_time_pinned(self):
        assert self._fabric().page_service_us == 0.5851428571428572

    def test_empty_batch_rejected(self):
        fabric = self._fabric()
        with pytest.raises(ValueError):
            fabric.read_batch(0.0, 0)
        assert fabric.reads == 0


class TestStatsSnapshots:
    def test_fabric_snapshot_counts_and_latency(self):
        fabric = RdmaFabric(FabricConfig(seed=7))
        fabric.read_batch(0.0, 4)
        fabric.read_batch(0.0, 3)
        fabric.read_page(100.0, priority=True)
        snapshot = fabric.stats_snapshot()
        assert snapshot["reads"] == 8
        assert snapshot["writes"] == 0
        assert snapshot["bytes_moved"] == 8 * 4096
        assert snapshot["latency_max_us"] == 8.616747578431884
        assert snapshot["latency_mean_us"] == pytest.approx(6.548, abs=1e-3)
        assert snapshot["link_busy_until_us"] > 100.0

    def test_fabric_snapshot_when_idle(self):
        snapshot = RdmaFabric(quiet_fabric()).stats_snapshot()
        assert snapshot["reads"] == 0
        assert snapshot["latency_max_us"] == 0.0

    def test_fabric_repr(self):
        fabric = RdmaFabric(quiet_fabric())
        fabric.read_page(0.0)
        text = repr(fabric)
        assert "RdmaFabric" in text and "reads=1" in text

    def test_remote_node_snapshot(self):
        node = RemoteMemoryNode(capacity_pages=4)
        node.write(0)
        node.write(0)  # overwrite
        node.write(1)
        node.release(1)
        snapshot = node.stats_snapshot()
        assert snapshot == {
            "capacity_pages": 4,
            "pages_stored": 1,
            "pages_written": 3,
            "pages_read": 0,
            "pages_overwritten": 1,
            "pages_released": 1,
            "pages_lost": 0,
        }
        # The conservation invariant is readable straight off the dict.
        assert snapshot["pages_written"] == (
            snapshot["pages_stored"]
            + snapshot["pages_overwritten"]
            + snapshot["pages_released"]
        )
        assert node.conserved

    def test_remote_node_repr(self):
        node = RemoteMemoryNode(capacity_pages=4)
        node.write(0)
        text = repr(node)
        assert "RemoteMemoryNode" in text and "stored=1" in text


class TestBatchedWrites:
    """``write_page(now, n)`` is exactly ``n`` one-page writes."""

    @pytest.mark.parametrize("config", [
        FabricConfig(seed=3),
        FabricConfig(seed=3, jitter_us=0.0),
        FabricConfig(seed=3, spike_probability=1.0),
    ], ids=["jitter", "no-jitter", "every-transfer-spikes"])
    def test_batch_matches_single_writes_on_a_twin(self, config):
        batched, single = RdmaFabric(config), RdmaFabric(config)
        for fabric in (batched, single):
            # A busy link: the writes queue behind a 2 MB read.
            fabric.read_batch(0.0, 512)
        for now, npages in ((1.0, 17), (2.0, 1), (400.0, 5), (900.0, 33)):
            last = batched.write_page(now, npages)
            singles = [single.write_page(now) for _ in range(npages)]
            assert last == singles[-1]
        assert batched._rng.getstate() == single._rng.getstate()
        assert batched._link_free_at_us == single._link_free_at_us
        assert (batched.reads, batched.writes) == (single.reads, single.writes)
        stats = [
            (f.latency_stat.count, f.latency_stat._mean, f.latency_stat._m2,
             f.latency_stat.min, f.latency_stat.max)
            for f in (batched, single)
        ]
        assert stats[0] == stats[1]
        assert batched.stats_snapshot() == single.stats_snapshot()

    def test_an_armed_link_writes_one_page_per_call(self):
        fabric = RdmaFabric(
            quiet_fabric(),
            injector=FaultInjector(FaultPlan(write_timeout_probability=0.5)),
        )
        with pytest.raises(ValueError):
            fabric.write_page(0.0, 2)
        assert fabric.writes == 0


class TestFabricConfigValidation:
    def test_zero_bandwidth_rejected(self):
        """gbps=0 used to crash later with ZeroDivisionError in
        page_service_us; it must fail loudly at construction."""
        with pytest.raises(ValueError):
            FabricConfig(gbps=0.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            FabricConfig(gbps=-1.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            FabricConfig(jitter_us=-0.1)

    def test_spike_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FabricConfig(spike_probability=1.5)
        with pytest.raises(ValueError):
            FabricConfig(spike_probability=-0.01)

    def test_spike_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            FabricConfig(spike_factor=0.5)

    def test_negative_base_latency_rejected(self):
        with pytest.raises(ValueError):
            FabricConfig(base_latency_us=-1.0)

    def test_valid_config_accepted(self):
        config = FabricConfig(gbps=0.5, jitter_us=0.0, spike_probability=0.0)
        assert RdmaFabric(config).page_service_us > 0


class TestRemoteMemoryNode:
    def test_write_read_roundtrip(self):
        node = RemoteMemoryNode(capacity_pages=4)
        node.write(0)
        node.read(0)
        assert node.holds(0)
        assert node.pages_read == 1
        assert node.pages_stored == 1

    def test_read_empty_slot_raises(self):
        node = RemoteMemoryNode(capacity_pages=4)
        with pytest.raises(RemoteReadError):
            node.read(3)

    def test_capacity_enforced(self):
        node = RemoteMemoryNode(capacity_pages=1)
        node.write(0)
        with pytest.raises(MemoryError):
            node.write(1)

    def test_overwrite_same_slot_allowed_at_capacity(self):
        node = RemoteMemoryNode(capacity_pages=1)
        node.write(0)
        node.write(0)
        node.read(0)
        assert node.holds(0)
        assert node.pages_overwritten == 1
        assert node.pages_stored == 1

    def test_release(self):
        node = RemoteMemoryNode(capacity_pages=1)
        node.write(0)
        node.release(0)
        assert not node.holds(0)
        node.write(5)  # capacity freed

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RemoteMemoryNode(capacity_pages=0)

    def test_every_way_in_and_out_of_the_slot_set_conserves(self):
        node = RemoteMemoryNode(capacity_pages=4)
        steps = [
            lambda: node.write(0),
            lambda: node.write(1),
            lambda: node.write(0),  # overwrite
            lambda: node.read(1),
            lambda: node.release(1),
            lambda: node.migrate_out(0),
            lambda: node.migrate_out(0),  # gone already: not counted
            lambda: node.write(2),
            lambda: node.write(3),
        ]
        for step in steps:
            step()
            assert node.conserved
        with pytest.raises(RemoteReadError):
            node.read(0)
        assert sorted(node._slots) == [2, 3]
        assert (node.pages_written, node.pages_read, node.pages_overwritten,
                node.pages_released, node.pages_migrated_out) == (5, 1, 1, 1, 1)
        assert node.crash() == 2
        assert node.pages_stored == 0 and node.pages_lost == 2
        assert node.conserved
        with pytest.raises(RemoteReadError):
            node.read(2)

    def test_release_and_overwrite_accounting(self):
        node = RemoteMemoryNode(capacity_pages=4)
        node.write(0)
        node.write(1)
        node.write(0)  # overwrite
        node.release(1)
        node.release(1)  # double release is a no-op, not double-counted
        assert node.pages_written == 3
        assert node.pages_overwritten == 1
        assert node.pages_released == 1
        assert node.pages_stored == 1

    def test_slot_conservation_invariant(self):
        """written == stored + overwritten + released, so slot leaks are
        visible as a broken equality rather than silent growth."""
        import random

        node = RemoteMemoryNode(capacity_pages=16)
        rng = random.Random(3)
        for step in range(500):
            slot = rng.randrange(24)
            if rng.random() < 0.6:
                try:
                    node.write(slot)
                except MemoryError:
                    node.release(rng.choice(list(node._slots)))
            else:
                node.release(slot)
            assert node.pages_written == (
                node.pages_stored + node.pages_overwritten + node.pages_released
            )
