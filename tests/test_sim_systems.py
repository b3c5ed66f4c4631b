"""Tests for the system registry's composition rules."""

from repro.net.rdma import FabricConfig
from repro.sim import systems
from repro.sim.machine import MachineConfig
from repro.sim.systems import SystemSpec


def config(limit=64):
    return MachineConfig(local_memory_pages=limit, fabric=FabricConfig(seed=1))


class TestRegistryComposition:
    def test_every_registered_system_builds(self):
        for name in systems.names():
            machine = systems.build(name).build(config())
            assert machine.config.local_memory_pages == 64

    def test_hopp_variants_carry_fastswap_fault_path(self):
        """Section V: HoPP is integrated with Fastswap — every hopp*
        system keeps the read-ahead on the fault path."""
        for name in systems.names():
            if not name.startswith("hopp"):
                continue
            machine = systems.build(name).build(config())
            assert machine.fault_prefetcher is not None
            assert machine.fault_prefetcher.name == "fastswap"
            assert machine.hopp is not None

    def test_charging_policy_per_paper(self):
        """Section I: HoPP charges prefetched pages to the cgroup;
        Fastswap and Leap do not."""
        for name, expected in (
            ("hopp", True), ("depth-32", True),
            ("fastswap", False), ("leap", False), ("vma-readahead", False),
        ):
            machine = systems.build(name).build(config())
            assert machine.config.charge_prefetch is expected, name

    def test_depth_variants_inject(self):
        for name in ("depth-16", "depth-32"):
            machine = systems.build(name).build(config())
            assert machine.fault_prefetcher.inject_pte is True

    def test_custom_registration(self):
        from repro.baselines.base import NoPrefetch
        from repro.sim.machine import Machine

        spec = SystemSpec(
            "test-custom", lambda cfg: Machine(cfg, fault_prefetcher=NoPrefetch())
        )
        systems.register(spec)
        try:
            assert "test-custom" in systems.names()
            machine = systems.build("test-custom").build(config())
            assert machine.fault_prefetcher.name == "noprefetch"
        finally:
            del systems._REGISTRY["test-custom"]

    def test_hopp_huge_has_batcher(self):
        machine = systems.build("hopp-huge").build(config())
        assert machine.hopp.batcher is not None
        assert systems.build("hopp").build(config()).hopp.batcher is None

    def test_hopp_evict_has_advisor(self):
        machine = systems.build("hopp-evict").build(config())
        assert machine.hopp.advisor is not None
        assert systems.build("hopp").build(config()).hopp.advisor is None

    def test_hopp_learned_uses_learned_trainer(self):
        from repro.hopp.learned import LearnedTrainer

        machine = systems.build("hopp-learned").build(config())
        assert isinstance(machine.hopp.trainer, LearnedTrainer)

    def test_spec_build_does_not_mutate_shared_config(self):
        shared = config()
        systems.build("fastswap").build(shared)
        # charge_prefetch=False was applied to a copy, not the original.
        assert shared.charge_prefetch is True
