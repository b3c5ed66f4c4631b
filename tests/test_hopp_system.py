"""Tests for the assembled HoPP data plane (Figure 4) and the hardware
cost model."""

import pytest

from repro.hopp.hardware_model import SramModel
from repro.hopp.system import HoppConfig, HoppDataPlane
from repro.hopp.three_tier import TierConfig


class RecordingBackend:
    def __init__(self):
        self.requests = []

    def prefetch_page(self, pid, vpn, now_us, inject_pte, tier):
        self.requests.append((pid, vpn, inject_pte, tier))
        return now_us + 4.0


def drive_stream(plane, ppn_to_vpn, npages=40, blocks=8):
    """Feed a sequential physical stream whose RPT maps ppn -> vpn."""
    for ppn in range(npages):
        plane.rpt.write(ppn, ppn_to_vpn(ppn))
    for ppn in range(npages):
        for block in range(blocks):
            plane.on_mc_access(float(ppn), (ppn << 12) | (block << 6), False)


class TestHoppDataPlane:
    def test_pipeline_end_to_end(self):
        from repro.common.types import RptEntry

        backend = RecordingBackend()
        plane = HoppDataPlane(backend, HoppConfig(stt_history_len=8))
        drive_stream(plane, lambda ppn: RptEntry(pid=1, vpn=1000 + ppn))
        # HPD extracted hot pages, RPT resolved them, STT trained, SSP
        # fired, the policy finalized, and the executor issued.
        assert plane.hpd.hot_pages > 0
        assert plane.stt.observations_out > 0
        assert backend.requests
        pid, vpn, inject, tier = backend.requests[0]
        assert pid == 1 and tier == "ssp" and inject is True
        assert vpn > 1000

    def test_unresolved_hot_pages_dropped(self):
        backend = RecordingBackend()
        plane = HoppDataPlane(backend)
        # No RPT entries: every hot page is unresolvable (kernel memory).
        for ppn in range(10):
            for block in range(8):
                plane.on_mc_access(0.0, (ppn << 12) | (block << 6), False)
        assert plane.hot_pages_unresolved > 0
        assert not backend.requests

    def test_writes_do_not_train(self):
        backend = RecordingBackend()
        plane = HoppDataPlane(backend)
        for ppn in range(10):
            for block in range(8):
                plane.on_mc_access(0.0, (ppn << 12) | (block << 6), True)
        assert plane.hpd.hot_pages == 0

    def test_swapcache_mode(self):
        from repro.common.types import RptEntry

        backend = RecordingBackend()
        plane = HoppDataPlane(backend, HoppConfig(inject_pte=False, stt_history_len=8))
        drive_stream(plane, lambda ppn: RptEntry(pid=1, vpn=1000 + ppn))
        assert backend.requests
        assert all(not inject for _, _, inject, _ in backend.requests)

    def test_tier_config_respected(self):
        from repro.common.types import RptEntry

        backend = RecordingBackend()
        plane = HoppDataPlane(
            backend,
            HoppConfig(tiers=TierConfig.only("lsp", "rsp"), stt_history_len=8),
        )
        drive_stream(plane, lambda ppn: RptEntry(pid=1, vpn=1000 + ppn))
        assert all(tier != "ssp" for _, _, _, tier in backend.requests)

    def test_page_mapped_feedback_reaches_executor(self):
        from repro.common.types import RptEntry

        backend = RecordingBackend()
        plane = HoppDataPlane(backend, HoppConfig(stt_history_len=8))
        drive_stream(plane, lambda ppn: RptEntry(pid=1, vpn=1000 + ppn))
        pid, vpn, _, _ = backend.requests[0]
        plane.executor.on_first_hit(pid, vpn, now_us=100.0)
        assert plane.executor.hits == 1

    def test_evicted_feedback_counts_waste(self):
        from repro.common.types import RptEntry

        backend = RecordingBackend()
        plane = HoppDataPlane(backend, HoppConfig(stt_history_len=8))
        drive_stream(plane, lambda ppn: RptEntry(pid=1, vpn=1000 + ppn))
        pid, vpn, _, _ = backend.requests[0]
        plane.executor.on_evicted_unused(pid, vpn)
        assert plane.executor.wasted == 1


class TestSramModel:
    def test_calibrated_to_paper_design_points(self):
        """Section VI-F: HPD 0.000252 mm^2 / 0.0959 mW; 64 KB RPT cache
        0.0673 mm^2 / 21.4 mW (CACTI, 22 nm)."""
        model = SramModel()
        hpd = model.hpd_table()
        assert hpd.area_mm2 == pytest.approx(0.000252, rel=1e-6)
        assert hpd.static_power_mw == pytest.approx(0.0959, rel=1e-6)
        rpt = model.rpt_cache()
        assert rpt.area_mm2 == pytest.approx(0.0673, rel=1e-6)
        assert rpt.static_power_mw == pytest.approx(21.4, rel=1e-6)

    def test_monotone_in_bits(self):
        model = SramModel()
        small = model.rpt_cache(size_kb=16)
        large = model.rpt_cache(size_kb=64)
        assert small.area_mm2 < large.area_mm2
        assert small.static_power_mw < large.static_power_mw

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            SramModel().estimate(-1)
