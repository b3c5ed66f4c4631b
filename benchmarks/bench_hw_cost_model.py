"""Section VI-F — hardware feasibility numbers (CACTI substitute).

Paper (22 nm): the HPD table costs 0.000252 mm^2 and 0.0959 mW of
static power; the 64 KB RPT cache costs 0.0673 mm^2 and 21.4 mW.  The
analytical SRAM model is calibrated on exactly those two points and
interpolates other geometries for the ablation benches.
"""

import pytest

from repro.analysis.report import print_artifact, render_table
from repro.hopp.hardware_model import SramModel


def test_hw_cost_model():
    model = SramModel()

    hpd = model.hpd_table()
    rpt64 = model.rpt_cache(64)
    rows = [
        ["HPD table (4x16)", hpd.bits, f"{hpd.area_mm2:.6f}", f"{hpd.static_power_mw:.4f}"],
        ["RPT cache 16KB", model.rpt_cache(16).bits,
         f"{model.rpt_cache(16).area_mm2:.6f}",
         f"{model.rpt_cache(16).static_power_mw:.4f}"],
        ["RPT cache 32KB", model.rpt_cache(32).bits,
         f"{model.rpt_cache(32).area_mm2:.6f}",
         f"{model.rpt_cache(32).static_power_mw:.4f}"],
        ["RPT cache 64KB", rpt64.bits, f"{rpt64.area_mm2:.6f}",
         f"{rpt64.static_power_mw:.4f}"],
    ]
    print_artifact(
        "Section VI-F: area / static power estimates (22 nm, CACTI substitute)",
        render_table(["structure", "bits", "area (mm^2)", "static power (mW)"], rows),
    )

    # Calibration points are exact by construction.
    assert hpd.area_mm2 == pytest.approx(0.000252)
    assert hpd.static_power_mw == pytest.approx(0.0959)
    assert rpt64.area_mm2 == pytest.approx(0.0673)
    assert rpt64.static_power_mw == pytest.approx(21.4)
    # Both structures are tiny by MC standards (the feasibility claim).
    assert rpt64.area_mm2 < 0.1
