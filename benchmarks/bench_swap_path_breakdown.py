"""Section II-A — the swap-path cost breakdown.

The paper decomposes one fault into six steps: context switch 0.3 us,
PTE walk 0.6 us, swapcache ops 0.4 us, 4 KB RDMA ~4 us, reclaim (since
v5.8 off the critical path), PTE set 1 us — a remote fault of 8.3-11.3
us, a prefetch-hit of 2.3 us, at least 23x a DRAM hit.

This bench *measures* those path costs on the live machine (not just
the constants): it drives each fault type and checks the per-access
charge, then prints the breakdown table the paper's Section II-A gives.
"""

import pytest

from repro.analysis.report import print_artifact, render_table
from repro.common import constants
from repro.sim.machine import Machine, MachineConfig
from repro.net.rdma import FabricConfig


def quiet_machine(limit=8):
    machine = Machine(
        MachineConfig(
            local_memory_pages=limit,
            fabric=FabricConfig(jitter_us=0.0, spike_probability=0.0),
            watermark_slack=2,
        )
    )
    machine.register_process(1)
    return machine


def measure_paths():
    """Return measured (remote_fault, prefetch_hit, dram_hit) costs."""
    machine = quiet_machine()
    # Thrash pages 0..15 so 0..7 end up remote.
    for vpn in range(16):
        machine.access(1, vpn << 12)
    remote_fault = machine.access(1, 0) - machine.config.compute_us_per_access

    arrival = machine.prefetch_page(1, 1, machine.now_us, False, "bench")
    machine.now_us = arrival + 1.0
    machine.access(1, 300 << 12)  # drain the arrival
    prefetch_hit = machine.access(1, 1 << 12)

    dram_hit = machine.access(1, 1 << 12)
    return remote_fault, prefetch_hit, dram_hit


def test_swap_path_breakdown():
    remote_fault, prefetch_hit, dram_hit = measure_paths()

    rows = [
        ["(1) context switch", constants.T_CONTEXT_SWITCH_US, "0.3"],
        ["(2) page-table walk", constants.T_PTE_WALK_US, "0.6"],
        ["(3) swapcache query/alloc", constants.T_SWAPCACHE_OP_US, "0.4"],
        ["(4) 4KB page over RDMA", constants.T_RDMA_PAGE_US, "~4"],
        ["(5) reclaim (async, off-path)", constants.T_RECLAIM_CRITICAL_RESIDUE_US,
         "0 (since v5.8)"],
        ["(6) PTE set + return", constants.T_PTE_SET_US, "1"],
        ["remote fault total (measured)", remote_fault, "8.3-11.3"],
        ["prefetch-hit (measured)", prefetch_hit, "2.3"],
        ["DRAM hit (measured)", dram_hit, "0.1"],
    ]
    print_artifact(
        "Section II-A: swap-path cost breakdown (us)",
        render_table(["step", "model (us)", "paper (us)"], rows, precision=2),
    )

    # The measured path costs equal the constants they are built from.
    assert remote_fault == pytest.approx(
        constants.T_CONTEXT_SWITCH_US
        + constants.T_PTE_WALK_US
        + constants.T_SWAPCACHE_OP_US
        + constants.T_RDMA_PAGE_US
        + constants.T_PTE_SET_US,
        abs=0.01,
    )
    assert prefetch_hit == pytest.approx(constants.T_PREFETCH_HIT_US, abs=0.01)
    assert dram_hit == pytest.approx(constants.T_DRAM_HIT_US, abs=0.01)
    # The paper's headline ratios.
    assert prefetch_hit / dram_hit == pytest.approx(23.0, rel=0.01)
    assert remote_fault > 2.5 * prefetch_hit
