"""Shared test fixtures and helpers."""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro.common.types import StreamObservation
from repro.hopp import ssp
from repro.net.rdma import FabricConfig
from repro.sim.machine import Machine, MachineConfig


def make_observation(
    vpns: Sequence[int],
    pid: int = 1,
    stream_id: int = 0,
    timestamp_us: float = 0.0,
) -> StreamObservation:
    """Build a StreamObservation from a raw VPN history (oldest first)."""
    vpns = list(vpns)
    strides = [b - a for a, b in zip(vpns, vpns[1:])]
    return StreamObservation(
        pid=pid,
        vpn=vpns[-1],
        stride=strides[-1] if strides else 0,
        vpn_history=tuple(vpns),
        stride_history=tuple(strides),
        stream_id=stream_id,
        timestamp_us=timestamp_us,
    )


def ssp_histogram_stride(
    strides: Sequence[int], counts: dict, min_count: int
) -> Optional[int]:
    """The stride SSP picks deciding from the histogram ``counts`` of
    the window ``strides`` at threshold ``min_count`` (half the VPN
    window), or None."""
    vpns = [500] * (2 * min_count + 1)
    stride = strides[-1] if strides else 0
    decision = ssp.train(
        StreamObservation(1, 500, stride, vpns, strides, 0, 0.0, counts)
    )
    return None if decision is None else decision.per_offset_stride


def quiet_fabric(seed: int = 1) -> FabricConfig:
    """A deterministic fabric with no jitter or spikes, for unit tests
    that assert exact latencies."""
    return FabricConfig(jitter_us=0.0, spike_probability=0.0, seed=seed)


@pytest.fixture
def small_machine() -> Machine:
    """A machine with 64 local pages, one process, no prefetcher."""
    machine = Machine(
        MachineConfig(local_memory_pages=64, fabric=quiet_fabric(), watermark_slack=4)
    )
    machine.register_process(1)
    machine.add_vma(1, 0, 4096, "test")
    return machine


def touch_pages(machine: Machine, pid: int, vpns, blocks: int = 1) -> None:
    """Access the first ``blocks`` cachelines of every page in order."""
    for vpn in vpns:
        for block in range(blocks):
            machine.access(pid, (vpn << 12) | (block << 6))
