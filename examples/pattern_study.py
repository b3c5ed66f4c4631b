#!/usr/bin/env python3
"""Recreate the paper's motivating stream figures (1, 2, 3) and show
what each prefetcher can and cannot see.

* Figure 1: two interleaved streams confuse Leap's fault-history
  majority vote; HoPP's Stream Training Table separates them by
  address-space clustering.
* Figure 2: a ladder stream — SSP finds no dominant stride, LSP finds
  the repeating stride pattern and its period.
* Figure 3: a ripple stream — strides look noisy, but the cumulative
  stride keeps returning to ~0, which RSP counts.

    python examples/pattern_study.py
"""

from repro.analysis import classify_window
from repro.baselines.leap import LeapPrefetcher
from repro.common.types import StreamObservation, target_vpn
from repro.hopp import lsp, rsp, ssp
from repro.hopp.stt import StreamTrainingTable


def make_observation(vpns, pid=1, stream_id=0):
    """Wrap a raw VPN history as the STT would hand it to the tiers."""
    strides = [b - a for a, b in zip(vpns, vpns[1:])]
    return StreamObservation(
        pid=pid,
        vpn=vpns[-1],
        stride=strides[-1],
        vpn_history=tuple(vpns),
        stride_history=tuple(strides),
        stream_id=stream_id,
    )


def show(decision) -> str:
    """A tier decision, ``(tier, base_vpn, per_offset_stride,
    fixed_delta)``, with its fields named."""
    if decision is None:
        return "None"
    tier, base_vpn, per_offset_stride, fixed_delta = decision
    return (
        f"Decision(tier={tier!r}, base_vpn={base_vpn}, "
        f"per_offset_stride={per_offset_stride}, fixed_delta={fixed_delta})"
    )


def figure1_interleaved_streams() -> None:
    print("=== Figure 1: interleaved streams ===")
    stream_a = [100 + 2 * i for i in range(8)]   # stride 2
    stream_b = [5000 + i for i in range(8)]      # stride 1
    interleaved = [vpn for pair in zip(stream_a, stream_b) for vpn in pair]
    print(f"fault order: {interleaved}")

    leap = LeapPrefetcher(window=8)

    class _Stub:  # Leap only reads the history it builds itself
        pass

    for vpn in interleaved:
        leap.on_fault(1, vpn, 0, 0.0, _Stub())
    print(f"Leap majority stride over the global history: "
          f"{leap.detect_stride()}  (0 = no stable stride found)")

    stt = StreamTrainingTable(history_len=8)
    streams = set()
    for vpn in interleaved:
        stt.feed(1, vpn)
    for entry in stt.streams():
        streams.add((entry.vpns[0], entry.vpns[-1] - entry.vpns[0]))
    print(f"HoPP STT separated {len(stt.streams())} streams "
          f"(pages clustering, Delta=64): {sorted(streams)}\n")


def figure2_ladder() -> None:
    print("=== Figure 2: ladder stream ===")
    vpns = []
    for j in range(3):
        for offset in (0, 9, 22, 43):
            vpns.append(1000 + offset + 2 * j)
    history = vpns[:11]
    print(f"VPN history (a1..a11): {history}")
    obs = make_observation(history)
    print(f"SSP decision: {show(ssp.train(obs))}  (no dominant stride)")
    decision = lsp.train(obs)
    _, _, pattern_stride, stride_target = decision
    print(
        f"LSP decision: stride_target={stride_target}, "
        f"pattern_stride={pattern_stride} "
        f"-> prefetch VPN {target_vpn(decision, 1)} at offset 1"
    )
    print(f"actual next ladder access: {vpns[11]} "
          f"(LSP offset-0 prediction: {target_vpn(decision, 0)})\n")


def figure3_ripple() -> None:
    print("=== Figure 3: ripple stream ===")
    vpns = [100, 101, 102, 115, 103, 104, 105, 118, 106, 107,
            108, 109, 121, 110, 111, 112]
    print(f"VPN history with out-of-stream hops: {vpns}")
    obs = make_observation(vpns)
    print(f"SSP decision: {show(ssp.train(obs))}")
    decision = rsp.train(obs)
    print(f"RSP decision: stride_target=1 -> prefetch VPN "
          f"{target_vpn(decision, 1)} at offset 1")
    print(f"window classification: {classify_window(vpns)}\n")


if __name__ == "__main__":
    figure1_interleaved_streams()
    figure2_ladder()
    figure3_ripple()
