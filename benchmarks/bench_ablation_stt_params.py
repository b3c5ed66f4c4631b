"""Ablation A1 — Stream Training Table parameters.

Sweeps the history length L (paper default 16) and the clustering
distance Delta_stream (paper default 64) on the stream microbenchmarks.
Expected shapes: tiny L weakens noise robustness (accuracy drops on the
interleaved/noisy stream), huge L delays training (coverage drops on
short streams); a tiny Delta splinters streams, a huge Delta merges
unrelated ones.
"""

from repro.analysis.report import print_artifact, render_table

from common import get_result


def run_variant(history_len: int, delta: int):
    return get_result(
        "stream-interleaved", "hopp", 0.5,
        system_kwargs={"stt_history_len": history_len, "stt_stream_delta": delta},
    )


def test_ablation_stt_history_length():
    rows = []
    coverage = {}
    for history_len in (6, 16, 48):
        result = run_variant(history_len, 64)
        coverage[history_len] = result.coverage
        rows.append([f"L={history_len}", result.accuracy, result.coverage])
    print_artifact(
        "Ablation A1a: STT history length L (interleaved streams + noise)",
        render_table(["config", "accuracy", "coverage"], rows),
    )
    # The paper's L=16 midpoint is competitive with both extremes.
    assert coverage[16] >= max(coverage[6], coverage[48]) - 0.05


def test_ablation_stt_stream_delta():
    rows = []
    coverage = {}
    for delta in (4, 64, 1024):
        result = run_variant(16, delta)
        coverage[delta] = result.coverage
        rows.append([f"delta={delta}", result.accuracy, result.coverage])
    print_artifact(
        "Ablation A1b: STT clustering distance Delta_stream",
        render_table(["config", "accuracy", "coverage"], rows),
    )
    # Stride-2 streams need delta >= stride window; delta=4 still works
    # for these micros, but the default must not trail the best by much.
    assert coverage[64] >= max(coverage.values()) - 0.05
