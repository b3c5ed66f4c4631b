"""Ablation A7 — multi-channel memory controllers (Section III-B).

"When multiple channels are interleaved, different cachelines of the
same physical page reside in distinct channels.  In this case, we need
to reduce N.  Although this might lead to repeated hot page
extractions, we could de-duplicate them in the prefetch training
framework."

The sweep shows exactly that: per-channel HPDs with threshold N/C keep
coverage within noise of the single-controller design, at the price of
C-fold repeated extractions absorbed by the STT's same-VPN de-dup.
"""

from repro.analysis.report import print_artifact, render_table
from repro.sim import systems
from repro.sim.runner import collect, make_machine
from repro.workloads import build

from common import FABRIC, SEED


def run_channels(channels: int):
    """One run per channel count.  The machine is built by hand because
    the table reads two counters that a RunResult does not carry: STT
    de-duplications and HPD extractions."""
    workload = build("omp-kmeans", seed=SEED)
    machine = make_machine(
        workload, systems.variant("hopp", {"mc_channels": channels}), 0.5, FABRIC
    )
    machine.run(workload.trace())
    result = collect(machine, f"{channels}ch", workload.name)
    result.extra["stt_duplicates"] = float(machine.hopp.stt.duplicates_dropped)
    result.extra["hot_pages"] = float(machine.hopp.hpd.hot_pages)
    return result


def test_ablation_channel_count():
    rows = []
    results = {}
    for channels in (1, 2, 4):
        result = run_channels(channels)
        results[channels] = result
        rows.append(
            [
                f"{channels} channel(s)",
                result.coverage,
                result.accuracy,
                int(result.extra["hot_pages"]),
                int(result.extra["stt_duplicates"]),
            ]
        )
    print_artifact(
        "Ablation A7: interleaved memory channels (per-channel HPD, N/C)",
        render_table(
            ["config", "coverage", "accuracy", "hot pages", "deduped repeats"],
            rows,
        ),
    )

    # Coverage holds across channel counts; repeated extractions grow
    # with channels and are absorbed by the de-dup.
    for channels in (2, 4):
        assert results[channels].coverage >= results[1].coverage - 0.05
        assert results[channels].extra["stt_duplicates"] > results[1].extra[
            "stt_duplicates"
        ]
