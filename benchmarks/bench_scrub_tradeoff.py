"""Patrol-scrub rate vs detection latency vs overhead — the integrity
subsystem's headline experiment.

Runs quicksort under HoPP with the ``corruption`` fault-plan preset
(silent wire flips plus latent media errors) and replication 2, sweeping
the patrol scrubber's audit rate from off to aggressive.  Each scrub
step pays a modeled READ on the holder's link, riding the repair
engine's rate limiter, so a faster patrol finds latent corruption
sooner but steals more fabric time from the foreground workload.

Shapes (not paper figures — the paper's testbed never corrupts a page,
this stresses the reproduction's end-to-end integrity story):

* with a replica every detected corruption is repaired in place at
  moderate audit rates — nothing is poisoned up to the default rate
  (an extreme patrol can surface a *double* strike, both replicas
  latent-bad at once, which is genuinely unrepairable and poisons);
* scrub reads grow roughly linearly with the audit rate;
* a faster patrol catches latent media errors earlier: mean detection
  latency falls monotonically-ish as the rate climbs, because fewer
  strikes wait for a demand read to trip over them;
* the foreground cost stays bounded — even the most aggressive patrol
  in the sweep stretches completion by well under 2x.
"""

from repro.analysis.report import print_artifact, render_table
from repro.integrity import ScrubConfig
from repro.net.faults import FaultPlan
from repro.cluster import ClusterConfig
from repro.sim.machine import RunEnv

from common import SEED, get_result

WORKLOAD = "quicksort"
FRACTION = 0.5
NODES = 3
RATES = (None, 500.0, 2_000.0, 5_000.0, 20_000.0)


def _run(rate):
    scrub = None if rate is None else ScrubConfig(rate_pages_per_s=rate)
    return get_result(
        WORKLOAD,
        "hopp",
        FRACTION,
        env=RunEnv(
            fault_plan=FaultPlan.corruption(SEED),
            cluster=ClusterConfig(nodes=NODES, replication=2),
            scrub=scrub,
        ),
    )


def test_scrub_tradeoff():
    results = {rate: _run(rate) for rate in RATES}
    baseline_ct = results[None].completion_time_us

    rows = []
    for rate in RATES:
        sec = results[rate].integrity
        latency = sec["detect_latency_us"]
        overhead = results[rate].completion_time_us / baseline_ct
        rows.append(
            [
                "off" if rate is None else f"{rate:g}",
                sec["scrub_reads"],
                sec["scrub_detected"],
                sec["corruption_detected"],
                sec["corruption_repaired"],
                sec["pages_poisoned"],
                f"{latency['mean'] / 1000.0:.2f}",
                f"{latency['max'] / 1000.0:.2f}",
                f"{overhead:.3f}x",
            ]
        )
    print_artifact(
        "Scrub-rate tradeoff: audit pressure vs detection latency "
        f"({WORKLOAD} @{FRACTION:g}, corruption preset, repl=2)",
        render_table(
            ["rate(pg/s)", "scrub-rd", "scrub-det", "detected", "repaired",
             "poisoned", "lat-mean(ms)", "lat-max(ms)", "slowdown"],
            rows,
        ),
    )

    for rate in RATES:
        sec = results[rate].integrity
        # The ledger closes at every rate: each detection is repaired,
        # deferred, or poisoned — never silently dropped.
        assert sec["corruption_detected"] == (
            sec["corruption_repaired"]
            + sec["corruption_unresolved"]
            + sec["poisoned_copies"]
        )
        assert sec["corruption_detected"] > 0
        # Replication 2 means a detection normally finds a clean
        # sibling; up to the default audit rate nothing is poisoned.
        if rate is None or rate <= 5_000.0:
            assert sec["pages_poisoned"] == 0
            assert sec["corruption_detected"] == sec["corruption_repaired"]
        # The patrol only ever *adds* detection opportunities.
        assert sec["scrub_detected"] <= sec["corruption_detected"]
        # Overhead is real but bounded.
        assert results[rate].completion_time_us < baseline_ct * 2

    # No patrol, no audit reads; armed patrols do real work and more
    # audit pressure means more (never fewer) reads.
    scrub_reads = [results[rate].integrity["scrub_reads"] for rate in RATES]
    assert scrub_reads[0] == 0
    assert all(r > 0 for r in scrub_reads[1:])
    assert scrub_reads[1:] == sorted(scrub_reads[1:])

    # A faster patrol catches latent media errors sooner: the slowest
    # armed patrol must not beat the fastest one on mean latency.
    slowest = results[RATES[1]].integrity["detect_latency_us"]["mean"]
    fastest = results[RATES[-1]].integrity["detect_latency_us"]["mean"]
    assert fastest <= slowest
