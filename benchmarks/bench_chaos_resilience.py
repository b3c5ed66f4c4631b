"""Resilience under a hostile fabric — the fault-injection framework's
headline experiment.

Runs the stream workload under Fastswap, Depth-16, and HoPP on a clean
fabric and under the ``chaos`` fault-plan preset (probabilistic READ and
WRITE drops, a link flap, a degraded epoch, a remote stall), and reports
the slowdown each system pays plus its failure accounting.

Shapes (not paper figures — the paper's testbed never loses the link,
this stresses the reproduction's robustness):

* every system completes under chaos, and within a bounded slowdown;
* demand reads survive via retry/backoff (retries > 0, no fatal);
* dropped prefetches never pollute accuracy (measured over delivered);
* HoPP stays ahead of Fastswap even while the fabric is hostile.
"""

from repro.analysis.report import print_artifact, render_table
from repro.net.faults import FaultPlan
from repro.sim.machine import RunEnv

from common import SEED, get_result

SYSTEMS = ("fastswap", "depth-16", "hopp")


def _run(system, plan):
    return get_result("stream-simple", system, 0.5, env=RunEnv(fault_plan=plan))


def test_chaos_resilience():
    rows = []
    clean, chaos = {}, {}
    for system in SYSTEMS:
        clean[system] = _run(system, None)
        chaos[system] = _run(system, FaultPlan.chaos(SEED))
        slowdown = (
            chaos[system].completion_time_us / clean[system].completion_time_us
        )
        rows.append(
            [
                system,
                f"{slowdown:.3f}x",
                chaos[system].timeouts,
                chaos[system].retries,
                chaos[system].dropped_prefetches,
                f"{chaos[system].accuracy:.3f}",
                f"{clean[system].accuracy:.3f}",
            ]
        )
    print_artifact(
        "Chaos resilience: chaos preset vs clean fabric (stream-simple @50%)",
        render_table(
            ["system", "slowdown", "timeouts", "retries", "dropped",
             "acc(chaos)", "acc(clean)"],
            rows,
        ),
    )

    for system in SYSTEMS:
        # Completion under chaos, at a bounded cost.
        assert chaos[system].completion_time_us >= clean[system].completion_time_us
        assert (
            chaos[system].completion_time_us
            < clean[system].completion_time_us * 20
        ), f"{system} collapsed under the chaos preset"
        # The retry path did real work and nothing went fatal.
        assert chaos[system].timeouts > 0
        assert chaos[system].retries > 0
        # Conservation: a dropped prefetch can never be a hit.
        assert chaos[system].prefetch_hits <= (
            chaos[system].prefetch_issued - chaos[system].dropped_prefetches
        )
        # Accuracy is measured over delivered prefetches, so injected
        # drops do not corrupt it.
        assert 0.0 <= chaos[system].accuracy <= 1.0
    # Prefetching still pays off on a hostile fabric.
    assert (
        chaos["hopp"].completion_time_us
        < chaos["fastswap"].completion_time_us
    )
