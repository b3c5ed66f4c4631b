"""Section II-D design-space study (d) — why a single observation point?

"When a process migrates between cores, or a page stream [comes] from
multiple cores, using accesses from a single core cannot identify a
complete page stream."  An MMU-level tap is per-core; the MC sees the
merged stream.

Method: take a multi-threaded workload's access stream, deal it across
C per-core observers (round-robin scheduling quanta, i.e. thread
migration), run an independent STT + three-tier trainer per core, and
count trained prefetch decisions.  The per-core observers see each
stream chopped into fragments; the single MC-level observer sees it
whole.
"""

import itertools

from repro.analysis.report import print_artifact, render_table
from repro.hopp.hpd import HotPageDetector
from repro.hopp.stt import StreamTrainingTable
from repro.hopp.three_tier import ThreeTierTrainer
from repro.workloads import build

from common import SEED

MAX_ACCESSES = 150_000


def decisions_with_observers(ncores: int, quantum_accesses: int = 512) -> int:
    """Deal the trace across ``ncores`` observers in scheduling quanta;
    return the total prefetch decisions trained."""
    workload = build("adder", seed=SEED, pages_per_thread=800)
    observers = [
        (HotPageDetector(), StreamTrainingTable(), ThreeTierTrainer())
        for _ in range(ncores)
    ]
    for position, (pid, vaddr) in enumerate(
        itertools.islice(workload.trace(), MAX_ACCESSES)
    ):
        core = (position // quantum_accesses) % ncores
        hpd, stt, trainer = observers[core]
        hot = hpd.process(vaddr)
        if hot is None:
            continue
        observation = stt.feed(pid, hot)
        if observation is None:
            continue
        trainer.train(observation)
    return sum(
        sum(trainer.decisions_by_tier.values())
        for _, _, trainer in observers
    )


def test_per_core_vs_mc_stream_identification():
    rows = []
    decisions = {}
    for ncores in (1, 2, 4, 8):
        count = decisions_with_observers(ncores)
        decisions[ncores] = count
        label = "MC (merged)" if ncores == 1 else f"{ncores} per-core taps"
        rows.append([label, count])
    print_artifact(
        "Section II-D(d): trained prefetch decisions, merged MC tap vs "
        "per-core observation of a migrating 2-thread workload",
        render_table(["observation point", "prefetch decisions"], rows),
    )

    # The merged view identifies the most stream steps; fragmentation
    # across cores loses training opportunities monotonically-ish.
    assert decisions[1] > decisions[4]
    assert decisions[1] > decisions[8]
