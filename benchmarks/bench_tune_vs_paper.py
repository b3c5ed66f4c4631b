"""Autotuner vs the paper's hand-tuned configuration.

The paper fixes the HPD/STT/policy design by hand (4x16 HPD, N=8,
alpha=0.2...).  This bench runs all three search strategies at an equal
evaluation budget over the HPD-geometry space on one workload and asks
the reproduction question: does black-box search *find* a configuration
at least as good as the paper's on the scalarized objective?

The evolutionary arm warm-starts generation zero with the paper's own
design point (the standard include-the-expert trick), so "searched >=
paper" holds by construction for it; random and successive halving
compete from scratch at the same budget.  Every evaluation rides the
exec engine's cache, so reruns of this bench are nearly free.
"""

from repro.analysis.report import print_artifact, render_table
from repro.exec.pool import execute, local_ct_spec
from repro.exec.spec import RunSpec
from repro.tune import (
    Evolutionary,
    FidelitySpec,
    Objective,
    RandomSearch,
    SuccessiveHalving,
    Tuner,
    build_space,
    default_config,
    extract_metrics,
    to_run_spec,
)

from common import CACHE, FABRIC, SEED, paper_fraction

WORKLOAD = "stream-simple"
SPACE = "hpd"
BUDGET = 9  # identical for all three strategies


def _base_spec() -> RunSpec:
    return RunSpec(
        workload=WORKLOAD,
        system="hopp",
        fraction=paper_fraction(WORKLOAD),
        seed=SEED,
        fabric=FABRIC,
    )


def _paper_score(base: RunSpec, space, objective: Objective) -> float:
    """The paper's own design point, scored through the identical
    pipeline the search uses (same yardstick, same scalarization)."""
    paper_point = default_config(space, base)
    spec = to_run_spec(base, paper_point)
    ct_spec = local_ct_spec(WORKLOAD, SEED, FABRIC, base.workload_kwargs)
    ct_result, result = execute([ct_spec, spec], cache=CACHE)
    return objective.score(
        extract_metrics(result, ct_result.completion_time_us)
    )


def _search(strategy_name: str, base: RunSpec, space, objective: Objective):
    if strategy_name == "random":
        strategy = RandomSearch(space, SEED)
        fidelity = None
    elif strategy_name == "evolve":
        strategy = Evolutionary(
            space, SEED, mu=4, lam=4,
            seed_configs=[default_config(space, base)],
        )
        fidelity = None
    else:
        fidelity = FidelitySpec("passes", (1, 2))
        strategy = SuccessiveHalving(
            space, SEED,
            initial=SuccessiveHalving.plan_initial(BUDGET, eta=2, rungs=2),
            eta=2, rungs=2,
        )
    tuner = Tuner(
        space, strategy, base, budget=BUDGET, objective=objective,
        fidelity=fidelity, cache=CACHE,
    )
    return tuner.run()


def test_tune_vs_paper():
    space = build_space(SPACE)
    objective = Objective()
    base = _base_spec()
    paper = _paper_score(base, space, objective)

    rows = []
    best_by_strategy = {}
    for name in ("random", "evolve", "sha"):
        result = _search(name, base, space, objective)
        best = result.best
        best_by_strategy[name] = best.score
        rows.append(
            [
                name,
                len(result.trials),
                f"{best.score:.4f}",
                f"{best.score - paper:+.4f}",
                " ".join(
                    f"{key.split('.')[-1]}={best.config[key]}"
                    for key in sorted(best.config)
                ),
            ]
        )
    rows.append(["(paper)", 1, f"{paper:.4f}", "+0.0000",
                 "threshold=8 sets=4 ways=16"])
    print_artifact(
        f"Autotuner vs paper config ({WORKLOAD}, '{SPACE}' space, "
        f"budget={BUDGET})",
        render_table(
            ["strategy", "trials", "best score", "vs paper", "best config"],
            rows,
        ),
    )

    # The reproduction claims: (1) every strategy spends the same
    # budget; (2) search matches or beats the hand-tuned design — the
    # warm-started evolutionary arm by construction, and the best arm
    # overall strictly so at any budget where random sampling finds one
    # better point.
    assert best_by_strategy["evolve"] >= paper
    assert max(best_by_strategy.values()) >= paper
