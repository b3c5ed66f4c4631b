"""Design-space autotuner: DSL validation, strategy determinism,
journal resume, and the cache-key property every dimension must hold.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from repro.baselines.fastswap import FastswapPrefetcher
from repro.exec.cache import ResultCache, cache_key
from repro.exec.spec import RunSpec
from repro.hopp.policy import PolicyConfig
from repro.hopp.system import HoppConfig, HoppDataPlane
from repro.sim import runner
from repro.sim import systems as systems_mod
from repro.sim.machine import Machine, MachineConfig
from repro.tune import (
    CatParam,
    Constraint,
    Evolutionary,
    FidelitySpec,
    FloatParam,
    IntParam,
    Objective,
    ObjectiveError,
    RandomSearch,
    SearchSpace,
    SpaceError,
    SuccessiveHalving,
    TuneError,
    Tuner,
    build_space,
    default_config,
    space_names,
    strategy_names,
    to_run_spec,
)
from repro.workloads import build as build_workload
from tests.conftest import quiet_fabric


def small_base(**overrides) -> RunSpec:
    base = dict(
        workload="stream-simple",
        system="hopp",
        fraction=0.5,
        seed=3,
        workload_kwargs={"npages": 64, "passes": 1},
        fabric=quiet_fabric(3),
    )
    base.update(overrides)
    return RunSpec(**base)


def tiny_space() -> SearchSpace:
    return SearchSpace(
        (
            IntParam("system.hpd_threshold", 2, 32, log=True),
            CatParam("system.hpd_sets", (1, 4, 16)),
            FloatParam("system.policy.alpha", 0.05, 0.8, log=True),
        ),
        name="tiny",
    )


# ---------------------------------------------------------------------------
# DSL


class TestParams:
    def test_bad_binding_root_rejected(self):
        with pytest.raises(SpaceError, match="root"):
            IntParam("bogus.threshold", 1, 4)

    def test_run_root_only_binds_fraction(self):
        with pytest.raises(SpaceError, match="run.fraction"):
            FloatParam("run.seed", 0.1, 1.0)

    def test_int_bounds_validated(self):
        with pytest.raises(SpaceError, match="lo"):
            IntParam("system.hpd_threshold", 9, 4)
        with pytest.raises(SpaceError, match="log"):
            IntParam("system.hpd_threshold", 0, 4, log=True)

    def test_float_log_needs_positive_lo(self):
        with pytest.raises(SpaceError, match="log"):
            FloatParam("system.policy.alpha", 0.0, 1.0, log=True)

    def test_cat_needs_distinct_choices(self):
        with pytest.raises(SpaceError, match="choices"):
            CatParam("system.hpd_sets", (4,))
        with pytest.raises(SpaceError, match="duplicate"):
            CatParam("system.hpd_sets", (4, 4))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sampling_within_bounds_and_deterministic(self, seed):
        space = tiny_space()
        a = space.sample(Random(seed))
        b = space.sample(Random(seed))
        assert a == b
        space.validate(a)

    def test_mutation_moves_and_stays_valid(self):
        space = tiny_space()
        rng = Random(11)
        config = space.sample(rng)
        for _ in range(50):
            child = space.mutate(config, rng)
            assert child != config  # at least one dimension moved
            space.validate(child)
            config = child

    def test_int_validate_rejects_bool_and_float(self):
        param = IntParam("system.hpd_threshold", 2, 32)
        with pytest.raises(SpaceError):
            param.validate(True)
        with pytest.raises(SpaceError):
            param.validate(8.0)
        with pytest.raises(SpaceError):
            param.validate(64)

    def test_space_rejects_duplicates_and_empty(self):
        with pytest.raises(SpaceError, match="duplicate"):
            SearchSpace(
                (
                    IntParam("system.hpd_threshold", 2, 4),
                    IntParam("system.hpd_threshold", 2, 8),
                )
            )
        with pytest.raises(SpaceError, match=">= 1"):
            SearchSpace(())

    def test_validate_flags_missing_and_extra(self):
        space = tiny_space()
        with pytest.raises(SpaceError, match="missing"):
            space.validate({"system.hpd_threshold": 4})

    def test_space_round_trips_through_dict(self):
        space = tiny_space()
        clone = SearchSpace.from_dict(json.loads(json.dumps(space.to_dict())))
        assert clone == space

    def test_named_spaces_build(self):
        assert set(space_names()) >= {"hpd", "hopp-core", "placement", "full"}
        for name in space_names():
            space = build_space(name)
            space.validate(space.sample(Random(1)))


class TestBinding:
    def test_system_dims_land_in_system_kwargs(self):
        spec = to_run_spec(small_base(), {"system.hpd_threshold": 16})
        assert spec.system_kwargs == {"hpd_threshold": 16}

    def test_workload_dims_merge_into_kwargs(self):
        spec = to_run_spec(small_base(), {"workload.passes": 2})
        assert spec.workload_kwargs["passes"] == 2
        assert spec.workload_kwargs["npages"] == 64

    def test_cluster_and_fraction_dims(self):
        spec = to_run_spec(
            small_base(),
            {"cluster.nodes": 3, "cluster.replication": 2, "run.fraction": 0.25},
        )
        assert spec.env.cluster.nodes == 3
        assert spec.env.cluster.replication == 2
        assert spec.fraction == 0.25

    def test_memtier_pool_nodes_zero_means_untiered(self):
        off = to_run_spec(
            small_base(),
            {"memtier.pool_nodes": 0, "memtier.cxl_latency_us": 1.0},
        )
        assert off.env.memtier is None
        on = to_run_spec(
            small_base(),
            {"memtier.pool_nodes": 2, "memtier.cxl_latency_us": 1.0},
        )
        assert on.env.memtier.pool_nodes == 2
        assert on.env.memtier.cxl_latency_us == 1.0

    def test_base_spec_is_not_mutated(self):
        base = small_base()
        to_run_spec(base, {"system.hpd_threshold": 16, "workload.passes": 2})
        assert base.system_kwargs == {}
        assert base.workload_kwargs["passes"] == 1

    def test_default_config_is_the_paper_point(self):
        space = build_space("hpd")
        point = default_config(space, small_base())
        space.validate(point)
        knobs = systems_mod.hopp_knob_values("hopp")
        assert point["system.hpd_threshold"] == knobs["hpd_threshold"]

    def test_default_config_snaps_outside_values(self):
        space = SearchSpace(
            (CatParam("cluster.nodes", (2, 3)),), name="snap"
        )
        # The base's single-node cluster is outside the space; it snaps
        # to the nearest choice rather than failing.
        point = default_config(space, small_base())
        assert point["cluster.nodes"] == 2


class TestEveryDimensionPerturbsTheCacheKey:
    """Satellite property: a search dimension that does not reach the
    cache key would make the tuner silently reuse a wrong result."""

    @pytest.mark.parametrize("space_name", ["hpd", "hopp-core", "placement"])
    def test_each_dimension_perturbs_key(self, space_name):
        space = build_space(space_name)
        config = space.sample(Random(5))
        if "memtier.pool_nodes" in config:
            # With the pool off, pooled-tier knobs are legitimately
            # irrelevant; pin it on so every memtier dim is live.
            config["memtier.pool_nodes"] = 2
        base = small_base()
        baseline = cache_key(to_run_spec(base, config))
        for param in space:
            changed = dict(config)
            value = config[param.name]
            if isinstance(param, CatParam):
                others = [c for c in param.choices if c != value]
                changed[param.name] = others[0]
            elif isinstance(param, IntParam):
                changed[param.name] = (
                    param.lo if value != param.lo else param.hi
                )
            else:
                changed[param.name] = (
                    param.lo if value != param.lo else param.hi
                )
            assert cache_key(to_run_spec(base, changed)) != baseline, (
                f"{param.name} does not perturb the cache key"
            )


# ---------------------------------------------------------------------------
# Objective


class TestObjective:
    METRICS = {
        "normalized_performance": 0.8,
        "accuracy": 0.6,
        "coverage": 0.7,
        "completion_time_us": 1000.0,
        "page_faults": 50.0,
        "remote_accesses": 100.0,
        "prefetch_wasted": 5.0,
        "prefetch_issued": 80.0,
    }

    def test_plain_goal_score(self):
        assert Objective().score(self.METRICS) == 0.8

    def test_minimize_negates(self):
        objective = Objective.parse("-completion_time_us")
        assert objective.score(self.METRICS) == -1000.0

    def test_constraint_penalty_applies(self):
        objective = Objective.parse(
            "normalized_performance", ["accuracy>=0.9@10"]
        )
        score = objective.score(self.METRICS)
        assert score == pytest.approx(0.8 - 10 * 0.3)
        assert not objective.feasible(self.METRICS)

    def test_satisfied_constraint_costs_nothing(self):
        objective = Objective.parse(
            "normalized_performance", ["accuracy>=0.5"]
        )
        assert objective.score(self.METRICS) == 0.8
        assert objective.feasible(self.METRICS)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ObjectiveError):
            Objective.parse("no_such_metric")
        with pytest.raises(ObjectiveError):
            Constraint.parse("accuracy=0.5")
        with pytest.raises(ObjectiveError):
            Constraint.parse("accuracy>=abc")


# ---------------------------------------------------------------------------
# Strategies


def _fake_trials(requests, start, scorer):
    from repro.tune import Trial

    return [
        Trial(
            index=start + i,
            config=dict(r.config),
            fidelity=r.fidelity,
            metrics={},
            score=scorer(r.config),
        )
        for i, r in enumerate(requests)
    ]


class TestStrategies:
    def test_registry(self):
        assert strategy_names() == ["evolve", "random", "sha"]

    def test_random_is_deterministic_per_seed(self):
        a = RandomSearch(tiny_space(), seed=5).ask(8)
        b = RandomSearch(tiny_space(), seed=5).ask(8)
        assert [r.config for r in a] == [r.config for r in b]
        c = RandomSearch(tiny_space(), seed=6).ask(8)
        assert [r.config for r in a] != [r.config for r in c]

    def test_random_prefix_property(self):
        # ask(small) proposals are a prefix of ask(large): the
        # trajectory cannot depend on the budget, only on the seed.
        a = RandomSearch(tiny_space(), seed=5).ask(3)
        b = RandomSearch(tiny_space(), seed=5).ask(8)
        assert [r.config for r in a] == [r.config for r in b][:3]

    def test_evolve_warm_start_leads_generation_zero(self):
        space = tiny_space()
        expert = {
            "system.hpd_threshold": 8,
            "system.hpd_sets": 4,
            "system.policy.alpha": 0.2,
        }
        strategy = Evolutionary(space, seed=2, mu=3, lam=3,
                                seed_configs=[expert])
        gen0 = strategy.ask(10)
        assert gen0[0].config == expert
        assert len(gen0) == 3

    def test_evolve_children_mutate_parents(self):
        space = tiny_space()
        strategy = Evolutionary(space, seed=2, mu=2, lam=4)
        gen0 = strategy.ask(10)
        strategy.tell(_fake_trials(gen0, 0, lambda c: c["system.hpd_threshold"]))
        children = strategy.ask(10)
        assert len(children) == 4
        for child in children:
            space.validate(child.config)

    def test_evolve_rejects_invalid_seed_config(self):
        with pytest.raises(SpaceError):
            Evolutionary(tiny_space(), seed=2, seed_configs=[{"bad": 1}])

    def test_sha_promotes_top_fraction_per_rung(self):
        space = tiny_space()
        strategy = SuccessiveHalving(space, seed=4, initial=4, eta=2, rungs=2)
        rung0 = strategy.ask(100)
        assert [r.fidelity for r in rung0] == [0, 0, 0, 0]
        # Score by threshold: the two highest-threshold configs survive.
        trials = _fake_trials(rung0, 0,
                              lambda c: c["system.hpd_threshold"])
        strategy.tell(trials)
        rung1 = strategy.ask(100)
        assert [r.fidelity for r in rung1] == [1, 1]
        survivors = sorted(trials, key=lambda t: -t.score)[:2]
        assert [r.config for r in rung1] == [t.config for t in survivors]
        strategy.tell(_fake_trials(rung1, 4, lambda c: 0.0))
        assert strategy.finished()

    def test_sha_plan_initial_fits_budget(self):
        assert SuccessiveHalving.plan_initial(9, eta=2, rungs=2) == 6
        assert SuccessiveHalving.plan_initial(1, eta=2, rungs=2) == 1
        for budget in range(1, 30):
            n0 = SuccessiveHalving.plan_initial(budget, eta=2, rungs=2)
            assert n0 + max(1, n0 // 2) <= max(budget, 2)


# ---------------------------------------------------------------------------
# Tuner end-to-end


def make_tuner(tmp_path, budget, seed=3, journal=None, resume=False,
               cache_name="cache", strategy=None):
    space = build_space("hpd")
    base = small_base()
    strategy = strategy or RandomSearch(space, seed=seed, batch=2)
    return Tuner(
        space, strategy, base, budget=budget, objective=Objective(),
        cache=ResultCache(tmp_path / cache_name),
        journal=journal, resume=resume,
    )


class TestTuner:
    def test_rejects_bad_budget_and_jobs(self, tmp_path):
        with pytest.raises(TuneError, match="budget"):
            make_tuner(tmp_path, budget=0)
        space = build_space("hpd")
        with pytest.raises(TuneError, match="jobs"):
            Tuner(space, RandomSearch(space, 1), small_base(),
                  budget=1, jobs=0)

    def test_budget_is_respected(self, tmp_path):
        result = make_tuner(tmp_path, budget=3).run()
        assert len(result.trials) == 3
        assert result.evaluations == 3

    def test_same_seed_same_trajectory(self, tmp_path):
        a = make_tuner(tmp_path, budget=4, cache_name="a").run()
        b = make_tuner(tmp_path, budget=4, cache_name="b").run()
        assert a.trajectory() == b.trajectory()
        assert [t.config for t in a.trials] == [t.config for t in b.trials]
        assert a.best.index == b.best.index

    def test_warm_rerun_is_all_cache_hits(self, tmp_path):
        make_tuner(tmp_path, budget=4).run()
        warm = make_tuner(tmp_path, budget=4).run()
        stats = warm.cache_stats
        assert stats["misses"] == 0 and stats["stores"] == 0
        assert stats["hits"] > 0

    def test_kill_then_resume_reproduces_the_trajectory(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        # The "killed" run: two of four trials land in the journal.
        partial = make_tuner(tmp_path, budget=2, journal=journal).run()
        assert len(journal.read_text().splitlines()) == 3  # header + 2
        # Resume with the full budget.
        resumed = make_tuner(tmp_path, budget=4, journal=journal,
                             resume=True).run()
        assert resumed.journal_replays == 2
        assert resumed.evaluations == 2
        assert [t.config for t in resumed.trials[:2]] == [
            t.config for t in partial.trials
        ]
        # ... and the resumed trajectory equals an uninterrupted run's.
        fresh = make_tuner(tmp_path, budget=4, cache_name="fresh").run()
        assert resumed.trajectory() == fresh.trajectory()
        assert resumed.best.config == fresh.best.config
        # The journal now holds all four trials.
        assert len(journal.read_text().splitlines()) == 5

    def test_resume_refuses_a_different_search(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        make_tuner(tmp_path, budget=2, journal=journal).run()
        with pytest.raises(TuneError, match="header does not match"):
            make_tuner(tmp_path, budget=2, seed=99, journal=journal,
                       resume=True).run()

    def test_resume_refuses_garbage_journal(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        journal.write_text("not json\n")
        with pytest.raises(TuneError, match="JSONL"):
            make_tuner(tmp_path, budget=2, journal=journal,
                       resume=True).run()

    def test_sha_end_to_end_with_fidelity(self, tmp_path):
        space = build_space("hpd")
        strategy = SuccessiveHalving(space, seed=4, initial=4, eta=2,
                                     rungs=2)
        tuner = Tuner(
            space, strategy, small_base(), budget=6,
            objective=Objective(),
            fidelity=FidelitySpec("passes", (1, 2)),
            cache=ResultCache(tmp_path / "cache"),
        )
        result = tuner.run()
        assert [t.fidelity for t in result.trials] == [0, 0, 0, 0, 1, 1]
        # Best comes from the full-fidelity rung only.
        assert result.best.fidelity == 1

    def test_sha_without_fidelity_spec_is_an_error(self, tmp_path):
        space = build_space("hpd")
        strategy = SuccessiveHalving(space, seed=4, initial=2, eta=2,
                                     rungs=2)
        tuner = Tuner(space, strategy, small_base(), budget=4,
                      objective=Objective(),
                      cache=ResultCache(tmp_path / "cache"))
        with pytest.raises(TuneError, match="FidelitySpec"):
            tuner.run()

    def test_evolve_warm_start_never_loses_to_paper(self, tmp_path):
        space = build_space("hpd")
        base = small_base()
        paper = default_config(space, base)
        strategy = Evolutionary(space, seed=3, mu=2, lam=2,
                                seed_configs=[paper])
        result = Tuner(space, strategy, base, budget=4,
                       objective=Objective(),
                       cache=ResultCache(tmp_path / "cache")).run()
        paper_trial = result.trials[0]
        assert paper_trial.config == paper
        assert result.best.score >= paper_trial.score

    def test_trajectory_is_monotone(self, tmp_path):
        result = make_tuner(tmp_path, budget=4).run()
        bests = [score for _, score in result.trajectory()]
        assert bests == sorted(bests)


# ---------------------------------------------------------------------------
# systems.variant (the plumbing the system.* dimensions ride)


def _hand_built_hopp(config: HoppConfig) -> systems_mod.SystemSpec:
    """HoPP wired by hand: Fastswap's fault path plus a data plane with
    ``config`` on the memory-controller tap."""

    def builder(machine_config: MachineConfig) -> Machine:
        machine = Machine(machine_config, fault_prefetcher=FastswapPrefetcher())
        plane = HoppDataPlane(machine, config)
        machine.hopp = plane
        machine.controller.add_tap(plane.on_mc_access)
        return machine

    return systems_mod.SystemSpec(name="hopp", builder=builder)


class TestVariant:
    def test_overrides_are_validated_up_front(self):
        with pytest.raises(ValueError, match="unknown HoPP knob"):
            systems_mod.variant("hopp", {"no_such_knob": 1})
        with pytest.raises(ValueError, match="wants an int"):
            systems_mod.variant("hopp", {"hpd_threshold": "high"})

    def test_non_hopp_systems_are_not_tunable(self):
        with pytest.raises(ValueError, match="not tunable"):
            systems_mod.variant("fastswap", {"hpd_threshold": 4})

    def test_variant_keeps_name_and_stays_cacheable(self):
        from repro.exec.cache import cacheability

        spec = small_base(system_kwargs={"hpd_threshold": 16})
        ok, why = cacheability(spec)
        assert ok, why
        variant = systems_mod.variant("hopp", {"hpd_threshold": 16})
        assert variant.name == "hopp"

    def test_knob_values_cover_every_knob(self):
        values = systems_mod.hopp_knob_values("hopp")
        assert set(values) == set(systems_mod.hopp_knobs())

    @pytest.mark.parametrize(
        "overrides, config",
        [
            ({"rpt_cache_kb": 4}, HoppConfig(rpt_cache_kb=4)),
            ({"policy.adaptive": False},
             HoppConfig(policy=PolicyConfig(adaptive=False))),
            ({"policy.intensity": 2},
             HoppConfig(policy=PolicyConfig(intensity=2))),
            ({"stt_history_len": 6, "stt_stream_delta": 4},
             HoppConfig(stt_history_len=6, stt_stream_delta=4)),
            ({"mc_channels": 2}, HoppConfig(mc_channels=2)),
        ],
        ids=["rpt_cache_kb", "policy.adaptive", "policy.intensity", "stt",
             "mc_channels"],
    )
    def test_variant_matches_hand_built_config(self, overrides, config):
        # Every override moves this workload's result, so the equality
        # cannot hold by the variant ignoring its overrides.
        workload = build_workload(
            "omp-kmeans", seed=3, data_pages=600, iterations=2
        )
        fabric = quiet_fabric(3)
        variant = runner.run(
            workload, systems_mod.variant("hopp", overrides), 0.5, fabric
        ).to_dict(full=True)
        hand_built = runner.run(
            workload, _hand_built_hopp(config), 0.5, fabric
        ).to_dict(full=True)
        plain = runner.run(workload, "hopp", 0.5, fabric).to_dict(full=True)
        assert variant == hand_built
        assert variant != plain
