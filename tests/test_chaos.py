"""Chaos suite: the fault-injection framework and the resilient
remote-memory path.

Proves four properties the framework must hold:

* **determinism** — identical seed + plan gives byte-identical counters;
* **conservation** — injected drops never leak frames, charges, slots,
  or prefetch accounting;
* **bounded degradation** — hostile fabric slows the run but it still
  completes, and exhausted retry budgets fail with typed errors;
* **graceful recovery** — the HoPP circuit breaker enters degraded mode
  under sustained failures and re-opens after its cool-down.
"""

import hashlib
import json

import pytest

from repro.baselines.fastswap import FastswapPrefetcher
from repro.exec.cache import cache_key
from repro.exec.spec import RunSpec
from repro.hopp.policy import BreakerConfig, BreakerState, CircuitBreaker
from repro.hopp.system import HoppConfig, HoppDataPlane
from repro.net.faults import (
    DegradedEpoch,
    FaultInjector,
    FaultPlan,
    RemoteFetchFatalError,
    RemoteUnavailableError,
    TransferTimeout,
    Window,
)
from repro.net.rdma import RdmaFabric
from repro.sim import runner
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.metrics import RunResult
from repro.workloads import build
from tests.conftest import quiet_fabric, touch_pages

#: Enough pages and passes that every system evicts, demand-faults, and
#: prefetches under a 50% local fraction.
def _workload():
    return build("stream-simple", npages=200, passes=2)


def _drop_plan(probability=0.2, seed=9):
    return FaultPlan(seed=seed, timeout_probability=probability)


class TestFaultPlanValidation:
    def test_default_plan_is_empty(self):
        assert FaultPlan().is_empty
        assert FaultPlan.none().is_empty

    def test_chaos_preset_is_not_empty(self):
        assert not FaultPlan.chaos().is_empty

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(timeout_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(write_timeout_probability=-0.1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(timeout_us=0.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            Window(100.0, 50.0)

    def test_degradation_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            DegradedEpoch(0.0, 10.0, 0.5)

    def test_from_dict_round_trip(self):
        plan = FaultPlan.chaos(seed=3)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"bogus": 1})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(FaultPlan.chaos(seed=5).to_dict()))
        assert FaultPlan.from_json_file(str(path)) == FaultPlan.chaos(seed=5)

    def test_round_trip_covers_every_field(self, tmp_path):
        # A plan exercising every serializable field, crash/rejoin
        # included, survives to_dict -> JSON -> from_json_file intact.
        plan = FaultPlan(
            seed=9,
            timeout_probability=0.1,
            write_timeout_probability=0.05,
            timeout_us=40.0,
            link_down=((10.0, 20.0),),
            prefetch_down=((30.0, 40.0),),
            degraded=((50.0, 60.0, 3.0),),
            remote_stall=((70.0, 80.0),),
            remote_stall_extra_us=15.0,
            remote_restart=((90.0, 100.0),),
            node_crash=(200.0, 300.0),
            node_rejoin=(250.0,),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "full.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_json_file(str(path)) == plan

    @pytest.mark.parametrize(
        "field,value",
        [
            ("node_crash", "not-a-list"),
            ("node_rejoin", [["nested"]]),
            ("link_down", [[1.0]]),  # a window needs two endpoints
            ("degraded", [[1.0, 2.0]]),  # an epoch needs a factor
            ("timeout_us", "soon"),
        ],
    )
    def test_malformed_field_is_named_in_the_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_dict({field: value})


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _every_plan_field_set() -> FaultPlan:
    return FaultPlan(
        seed=9,
        timeout_probability=0.1,
        write_timeout_probability=0.05,
        timeout_us=40.0,
        link_down=((10.0, 20.0), (25.0, 26.0)),
        prefetch_down=((30.0, 40.0),),
        degraded=((50.0, 60.0, 3.0),),
        remote_stall=((70.0, 80.0),),
        remote_stall_extra_us=15.0,
        remote_restart=((90.0, 100.0),),
        node_crash=(200.0, 300.0),
        node_rejoin=(250.0,),
        bit_flip_read=0.01,
        bit_flip_write=0.02,
        media_error_rate=0.03,
        media_error_latency_us=1234.0,
    )


def _int_valued_plan() -> FaultPlan:
    # Window and crash times are normalized to floats; scalar fields
    # keep the type they were given, and so does the key.
    return FaultPlan(
        seed=4, timeout_us=40, remote_stall_extra_us=3, link_down=[(1, 2)],
        degraded=[(3, 4, 2)], node_crash=[5], node_rejoin=[6],
        media_error_latency_us=7,
    )


_PLAN_CASES = {
    "default": FaultPlan,
    "chaos": FaultPlan.chaos,
    "crash": FaultPlan.crash,
    "crash-rejoin": FaultPlan.crash_rejoin,
    "corruption": FaultPlan.corruption,
    "corruption-chaos": FaultPlan.corruption_chaos,
    "every-field": _every_plan_field_set,
    "ints": _int_valued_plan,
}

#: SHA-256 of each plan's canonical ``to_dict()`` JSON.  Result-cache
#: keys and tune journals embed these bytes, so a change here orphans
#: every cached result that ran under a fault plan.
PLAN_DIGESTS = {
    "default": "e3abe99a439a472d113b1a81de2321f8f271549f8c9a8ce179b52d32f89d9dca",
    "chaos": "552ee9868597f6c4320a638cabeda5c68d05512e8473d2374dba6517c995de13",
    "crash": "3298addb8dec75fa8943cced6db1cba5bac096b368fa60ea59973e7b5bd44e95",
    "crash-rejoin": "57fa583e1c0ab8ae99fc2c4fb31cf67047e887bfb346f5d65a80f3d4a85bcf63",
    "corruption": "7ffebb9f9c09e8fdbf5f5be89e2a2275c3ca01dcd6867ef39398b32057e55554",
    "corruption-chaos": "4b5555ebaa11af21049ed216f382ee94116206f7ead572a00825e697ecbbd036",
    "every-field": "52ae029f2a1fcadd514f13dc70cfc411799b28499e94081b165cb8d5f7856368",
    "ints": "8c7983967706fa8e443ccc4a23be95a2cfe1af6d38870c6215c67377f3515571",
}


class TestFaultPlanWireFormat:
    @pytest.mark.parametrize("case", sorted(_PLAN_CASES))
    def test_bytes_are_pinned(self, case):
        plan = _PLAN_CASES[case]()
        assert hashlib.sha256(_canonical(plan.to_dict())).hexdigest() == PLAN_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(_PLAN_CASES))
    def test_round_trip_through_json(self, case):
        plan = _PLAN_CASES[case]()
        clone = FaultPlan.from_dict(json.loads(_canonical(plan.to_dict())))
        assert clone == plan
        if case != "ints":  # from_dict reads every scalar as a float
            assert _canonical(clone.to_dict()) == _canonical(plan.to_dict())

    def test_chaos_spec_cache_key_is_pinned(self):
        spec = RunSpec(
            "stream-simple", "hopp", 0.5, env=RunEnv(fault_plan=FaultPlan.chaos(1))
        )
        assert cache_key(spec) == (
            "1c2db057f72c4803d750b9f20742c9c3bf474ed068663999117f18a72e78b197"
        )

    def test_every_injecting_field_arms_the_plan(self):
        # The seed and the four shaping scalars (how long a drop waits,
        # a stall lasts or a media error takes to strike) leave a plan
        # empty; any other non-default field injects.
        inert = {"seed", "timeout_us", "remote_stall_extra_us", "media_error_latency_us"}
        for name, value in _every_plan_field_set().to_dict().items():
            if name == "node_rejoin":
                continue  # needs a crash to pair with, which arms on its own
            plan = FaultPlan.from_dict({name: value})
            assert plan.is_empty == (name in inert), name

    def test_unknown_key_message(self):
        with pytest.raises(ValueError) as error:
            FaultPlan.from_dict({"bogus": 1, "zzz": 2})
        assert str(error.value) == "unknown fault-plan keys: ['bogus', 'zzz']"

    @pytest.mark.parametrize(
        "field,value,shown",
        [
            ("node_crash", "not-a-list", "('not-a-list')"),
            ("node_rejoin", [["nested"]], "([['nested']])"),
            ("link_down", [[1.0]], "([[1.0]])"),
            ("degraded", [[1.0, 2.0]], "([[1.0, 2.0]])"),
            ("timeout_us", "soon", "('soon')"),
            ("seed", "x", "('x')"),
            ("bit_flip_read", None, "(None)"),
        ],
    )
    def test_malformed_field_message(self, field, value, shown):
        # The text after the colon is Python's own conversion error,
        # which differs between interpreter versions.
        with pytest.raises(ValueError) as error:
            FaultPlan.from_dict({field: value})
        assert str(error.value).startswith(
            f"fault-plan field {field!r} is malformed {shown}: "
        )


class TestFaultInjector:
    def test_link_down_window_drops_everything(self):
        injector = FaultInjector(FaultPlan(link_down=((10.0, 20.0),)))
        injector.check_transfer(5.0, "demand")  # outside: no fault
        with pytest.raises(TransferTimeout):
            injector.check_transfer(10.0, "demand")
        injector.check_transfer(20.0, "demand")  # half-open interval
        assert injector.link_down_drops == 1

    def test_degraded_epoch_multiplies_latency(self):
        injector = FaultInjector(
            FaultPlan(degraded=((100.0, 200.0, 3.0),))
        )
        assert injector.latency_factor(50.0) == 1.0
        assert injector.latency_factor(150.0) == 3.0
        assert injector.degraded_transfers == 1

    def test_prefetch_down_spares_demand_and_writes(self):
        injector = FaultInjector(FaultPlan(prefetch_down=((0.0, 100.0),)))
        injector.check_transfer(50.0, "demand")
        injector.check_transfer(50.0, "write")
        with pytest.raises(TransferTimeout):
            injector.check_transfer(50.0, "prefetch")
        injector.check_transfer(100.0, "prefetch")  # half-open interval
        assert injector.prefetch_down_drops == 1

    def test_remote_restart_window_raises(self):
        injector = FaultInjector(FaultPlan(remote_restart=((0.0, 10.0),)))
        with pytest.raises(RemoteUnavailableError):
            injector.check_remote(5.0)
        injector.check_remote(50.0)

    def test_remote_stall_adds_delay(self):
        injector = FaultInjector(
            FaultPlan(remote_stall=((0.0, 10.0),), remote_stall_extra_us=7.0)
        )
        assert injector.remote_delay_us(5.0) == 7.0
        assert injector.remote_delay_us(50.0) == 0.0

    def test_probabilistic_drops_are_seed_deterministic(self):
        def sequence(seed):
            injector = FaultInjector(FaultPlan(seed=seed, timeout_probability=0.5))
            out = []
            for i in range(200):
                try:
                    injector.check_transfer(float(i), "prefetch")
                    out.append(False)
                except TransferTimeout:
                    out.append(True)
            return out

        assert sequence(4) == sequence(4)
        assert sequence(4) != sequence(5)

    def test_fabric_raises_typed_timeout(self):
        injector = FaultInjector(FaultPlan(link_down=((0.0, 1e9),)))
        fabric = RdmaFabric(quiet_fabric(), injector=injector)
        with pytest.raises(TransferTimeout) as exc:
            fabric.read_page(0.0, priority=True)
        assert exc.value.kind == "demand"
        assert exc.value.wasted_us > 0
        # The dropped attempt still counts as wire traffic.
        assert fabric.reads == 1


class TestResilientDemandPath:
    def test_demand_retries_with_backoff_and_completes(self):
        plan = _drop_plan(probability=0.3, seed=2)
        machine = Machine(
            MachineConfig(local_memory_pages=16, fabric=quiet_fabric(),
                          env=RunEnv(fault_plan=plan)),
            fault_prefetcher=FastswapPrefetcher(),
        )
        machine.register_process(1)
        touch_pages(machine, 1, list(range(100)) * 3)
        assert machine.backend.timeouts > 0
        assert machine.backend.retries > 0
        assert machine.backend.retry_latency_us > 0.0
        # Retried faults cost strictly more than a clean fetch.
        assert machine.now_us > 0

    def test_retry_budget_exhaustion_is_typed_and_fatal(self):
        plan = FaultPlan(seed=1, timeout_probability=1.0)
        machine = Machine(
            MachineConfig(local_memory_pages=8, fabric=quiet_fabric(),
                          env=RunEnv(fault_plan=plan), demand_retry_limit=3),
        )
        machine.register_process(1)
        with pytest.raises(RemoteFetchFatalError) as exc:
            touch_pages(machine, 1, list(range(64)) * 2)
        assert exc.value.attempts == 4  # initial try + 3 retries

    def test_empty_plan_counters_are_exactly_zero(self):
        result = runner.run(_workload(), "hopp", 0.5, quiet_fabric(),
                            env=RunEnv(fault_plan=FaultPlan()))
        assert result.timeouts == 0
        assert result.retries == 0
        assert result.retry_latency_us == 0.0
        assert result.dropped_prefetches == 0
        assert result.degraded_mode_us == 0.0
        assert result.breaker_opens == 0
        assert result.prefetch_suppressed == 0

    def test_empty_plan_is_byte_identical_to_no_plan(self):
        clean = runner.run(_workload(), "hopp", 0.5, quiet_fabric())
        empty = runner.run(_workload(), "hopp", 0.5, quiet_fabric(),
                           env=RunEnv(fault_plan=FaultPlan()))
        assert clean.to_dict() == empty.to_dict()


class TestConservationUnderChaos:
    @pytest.mark.parametrize("system", ["fastswap", "leap", "depth-16", "hopp"])
    def test_counters_conserve(self, system):
        workload = _workload()
        plan = _drop_plan(probability=0.25, seed=11)
        machine = runner.make_machine(workload, system, 0.5, quiet_fabric(),
                                      env=RunEnv(fault_plan=plan))
        machine.run(workload.trace())
        result = runner.collect(machine, system, workload.name)
        assert result.timeouts > 0
        # Dropped prefetches can never become hits.
        assert result.prefetch_hits <= (
            result.prefetch_issued - result.dropped_prefetches
        )
        assert result.dropped_prefetches <= result.prefetch_issued
        # Physical residency stays bounded and matches frame accounting.
        limit = machine.cgroups.get("default").limit_pages
        assert machine.resident_pages("default") <= limit
        assert machine.frames.used == machine.resident_pages()
        # Remote-node slots conserve (no leaks from dropped transfers).
        remote = machine.remote
        assert remote.pages_written == (
            remote.pages_stored + remote.pages_overwritten + remote.pages_released
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert 0.0 <= result.coverage <= 1.0

    def test_accuracy_measured_over_delivered_prefetches(self):
        """A fabric drop is bad luck, not a wrong prediction: accuracy's
        denominator excludes dropped pages."""
        result = RunResult(system="x", workload="y", prefetch_issued=10,
                           dropped_prefetches=4, prefetch_hit_dram=6)
        assert result.prefetch_delivered == 6
        assert result.accuracy == 1.0

    def test_bounded_slowdown(self):
        clean = runner.run(_workload(), "hopp", 0.5, quiet_fabric())
        chaos = runner.run(_workload(), "hopp", 0.5, quiet_fabric(),
                           env=RunEnv(fault_plan=_drop_plan(probability=0.2,
                                                            seed=7)))
        assert chaos.completion_time_us >= clean.completion_time_us
        # Degradation is bounded: retries/backoff cost far less than a
        # collapse (generous 20x envelope).
        assert chaos.completion_time_us < clean.completion_time_us * 20


class TestDeterminism:
    @pytest.mark.parametrize("system", ["fastswap", "leap", "depth-16", "hopp"])
    @pytest.mark.parametrize("with_plan", [False, True])
    def test_identical_seed_gives_identical_counters(self, system, with_plan):
        plan = _drop_plan(probability=0.15, seed=13) if with_plan else None

        def one_run():
            return runner.run(
                build("stream-simple", npages=150, passes=2),
                system, 0.5, quiet_fabric(), env=RunEnv(fault_plan=plan),
            )

        first, second = one_run(), one_run()
        assert first.to_dict() == second.to_dict()


class TestCircuitBreakerUnit:
    def test_opens_at_failure_threshold(self):
        breaker = CircuitBreaker(BreakerConfig(window=8, min_samples=4,
                                               failure_threshold=0.5))
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.state == BreakerState.CLOSED  # below min_samples
        breaker.record_failure(3.0)
        assert breaker.state == BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(4.0)

    def test_successes_keep_it_closed(self):
        breaker = CircuitBreaker(BreakerConfig(window=8, min_samples=4))
        for t in range(50):
            breaker.record_success(float(t), latency_us=1.0)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow(100.0)

    def test_latency_inflation_counts_as_failure(self):
        breaker = CircuitBreaker(
            BreakerConfig(window=8, min_samples=4, latency_threshold_us=10.0)
        )
        for t in range(4):
            breaker.record_success(float(t), latency_us=100.0)
        assert breaker.state == BreakerState.OPEN

    def test_half_open_probe_closes_on_success(self):
        config = BreakerConfig(window=8, min_samples=2, cooldown_us=100.0,
                               probe_quota=2)
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow(50.0)  # still cooling down
        assert breaker.allow(101.0)  # half-open probe
        breaker.record_success(102.0, latency_us=1.0)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.closes == 1
        assert breaker.time_degraded_us(200.0) == pytest.approx(102.0 - 1.0)

    def test_half_open_probe_failure_reopens(self):
        config = BreakerConfig(window=8, min_samples=2, cooldown_us=100.0,
                               probe_quota=1)
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.allow(150.0)
        breaker.record_failure(151.0)
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow(200.0)  # new cool-down from 151
        assert breaker.allow(252.0)

    def test_probe_quota_bounds_half_open_traffic(self):
        config = BreakerConfig(window=8, min_samples=2, cooldown_us=10.0,
                               probe_quota=2)
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.allow(20.0)
        assert breaker.allow(20.0)
        assert not breaker.allow(20.0)  # quota spent, no outcome yet

    def test_no_op_probe_is_refunded(self):
        """A probe whose backend call moved no bytes observes nothing;
        without a refund the breaker wedges in HALF_OPEN forever."""
        config = BreakerConfig(window=8, min_samples=2, cooldown_us=10.0,
                               probe_quota=1)
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.allow(20.0)
        breaker.refund_probe()  # nothing to fetch: no outcome recorded
        assert breaker.allow(21.0)  # the slot came back
        breaker.record_success(22.0, latency_us=1.0)
        assert breaker.state == BreakerState.CLOSED


class TestCircuitBreakerIntegration:
    def _machine_with_breaker(self, workload, plan, breaker_config):
        limit = max(int(workload.footprint_pages * 0.5), 8)
        machine = Machine(
            MachineConfig(local_memory_pages=limit, fabric=quiet_fabric(),
                          compute_us_per_access=workload.compute_us_per_access,
                          env=RunEnv(fault_plan=plan)),
            fault_prefetcher=FastswapPrefetcher(),
        )
        plane = HoppDataPlane(machine, HoppConfig(breaker=breaker_config))
        machine.hopp = plane
        machine.controller.add_tap(plane.on_mc_access)
        for process in workload.processes:
            machine.register_process(process.pid, process.cgroup)
            for start_vpn, npages, name in process.vmas:
                machine.add_vma(process.pid, start_vpn, npages, name)
        return machine, plane

    def test_breaker_enters_and_exits_degraded_mode(self):
        """During a bulk-QP brownout every prefetch read drops, the
        breaker opens and suppresses issue; after the brownout plus
        cool-down it probes, closes, and prefetching resumes."""
        workload = build("stream-simple", npages=200, passes=3)
        # Find the clean completion time, then park a brownout across
        # the middle of the run.  (A full link flap will not do: demand
        # and writeback retries wait the window out, so simulated time
        # jumps straight over it and no prefetch issue lands inside.)
        clean = runner.run(workload, "hopp", 0.5, quiet_fabric())
        flap = (clean.completion_time_us * 0.25,
                clean.completion_time_us * 0.45)
        plan = FaultPlan(prefetch_down=(flap,))
        breaker_config = BreakerConfig(window=16, min_samples=4,
                                       failure_threshold=0.5,
                                       cooldown_us=200.0, probe_quota=2)
        machine, plane = self._machine_with_breaker(workload, plan,
                                                    breaker_config)
        machine.run(workload.trace())
        breaker = plane.executor.breaker
        assert breaker is not None
        assert breaker.opens >= 1, "breaker never entered degraded mode"
        assert breaker.closes >= 1, "breaker never recovered"
        assert breaker.state == BreakerState.CLOSED
        assert plane.executor.suppressed > 0
        assert breaker.time_degraded_us(machine.now_us) > 0.0
        # Prefetching resumed after recovery: drops stopped but issue
        # continued (issued attempts strictly exceed drops).
        assert machine.prefetch_issued > machine.dropped_prefetches
        assert machine.dropped_prefetches > 0

    def test_breaker_not_armed_without_fault_plan(self):
        machine = Machine(
            MachineConfig(local_memory_pages=64, fabric=quiet_fabric())
        )
        plane = HoppDataPlane(machine, HoppConfig())
        assert plane.executor.breaker is None

    def test_breaker_counters_surface_in_run_result(self):
        workload = build("stream-simple", npages=200, passes=3)
        clean = runner.run(workload, "hopp", 0.5, quiet_fabric())
        flap = (clean.completion_time_us * 0.25,
                clean.completion_time_us * 0.45)
        chaos = runner.run(
            workload, "hopp", 0.5, quiet_fabric(),
            env=RunEnv(fault_plan=FaultPlan(prefetch_down=(flap,))),
        )
        assert chaos.timeouts > 0
        assert chaos.dropped_prefetches > 0
        payload = chaos.to_dict()
        for key in ("timeouts", "retries", "dropped_prefetches",
                    "degraded_mode_us", "breaker_opens",
                    "prefetch_suppressed"):
            assert key in payload


class TestChaosPreset:
    def test_chaos_preset_run_completes_with_live_counters(self):
        workload = build("stream-simple", npages=300, passes=3)
        result = runner.run(workload, "hopp", 0.5, quiet_fabric(),
                            env=RunEnv(fault_plan=FaultPlan.chaos(seed=1)))
        assert result.completion_time_us > 0
        assert result.timeouts > 0
        assert result.retries > 0
        assert result.dropped_prefetches > 0
        assert 0.0 <= result.accuracy <= 1.0

    def test_cli_fault_plan_chaos(self, capsys):
        from repro.cli import main

        code = main(["run", "-w", "stream-simple", "-s", "hopp",
                     "--fault-plan", "chaos", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["timeouts"] > 0
        assert payload["dropped_prefetches"] > 0

    def test_cli_fault_plan_from_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"seed": 3, "timeout_probability": 0.2}
        ))
        code = main(["run", "-w", "stream-simple", "-s", "fastswap",
                     "--fault-plan", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["timeouts"] > 0
