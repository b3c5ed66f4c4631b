"""The HoPP data plane's layer boundaries.

The per-layer host-time ledger (benchmarks/perf/ledger.py) times the
extraction pipeline by replacing instance attributes of a machine's HoPP
components with timing wrappers.  That only works while the data plane
enters each layer through these methods, looked up on the instance at
call time; this test pins the contract with counting pass-throughs, on
a run that hits and wastes prefetches so every boundary is entered.
"""

from repro.sim.runner import collect, make_machine
from repro.workloads import build
from tests.conftest import quiet_fabric

#: (component attribute of the data plane, or None for the plane
#: itself, method) pairs the ledger wraps.
BOUNDARIES = (
    ("hpd", "process"),
    ("hpd", "process_run"),
    (None, "on_hot_page"),
    ("rpt_cache", "lookup"),
    ("rpt_cache", "update"),
    ("stt", "feed"),
    ("trainer", "train"),
    ("policy", "finalize"),
    ("policy", "report_timeliness"),
    ("executor", "submit"),
    ("executor", "on_first_hit"),
    ("executor", "on_evicted_unused"),
)


def _run(wrap, use_fast_path=True):
    workload = build("kv-cache", seed=3, operations=2000)
    machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
    plane = machine.hopp
    calls = {}
    if wrap:
        for component, method in BOUNDARIES:
            owner = plane if component is None else getattr(plane, component)
            inner = getattr(owner, method)
            key = f"{component or 'plane'}.{method}"
            calls[key] = 0

            def counted(*args, _inner=inner, _key=key, **kwargs):
                calls[_key] += 1
                return _inner(*args, **kwargs)

            setattr(owner, method, counted)
    machine.run(list(workload.trace()), use_fast_path=use_fast_path)
    result = collect(machine, "hopp", workload.name).to_dict(full=True)
    return machine, result, calls


def _check_counts(machine, calls):
    """Every boundary whose calls a counter records ran exactly once
    per counted event."""
    plane = machine.hopp
    assert plane.executor.wasted > 0, "the run wastes no prefetch"
    assert calls["plane.on_hot_page"] == plane.hpd.hot_pages
    assert calls["rpt_cache.lookup"] == plane.hpd.hot_pages
    assert calls["stt.feed"] == plane.stt.hot_pages_in
    assert calls["trainer.train"] == plane.stt.observations_out
    decisions = sum(plane.trainer.decisions_by_tier.values())
    assert calls["policy.finalize"] == decisions
    assert calls["policy.report_timeliness"] == plane.executor.hits
    hits = (
        machine.prefetch_hit_dram
        + machine.prefetch_hit_swapcache
        + machine.prefetch_hit_inflight
    )
    assert calls["executor.on_first_hit"] == hits


def test_every_boundary_is_entered_through_the_instance():
    _, plain, _ = _run(wrap=False)
    machine, wrapped, calls = _run(wrap=True)
    assert wrapped == plain
    # The batch kernel feeds HPD whole same-page runs; only accesses it
    # hands to Machine.access reach the per-access probe.
    assert all(count > 0 for count in calls.values()), calls
    _check_counts(machine, calls)


def test_oracle_enters_the_same_boundaries():
    _, plain, _ = _run(wrap=False, use_fast_path=False)
    machine, wrapped, calls = _run(wrap=True, use_fast_path=False)
    assert wrapped == plain
    # The per-access oracle probes HPD one READ at a time.
    assert calls.pop("hpd.process_run") == 0
    assert all(count > 0 for count in calls.values()), calls
    _check_counts(machine, calls)
