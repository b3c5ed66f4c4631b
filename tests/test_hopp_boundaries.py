"""The HoPP data plane's layer boundaries.

The per-layer host-time ledger (benchmarks/perf/ledger.py) times the
extraction pipeline by replacing instance attributes of a machine's HoPP
components with timing wrappers.  That only works while the data plane
enters each layer through these methods, looked up on the instance at
call time; this test pins the contract with counting pass-throughs.
"""

from repro.sim.runner import collect, make_machine
from repro.workloads import build
from tests.conftest import quiet_fabric

#: (component attribute of the data plane, method) pairs the ledger wraps.
BOUNDARIES = (
    ("rpt_cache", "lookup"),
    ("rpt_cache", "update"),
    ("stt", "feed"),
    ("trainer", "train"),
    ("policy", "finalize"),
    ("executor", "submit"),
)


def _run(wrap):
    workload = build("stream-simple", seed=3, npages=256, passes=10)
    machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
    calls = {}
    if wrap:
        for component, method in BOUNDARIES:
            owner = getattr(machine.hopp, component)
            inner = getattr(owner, method)
            key = f"{component}.{method}"
            calls[key] = 0

            def counted(*args, _inner=inner, _key=key, **kwargs):
                calls[_key] += 1
                return _inner(*args, **kwargs)

            setattr(owner, method, counted)
    machine.run(list(workload.trace()))
    return collect(machine, "hopp", workload.name).to_dict(full=True), calls


def test_every_boundary_is_entered_through_the_instance():
    plain, _ = _run(wrap=False)
    wrapped, calls = _run(wrap=True)
    assert all(count > 0 for count in calls.values()), calls
    assert wrapped == plain
