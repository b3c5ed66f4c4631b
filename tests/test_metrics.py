"""Unit tests for RunResult metric math and export."""

import hashlib
import json
from dataclasses import fields, replace

import pytest

from repro.analysis.sweeps import SweepPoint, SweepResult
from repro.common.stats import Histogram
from repro.common.types import FaultBreakdown
from repro.sim.metrics import RunResult
from repro.tune.objective import extract_metrics


def result(**overrides) -> RunResult:
    base = dict(system="test", workload="wl")
    base.update(overrides)
    return RunResult(**base)


class TestPaperMetrics:
    def test_accuracy(self):
        r = result(prefetch_issued=100, prefetch_hit_dram=60,
                   prefetch_hit_swapcache=20, prefetch_hit_inflight=10)
        assert r.prefetch_hits == 90
        assert r.accuracy == pytest.approx(0.9)

    def test_accuracy_no_prefetches(self):
        assert result().accuracy == 0.0

    def test_coverage_definition(self):
        """coverage = hits / (remote demand requests + hits), VI-A."""
        r = result(remote_demand_reads=10, prefetch_hit_dram=90)
        assert r.coverage == pytest.approx(0.9)

    def test_dram_hit_coverage_subset(self):
        r = result(remote_demand_reads=10, prefetch_hit_dram=45,
                   prefetch_hit_swapcache=45)
        assert r.dram_hit_coverage == pytest.approx(0.45)
        assert r.coverage == pytest.approx(0.9)

    def test_page_faults_counts_swapcache_hits(self):
        """Swapcache/inflight prefetch hits still fault (II-C); DRAM
        hits from injected PTEs do not."""
        r = result(remote_demand_reads=5, prefetch_hit_swapcache=3,
                   prefetch_hit_inflight=2, prefetch_hit_dram=100)
        assert r.page_faults == 10

    def test_normalized_performance(self):
        r = result(completion_time_us=200.0)
        assert r.normalized_performance(100.0) == pytest.approx(0.5)
        assert result(completion_time_us=0.0).normalized_performance(100.0) == 0.0

    def test_speedup_vs(self):
        fast = result(completion_time_us=100.0)
        slow = result(completion_time_us=150.0)
        assert fast.speedup_vs(slow) == pytest.approx(1 - 100 / 150)
        assert slow.speedup_vs(fast) < 0

    def test_tier_metrics(self):
        r = result(
            issued_by_tier={"ssp": 50, "lsp": 10},
            hits_by_tier={"ssp": 45, "lsp": 5},
            remote_demand_reads=10,
            prefetch_hit_dram=50,
        )
        assert r.tier_accuracy("ssp") == pytest.approx(0.9)
        assert r.tier_accuracy("lsp") == pytest.approx(0.5)
        assert r.tier_accuracy("rsp") == 0.0
        assert r.tier_coverage("ssp") == pytest.approx(45 / 60)


class TestMetricTable:
    def test_sweep_and_tune_read_one_table(self):
        """``repro sweep --metrics`` and ``repro tune --objective`` see
        the same names with the same values."""
        r = result(
            completion_time_us=200.0, prefetch_issued=100,
            prefetch_hit_dram=60, prefetch_hit_swapcache=20,
            prefetch_hit_inflight=10, remote_demand_reads=30,
            fabric_reads=130, prefetch_wasted=5,
        )
        point = SweepPoint("wl", "test", 0.5, 1)
        swept = SweepResult([point], {point: r}, {("wl", 1): 100.0})
        tuned = extract_metrics(r, 100.0)
        assert tuned == {
            "normalized_performance": 0.5,
            "accuracy": 0.9,
            "coverage": 0.75,
            "completion_time_us": 200.0,
            "page_faults": 60.0,
            "remote_accesses": 130.0,
            "prefetch_wasted": 5.0,
            "prefetch_issued": 100.0,
        }
        assert {name: swept.metric(point, name) for name in tuned} == tuned


class TestExport:
    def test_to_dict_json_serializable(self):
        r = result(
            completion_time_us=123.4,
            issued_by_tier={"ssp": 5},
            hits_by_tier={"ssp": 4},
            prefetch_issued=5,
            prefetch_hit_dram=4,
        )
        payload = r.to_dict()
        encoded = json.dumps(payload)
        decoded = json.loads(encoded)
        assert decoded["accuracy"] == pytest.approx(0.8)
        assert decoded["issued_by_tier"] == {"ssp": 5}
        assert "breakdown_us" in decoded

    def test_to_dict_includes_timeliness_when_present(self):
        hist = Histogram()
        hist.add(50.0)
        r = result(timeliness=hist)
        payload = r.to_dict()
        assert payload["timeliness_us"]["count"] == 1
        assert payload["timeliness_us"]["mean"] == pytest.approx(50.0)

    def test_to_dict_omits_empty_timeliness(self):
        assert "timeliness_us" not in result().to_dict()


def _every_field_set() -> RunResult:
    """A RunResult whose every field holds a distinct non-default value:
    ints as ints, floats as floats, one value per field position."""
    hist = Histogram()
    for sample in (0.5, 3.0, 40.0, 2.5e6):
        hist.add(sample)
    values = {}
    for i, spec in enumerate(fields(RunResult), start=1):
        kind = spec.type
        if kind == "str":
            value = f"{spec.name}-{i}"
        elif kind == "int":
            value = 1000 + i
        elif kind == "float":
            value = i + 0.5
        elif kind == "Dict[str, int]":
            value = {"ssp": i, "lsp": i + 1}
        elif kind == "Dict[str, float]":
            value = {"rate": i + 0.25}
        elif kind == "list":
            value = [{"node": 0, "reads": i}, {"node": 1, "reads": i + 1}]
        elif kind == "FaultBreakdown":
            value = FaultBreakdown(1.5, 2.5, 3.5, 4.5, 5.5)
        elif kind == "Optional[Histogram]":
            value = hist
        elif kind == "Optional[Dict[str, object]]":
            value = {"name": spec.name, "n": i, "series": [i, i + 0.5]}
        else:  # pragma: no cover - a new field type needs a value here
            raise AssertionError(f"no test value for {spec.name}: {kind}")
        values[spec.name] = value
    return RunResult(**values)


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def _wire_cases():
    every = _every_field_set
    return {
        "defaults": lambda: RunResult(system="s", workload="w"),
        "every-field": every,
        "no-histogram": lambda: replace(every(), timeliness=None),
        "empty-histogram": lambda: replace(every(), timeliness=Histogram()),
        "no-sections": lambda: replace(
            every(), telemetry=None, scenario=None, memtier=None, integrity=None
        ),
    }


#: SHA-256 of the canonical JSON of ``to_dict()`` and
#: ``to_dict(full=True)`` per case: the result cache's file format and
#: the process pool's wire format.  A change here is a format change:
#: it needs a new ``SCHEMA_VERSION``.
WIRE_DIGESTS = {
    "defaults": {
        "short": "51c766591fa7df9bae86ccb64c78dd32631955e80f66a8875bde1f3886586eee",
        "full": "727deaf0824b7471b688aca73334867b141a3ad1f58832826098582edc0319cb",
    },
    "empty-histogram": {
        "short": "271b5580b8bd32152885b9f4f973f5ec7b88f934a231e8b991df87955e0f81e8",
        "full": "37f8645fd747f5a34818ebd37ef3fa502a53ce0c97a32809be14db3f472eab4d",
    },
    "every-field": {
        "short": "a68c28ba55d06af9d26734a09e8daa3435084e20f39f25ff526f26e70b61f4e4",
        "full": "9afcc3c3da00bc2bc687735f8dce0256ecd62ecee6063774ede0ebc990d11260",
    },
    "no-histogram": {
        "short": "271b5580b8bd32152885b9f4f973f5ec7b88f934a231e8b991df87955e0f81e8",
        "full": "6b29c23e65beb31768db3f527689249162df58b74eeeb70f201b3b9f0d7f6f48",
    },
    "no-sections": {
        "short": "7b1343421a7c59fe4f270cb2161ed9be3153ebd0ed42396e6b54fea8756e8cd0",
        "full": "df3d86bc034f05a5c7cc3d5b27dadfa4e6276885426a8f85c8ab20b19f426c02",
    },
}


class TestWireFormat:
    @pytest.mark.parametrize("case", sorted(_wire_cases()))
    def test_bytes_are_pinned(self, case):
        made = _wire_cases()[case]()
        got = {
            "short": hashlib.sha256(_canonical(made.to_dict())).hexdigest(),
            "full": hashlib.sha256(_canonical(made.to_dict(full=True))).hexdigest(),
        }
        assert got == WIRE_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(_wire_cases()))
    def test_round_trip_is_exact(self, case):
        made = _wire_cases()[case]()
        wire = json.loads(_canonical(made.to_dict(full=True)))
        clone = RunResult.from_dict(wire)
        assert _canonical(clone.to_dict(full=True)) == _canonical(made.to_dict(full=True))
        assert _canonical(clone.to_dict()) == _canonical(made.to_dict())

    def test_missing_keys_read_back_as_defaults(self):
        clone = RunResult.from_dict({"system": "s", "workload": "w"})
        assert clone == RunResult(system="s", workload="w")

    def test_dict_and_list_fields_are_copied(self):
        made = _every_field_set()
        payload = made.to_dict(full=True)
        clone = RunResult.from_dict(payload)
        for name in ("issued_by_tier", "hits_by_tier", "dropped_by_tier", "extra"):
            assert payload[name] is not getattr(made, name)
            assert getattr(clone, name) is not payload[name]
        assert payload["cluster"]["per_node"] is not made.node_stats
        assert clone.node_stats is not payload["cluster"]["per_node"]
