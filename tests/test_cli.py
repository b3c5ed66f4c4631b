"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_workloads_and_systems(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "omp-kmeans" in out
        assert "hopp" in out
        assert "fastswap" in out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main([
            "run", "-w", "stream-simple", "-s", "hopp", "-f", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized performance" in out
        assert "coverage" in out

    def test_unknown_workload_fails(self, capsys):
        assert main(["run", "-w", "bogus"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_system_fails(self):
        assert main(["run", "-w", "stream-simple", "-s", "bogus"]) == 2

    def test_crash_preset_prints_recovery_rows(self, capsys):
        code = main([
            "run", "-w", "quicksort", "-s", "noprefetch", "-f", "0.5",
            "--fault-plan", "crash", "--remote-nodes", "3",
            "--replication", "2", "--check-invariants",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "node crashes / rejoins" in out
        assert "pages repaired" in out
        assert "invariant checks passed" in out

    def test_unreplicated_crash_detected_in_prefetch_reclaim(self, capsys):
        # The crash is detected by a writeback inside a prefetch's own
        # reclaim, and repair loses the slot that prefetch then reads.
        code = main([
            "run", "-w", "npb-is", "-s", "hopp", "-f", "0.5",
            "--fault-plan", "crash", "--remote-nodes", "3",
            "--replication", "1", "--check-invariants", "--no-cache", "--json",
        ])
        assert code == 0
        recovery = json.loads(capsys.readouterr().out)["recovery"]
        assert recovery["node_crashes"] == 1
        assert recovery["pages_lost"] > 0
        assert recovery["invariant_checks"] > 0

    def test_bad_crash_seed_fails(self, capsys):
        assert main([
            "run", "-w", "stream-simple", "--fault-plan", "crash:soon",
        ]) == 2
        assert "crash:<int>" in capsys.readouterr().err

    def test_profile_prints_the_component_table(self, capsys):
        assert main(["run", "-w", "stream-simple", "-s", "hopp",
                     "--profile", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "normalized performance" in out
        assert "wall-clock by component" in out
        assert "batch-kernel" in out
        assert "replay loop" not in out


class TestTelemetryFlags:
    def test_run_with_telemetry_artifacts(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.json"
        prom_file = tmp_path / "metrics.prom"
        code = main([
            "run", "-w", "stream-simple", "-s", "hopp", "-f", "0.5",
            "--no-cache", "--telemetry",
            "--trace-out", str(trace_file),
            "--prom-out", str(prom_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry events / epochs" in out
        trace = json.loads(trace_file.read_text())
        assert any(ev.get("ph") == "X" for ev in trace["traceEvents"])
        prom = prom_file.read_text()
        assert "# TYPE repro_accesses_total counter" in prom
        assert 'workload="stream-simple"' in prom

    def test_trace_out_implies_telemetry(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        code = main([
            "run", "-w", "stream-simple", "-s", "fastswap",
            "--no-cache", "--trace-out", str(trace_file),
        ])
        assert code == 0
        assert trace_file.exists()

    def test_default_run_has_no_telemetry_rows(self, capsys):
        assert main(["run", "-w", "stream-simple", "-s", "fastswap",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "telemetry events" not in out


class TestFaultPlanPresets:
    def test_crash_presets_resolve(self):
        from repro.cli import _load_fault_plan

        assert _load_fault_plan("crash", 3).node_crash
        assert _load_fault_plan("crash:7", 3).seed == 7
        plan = _load_fault_plan("crash-rejoin:2", 3)
        assert plan.seed == 2 and plan.node_rejoin
        assert _load_fault_plan("chaos", 3).node_crash == ()

    def test_corruption_presets_resolve(self):
        from repro.cli import _load_fault_plan

        plan = _load_fault_plan("corruption", 3)
        assert plan.has_corruption and plan.seed == 3
        assert plan.timeout_probability == 0
        assert _load_fault_plan("corruption:9", 3).seed == 9
        combo = _load_fault_plan("corruption-chaos:4", 3)
        assert combo.has_corruption and combo.timeout_probability > 0
        assert combo.seed == 4

    def test_bad_corruption_seed_fails(self, capsys):
        assert main([
            "run", "-w", "stream-simple", "--fault-plan", "corruption:x",
        ]) == 2
        assert "corruption:<int>" in capsys.readouterr().err


class TestFlagValidation:
    def test_nonpositive_scrub_rate_fails(self, capsys):
        for bad in ("0", "-5"):
            assert main([
                "run", "-w", "stream-simple", "--no-cache",
                "--scrub-rate", bad,
            ]) == 2
            assert "--scrub-rate must be > 0" in capsys.readouterr().err

    def test_nonpositive_cxl_latency_fails(self, capsys):
        assert main([
            "run", "-w", "stream-simple", "--no-cache",
            "--mem-tiers", "1", "--cxl-latency-us", "0",
        ]) == 2
        assert "--cxl-latency-us must be > 0" in capsys.readouterr().err

    def test_nonpositive_pool_capacity_fails(self, capsys):
        assert main([
            "run", "-w", "stream-simple", "--no-cache",
            "--mem-tiers", "1", "--pool-capacity", "-1",
        ]) == 2
        assert "--pool-capacity must be > 0" in capsys.readouterr().err

    def test_bad_tier_flags_fail_even_without_mem_tiers(self, capsys):
        # A typo'd override should not silently pass just because
        # tiering happened to be off.
        assert main([
            "run", "-w", "stream-simple", "--no-cache",
            "--cxl-latency-us", "-2",
        ]) == 2
        assert "--cxl-latency-us" in capsys.readouterr().err


class TestIntegrityFlags:
    def test_corruption_run_prints_integrity_rows(self, capsys):
        code = main([
            "run", "-w", "quicksort", "-s", "noprefetch", "-f", "0.5",
            "--no-cache", "--fault-plan", "corruption",
            "--remote-nodes", "3", "--replication", "2",
            "--scrub-rate", "5000", "--check-invariants",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "corruption detected (repaired/unresolved)" in out
        assert "scrub reads / scrub detections" in out

    def test_plain_run_has_no_integrity_rows(self, capsys):
        assert main(["run", "-w", "stream-simple", "-s", "fastswap",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "corruption detected" not in out


class TestCompare:
    def test_compare_table(self, capsys):
        code = main([
            "compare", "-w", "stream-simple",
            "--systems", "fastswap,hopp", "-f", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fastswap" in out
        assert "hopp" in out
        assert "norm-perf" in out


class TestTraceAndAnalyze:
    def test_trace_then_analyze(self, tmp_path, capsys):
        trace_file = tmp_path / "t.hmtt"
        code = main([
            "trace", "-w", "stream-simple", "-o", str(trace_file),
            "--limit", "4000",
        ])
        assert code == 0
        assert trace_file.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

        code = main(["analyze", "--trace", str(trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "simple" in out

    def test_analyze_workload_directly(self, capsys):
        assert main(["analyze", "-w", "stream-ladder"]) == 0
        out = capsys.readouterr().out
        assert "ladder" in out

    def test_analyze_requires_exactly_one_source(self, capsys):
        assert main(["analyze"]) == 2
        assert main(["analyze", "--trace", "x", "-w", "y"]) == 2


class TestJson:
    def test_run_json_output(self, capsys):
        import json

        code = main([
            "run", "-w", "stream-simple", "-s", "fastswap", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "fastswap"
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert "breakdown_us" in payload
        assert payload["ct_local_us"] > 0


class TestStudy:
    def test_trace_then_study(self, tmp_path, capsys):
        trace_file = tmp_path / "s.hmtt"
        assert main([
            "trace", "-w", "stream-simple", "-o", str(trace_file),
            "--limit", "6000",
        ]) == 0
        capsys.readouterr()
        assert main(["study", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "offline prediction accuracy" in out


class TestTune:
    def test_tune_smoke_with_journal_and_report(self, tmp_path, capsys):
        import json

        journal = tmp_path / "tune.jsonl"
        report = tmp_path / "report.json"
        code = main([
            "tune", "-w", "stream-simple", "--budget", "3",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", str(journal), "--report-out", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best config" in out
        assert "cache:" in out  # the counters satellite
        # Journal: one header line plus one line per trial, all JSON.
        lines = journal.read_text().splitlines()
        assert len(lines) == 4
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert all(json.loads(l)["kind"] == "trial" for l in lines[1:])
        payload = json.loads(report.read_text())
        assert payload["best"]["score"] > 0
        assert len(payload["trajectory"]) == 3

    def test_tune_resume_replays_then_extends(self, tmp_path, capsys):
        journal = tmp_path / "tune.jsonl"
        args = ["tune", "-w", "stream-simple",
                "--cache-dir", str(tmp_path / "cache"),
                "--journal", str(journal)]
        assert main(args + ["--budget", "2"]) == 0
        capsys.readouterr()
        assert main(args + ["--budget", "4", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 replayed" in out
        assert len(journal.read_text().splitlines()) == 5

    def test_sha_requires_a_fidelity_ladder(self, tmp_path, capsys):
        assert main([
            "tune", "-w", "stream-simple", "--strategy", "sha",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        assert "--fidelity" in capsys.readouterr().err

    def test_unknown_space_and_strategy_fail(self, tmp_path, capsys):
        assert main([
            "tune", "-w", "stream-simple", "--space", "bogus",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        assert "unknown search space" in capsys.readouterr().err
        assert main([
            "tune", "-w", "stream-simple", "--strategy", "bogus",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        assert "--strategy" in capsys.readouterr().err

    def test_resume_without_journal_fails(self, tmp_path, capsys):
        assert main([
            "tune", "-w", "stream-simple", "--resume",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        assert "--journal" in capsys.readouterr().err


class TestSweepCacheCounters:
    def test_sweep_prints_cache_counters(self, tmp_path, capsys):
        args = ["sweep", "-w", "stream-simple", "-s", "hopp",
                "-f", "0.5", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "cache:" in cold and "stores" in cold
        # The warm rerun must prove zero fresh simulations.
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm and "0 stores" in warm


class TestNumericFlagValidation:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["tune", "-w", "stream-simple", "--budget", "0"], "--budget"),
            (["tune", "-w", "stream-simple", "--budget", "-3"], "--budget"),
            (["tune", "-w", "stream-simple", "--jobs", "0"], "--jobs"),
            (["tune", "-w", "stream-simple", "-f", "0"], "--fraction"),
            (["sweep", "-w", "stream-simple", "--jobs", "-1"], "--jobs"),
            (["sweep", "-w", "stream-simple", "--fractions", "0.5,0"],
             "--fractions"),
            (["compare", "-w", "stream-simple", "--jobs", "0"], "--jobs"),
            (["compare", "-w", "stream-simple", "-f", "-0.5"], "--fraction"),
            (["run", "-w", "stream-simple", "-f", "0"], "--fraction"),
        ],
    )
    def test_nonpositive_numeric_flags_fail_typed(self, argv, flag, capsys):
        assert main(argv + ["--no-cache"]) == 2
        err = capsys.readouterr().err
        assert flag in err and "must be > 0" in err
