"""The perf subsystem: microbenchmarks, baseline schema, regression gate."""

from __future__ import annotations

import json

import pytest

from repro.perf.baseline import (
    PRE_OVERHAUL_REFERENCE,
    SCHEMA_FORMAT,
    compare_payloads,
    load_payload,
    make_payload,
    merge_best,
    parse_max_regress,
    write_payload,
)
from repro.perf.bench import (
    PROFILES,
    BenchResult,
    bench_kernel_throughput,
    bench_lane_throughput,
    bench_scenario,
    bench_sweep_sharded,
)


def tiny_kernel_result(**kwargs) -> BenchResult:
    return bench_kernel_throughput(events=2_000, chains=2, repeats=1, **kwargs)


class TestKernelBench:
    def test_measures_positive_throughput(self):
        result = tiny_kernel_result()
        assert result.unit == "events/s"
        assert result.higher_is_better
        assert result.value > 0
        assert result.meta["events"] == 2_000

    def test_cancellable_variant(self):
        result = tiny_kernel_result(cancellable=True, name="kernel_cancellable_events_per_sec")
        assert result.name == "kernel_cancellable_events_per_sec"
        assert result.meta["cancellable"] is True
        assert result.value > 0

    def test_aligned_variant(self):
        result = bench_kernel_throughput(
            events=2_000,
            chains=8,
            repeats=1,
            aligned=True,
            name="kernel_batched_events_per_sec",
        )
        assert result.name == "kernel_batched_events_per_sec"
        assert result.meta["aligned"] is True
        assert result.value > 0

    def test_lane_variant(self):
        result = bench_lane_throughput(events=2_000, chains=2, repeats=1)
        assert result.name == "kernel_lane_events_per_sec"
        assert result.unit == "events/s"
        assert result.value > 0


class TestScenarioBench:
    def test_emits_wall_and_throughput_pair(self):
        wall, throughput = bench_scenario(
            n=3, horizon=200.0, repeats=1, name="scenario_tiny_wall_s"
        )
        assert wall.name == "scenario_tiny_wall_s"
        assert not wall.higher_is_better
        assert wall.value > 0
        assert throughput.name == "scenario_tiny_events_per_sec"
        assert throughput.higher_is_better
        assert throughput.meta["events_fired"] > 0


class TestSweepShardedBench:
    def test_measures_positive_throughput(self):
        result = bench_sweep_sharded(
            n=3, horizon=400.0, seeds=(0,), algorithms=("alg1",), jobs=1, shards=2
        )
        assert result.name == "sweep_sharded_cells_per_sec"
        assert result.unit == "cells/s"
        assert result.meta["shards"] == 2
        assert result.value > 0


class TestPayloadSchema:
    def _payload(self):
        results = {"quick": {"kernel_events_per_sec": tiny_kernel_result()}}
        return make_payload(results)

    def test_stable_schema_fields(self):
        payload = self._payload()
        assert payload["format"] == SCHEMA_FORMAT
        assert payload["kind"] == "repro-perf"
        bench = payload["profiles"]["quick"]["benchmarks"]["kernel_events_per_sec"]
        assert set(bench) == {"value", "unit", "higher_is_better", "meta"}
        assert payload["reference"]["benchmarks"] == PRE_OVERHAUL_REFERENCE

    def test_environment_meta_block(self):
        import os
        import platform

        payload = self._payload()
        meta = payload["meta"]
        assert meta["python"] == platform.python_version()
        assert meta["implementation"] == __import__("sys").implementation.name
        assert meta["cpu_count"] == os.cpu_count()
        assert set(meta) == {"python", "implementation", "platform", "cpu_count"}

    def test_speedup_vs_reference_computed(self):
        payload = self._payload()
        speedup = payload["speedup_vs_reference"]["kernel_events_per_sec"]
        assert speedup == pytest.approx(
            payload["profiles"]["quick"]["benchmarks"]["kernel_events_per_sec"]["value"]
            / PRE_OVERHAUL_REFERENCE["kernel_events_per_sec"]
        )

    def test_round_trip_through_disk(self, tmp_path):
        payload = self._payload()
        path = tmp_path / "BENCH_perf.json"
        write_payload(path, payload)
        assert load_payload(path) == json.loads(json.dumps(payload))

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 999, "kind": "repro-perf"}))
        with pytest.raises(ValueError):
            load_payload(path)

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": SCHEMA_FORMAT, "kind": "other"}))
        with pytest.raises(ValueError):
            load_payload(path)


def _payload_with(value: float, higher: bool = True, profile: str = "quick"):
    return {
        "format": SCHEMA_FORMAT,
        "kind": "repro-perf",
        "profiles": {
            profile: {
                "benchmarks": {
                    "bench": {
                        "value": value,
                        "unit": "u",
                        "higher_is_better": higher,
                        "meta": {},
                    }
                }
            }
        },
    }


class TestRegressionGate:
    def test_identical_payloads_pass(self):
        payload = _payload_with(100.0)
        assert compare_payloads(payload, payload, max_regress=0.0) == []

    def test_within_threshold_passes(self):
        assert (
            compare_payloads(_payload_with(90.0), _payload_with(100.0), max_regress=0.15)
            == []
        )

    def test_higher_is_better_regression_fails(self):
        failures = compare_payloads(
            _payload_with(70.0), _payload_with(100.0), max_regress=0.15
        )
        assert len(failures) == 1
        assert failures[0].name == "bench"
        assert failures[0].regress_frac == pytest.approx(0.30)

    def test_lower_is_better_regression_fails(self):
        failures = compare_payloads(
            _payload_with(1.30, higher=False),
            _payload_with(1.0, higher=False),
            max_regress=0.15,
        )
        assert len(failures) == 1
        assert failures[0].regress_frac == pytest.approx(0.30)

    def test_improvement_never_fails(self):
        assert (
            compare_payloads(_payload_with(500.0), _payload_with(100.0), max_regress=0.0)
            == []
        )

    def test_missing_benchmark_fails(self):
        current = _payload_with(100.0)
        current["profiles"]["quick"]["benchmarks"] = {}
        failures = compare_payloads(current, _payload_with(100.0), max_regress=0.5)
        assert len(failures) == 1
        assert "missing" in failures[0].detail

    def test_unexecuted_profile_skipped(self):
        current = _payload_with(100.0, profile="quick")
        baseline = _payload_with(100.0, profile="full")
        assert compare_payloads(current, baseline, max_regress=0.0) == []


class TestMergeBest:
    def _result(self, value: float, higher: bool = True) -> BenchResult:
        return BenchResult(
            name="b", value=value, unit="u", higher_is_better=higher, meta={}
        )

    def test_keeps_higher_for_throughput(self):
        merged = merge_best({"b": self._result(100.0)}, {"b": self._result(150.0)})
        assert merged["b"].value == 150.0

    def test_keeps_lower_for_wall_time(self):
        merged = merge_best(
            {"b": self._result(0.5, higher=False)},
            {"b": self._result(0.3, higher=False)},
        )
        assert merged["b"].value == 0.3

    def test_union_of_names(self):
        a = {"a": BenchResult("a", 1.0, "u", True, {})}
        b = {"b": BenchResult("b", 2.0, "u", True, {})}
        assert set(merge_best(a, b)) == {"a", "b"}


class TestPayloadMerging:
    def test_unexecuted_profiles_carried_over(self):
        full = make_payload({"full": {"kernel_events_per_sec": tiny_kernel_result()}})
        merged = make_payload(
            {"quick": {"kernel_events_per_sec": tiny_kernel_result()}}, existing=full
        )
        assert set(merged["profiles"]) == {"full", "quick"}
        assert merged["profiles"]["full"] == full["profiles"]["full"]

    def test_executed_profile_replaces_existing(self):
        old = make_payload({"quick": {"kernel_events_per_sec": tiny_kernel_result()}})
        fresh = tiny_kernel_result()
        merged = make_payload({"quick": {"kernel_events_per_sec": fresh}}, existing=old)
        assert (
            merged["profiles"]["quick"]["benchmarks"]["kernel_events_per_sec"]["value"]
            == fresh.value
        )


class TestParseMaxRegress:
    def test_percent(self):
        assert parse_max_regress("15%") == pytest.approx(0.15)

    def test_fraction(self):
        assert parse_max_regress("0.15") == pytest.approx(0.15)

    def test_whitespace(self):
        assert parse_max_regress(" 25% ") == pytest.approx(0.25)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_max_regress("fast")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            parse_max_regress("-5%")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            parse_max_regress("nan")
        with pytest.raises(ValueError):
            parse_max_regress("nan%")


class TestProfiles:
    def test_both_profiles_registered(self):
        assert set(PROFILES) == {"full", "quick"}
