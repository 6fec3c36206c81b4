"""The benchmark's own tests, at tiny cell sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as bench_run  # noqa: E402

bench_run._import_paths()

from perfbench import bench  # noqa: E402
from repro.engine.summary import RunSummary  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _measure(workload: str, trace: bool, seed: int = 3) -> dict:
    return bench_run.measure(workload, seed, 0.0, trace, tiny=True, setup_samples=1)


@pytest.fixture(scope="module")
def records() -> dict:
    return {(w, t): _measure(w, t) for w in WORKLOADS for t in (False, True)}


def test_workloads_match_the_contract():
    assert sorted(WORKLOADS) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_emits_exactly_the_contract_metrics(records, workload, trace):
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    metrics = records[(workload, trace)]["metrics"]
    assert list(metrics) == [m["name"] for m in wanted]
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_agree_and_tracing_leaves_outputs_byte_identical(records, workload):
    untraced, traced = records[(workload, False)], records[(workload, True)]
    assert untraced["correct"] and traced["correct"]
    assert untraced["digests_agree"] and traced["digests_agree"]
    assert untraced["digest"] == traced["digest"]


def test_exact_counts_repeat_for_one_seed(records):
    again = _measure("emulated-quorum", True)
    first = records[("emulated-quorum", True)]["metrics"]
    for name in ("sim.events", "netsim.messages", "memory.reads",
                 "memory.linearizability.audit_ops"):
        assert first[name]["value"] > 0
        assert again["metrics"][name]["value"] == first[name]["value"], name
    stab = [_measure("shared-election", False)["metrics"]["leader_stab_vt_p50"]["value"]
            for _ in range(2)]
    assert stab[0] == stab[1] == records[("shared-election", False)]["metrics"][
        "leader_stab_vt_p50"]["value"]


def _clean_summary() -> RunSummary:
    return RunSummary(
        algorithm="alg1", scenario="s", seed=0, n=3, horizon=100.0,
        stabilized=True, stabilization_time=10.0, leader=0, valid=True,
        termination_ok=True, forever_writer_count=1, forever_writers=frozenset({0}),
        growing_register_count=0, single_writer=True, total_writes=1, total_reads=1,
        events_fired=5,
    )


@pytest.mark.parametrize("broken", [
    {"property_violations": 1},
    {"audit_ok": False, "audit_violations": 2},
    {"integrity_violations": 1},
])
def test_negative_control_red_summaries_count_as_failed(broken):
    clean = _clean_summary()
    red = dataclasses.replace(clean, **broken)
    cells = [bench.CellRecord("clean", 0.1, summary=clean),
             bench.CellRecord("red", 0.1, summary=red),
             bench.CellRecord("error", 0.0, error="Traceback: boom")]
    assert not bench.is_red(cells[0], require_stable=True)
    assert bench.is_red(cells[1], require_stable=False)
    assert bench.is_red(cells[2], require_stable=False)
    figures = bench.end_to_end([bench.Round(cells=cells, wall_s=1.0, norm_s=1.0)], require_stable=True)
    assert (figures["attempted"], figures["failed"]) == (3, 2)
    assert figures["clean_share"] == pytest.approx(1 / 3)
    assert figures["cells_per_s"] == pytest.approx(1.0)


def test_unstabilized_check_cell_counts_as_failed():
    cell = bench.CellRecord("late", 0.1, summary=dataclasses.replace(
        _clean_summary(), stabilized=False, stabilization_time=None))
    assert bench.is_red(cell, require_stable=True)
    assert not bench.is_red(cell, require_stable=False)


def test_tail_is_the_workload_percentile_of_every_sample():
    values = [float(i) for i in range(101)]
    assert bench.tail(values, 90) == pytest.approx(90.0)
    assert bench.tail(values[:11], 40) == pytest.approx(4.0)
    assert bench.tail([2.5], 40) == 2.5


def test_speed_sampler_samples_inside_the_step_and_restores_the_timer():
    import signal

    r = bench.Round()
    r.step(lambda: [bench.CellRecord("busy", 0.05)] if sum(range(2_000_000)) else [], True)
    cell, = r.cells
    assert cell.scale == r.scales[0] > 0
    assert r.norm_s == pytest.approx(r.wall_s * r.scales[0])
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaigns", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
