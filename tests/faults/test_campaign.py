"""Chaos campaigns end to end: the PR's two acceptance bars live here.

Bar 1: a 200-plan seeded campaign against the default (resync-on)
emulation runs with **zero** violations.  Bar 2: the deliberately
broken emulation (recovery without state-resync) is *caught* by the
same oracles and delta-debugged down to a pinned repro of at most five
fault events.
"""

from __future__ import annotations

import gc
import json

from repro.engine.spec import ExperimentSpec
from repro.engine.worker import run_cell
from repro.memory.emulated import EmulatedMemory
from repro.faults.campaign import (
    CampaignConfig,
    pinned_repro,
    replay_plan,
    run_campaign,
    violation_count,
)
from repro.workloads.registry import ALGORITHMS, build_scenario
from repro.workloads.scenarios import DEFAULT_CHAOS_PLAN, chaos


def test_acceptance_200_plan_campaign_is_clean():
    # The headline robustness bar: 200 generated fault plans (crashes,
    # recoveries, partitions, storms) against the default emulation,
    # judged by the Theorem 1-4 monitors + history audit + write-ack
    # integrity -- all clean.
    config = CampaignConfig(plans=200, seed=7, horizon=2000.0)
    result = run_campaign(config)
    assert result.plans_run == 200
    assert result.ok, [v.plan.to_jsonable() for v in result.violations]
    assert result.recoveries > 0, "campaign never exercised recovery"
    assert result.resyncs == result.recoveries  # every recovery resynced
    assert result.integrity_violations == 0


def test_acceptance_broken_resync_is_caught_and_shrunk():
    # Negative control: recovery WITHOUT state-resync serves amnesiac
    # replicas, which the consistency oracles must catch -- and the
    # delta debugger must pin to a minimal (<= 5 events) repro.
    config = CampaignConfig(plans=4, seed=0, horizon=2000.0, resync=False)
    result = run_campaign(config)
    assert not result.ok, "broken emulation escaped the oracles"
    violation = result.violations[0]
    assert violation.violations > 0
    assert violation.shrunk is not None
    assert len(violation.shrunk) <= 5
    assert violation.oracle_runs > 0
    # The shrunk plan still violates under the exact pinned knobs.
    summary = replay_plan(violation.shrunk, config, violation.seed)
    assert violation_count(summary) > 0
    # ... and the identical campaign with resync ON is clean.
    fixed = run_campaign(CampaignConfig(plans=4, seed=0, horizon=2000.0))
    assert fixed.ok


def test_pinned_repro_replays_through_the_registry():
    config = CampaignConfig(plans=4, seed=0, horizon=2000.0, resync=False)
    result = run_campaign(config)
    repro = result.violations[0].repro
    assert repro["factory"] == "chaos"
    assert repro["kwargs"]["resync"] is False
    # Engine-ready: the registry rebuilds the scenario from the payload
    # and the rerun reproduces the violation from the pinned seed.
    scenario = build_scenario(repro["factory"], repro["kwargs"])
    run = scenario.run(
        ALGORITHMS[repro["algorithm"]],
        seed=repro["seed"],
        log_reads=False,
        trace_events=False,
    )
    audit = run.audit_consistency()
    assert audit is not None and len(audit.violations) > 0


def test_campaign_report_is_json_serializable():
    config = CampaignConfig(plans=2, seed=1, horizon=2000.0)
    result = run_campaign(config)
    payload = json.loads(json.dumps(result.to_jsonable()))
    assert payload["plans_run"] == 2
    assert payload["violations"] == []


def test_pinned_repro_round_trips_the_plan():
    from repro.faults.plan import FaultEvent, FaultPlan

    plan = FaultPlan(
        (
            FaultEvent("replica-crash", 100.0, replica=1),
            FaultEvent("replica-recover", 300.0, replica=1),
        )
    )
    config = CampaignConfig()
    payload = pinned_repro(plan, config, seed=9)
    assert FaultPlan.from_jsonable(payload["kwargs"]["plan"]) == plan
    assert payload["seed"] == 9


def test_chaos_scenario_runs_through_the_engine():
    # The fault axis threads through ExperimentSpec/run_cell like any
    # other scenario: the default chaos plan (crash+recover, partition+
    # heal, storm) surfaces in the cell's resilience counters.
    spec = ExperimentSpec.from_objects(
        "chaos-engine-test",
        {"alg1": ALGORITHMS["alg1"]},
        [chaos(n=3, horizon=8000.0)],
        [0],
    )
    summary = run_cell(spec.cells()[0])
    assert summary.scenario.startswith("chaos")
    assert summary.recoveries == 1  # DEFAULT_CHAOS_PLAN's single crash
    assert summary.resyncs == 1
    assert summary.property_violations == 0
    assert summary.audit_violations == 0
    assert summary.integrity_violations == 0


def test_default_chaos_plan_is_a_legal_timeline():
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.from_jsonable(list(DEFAULT_CHAOS_PLAN))
    plan.validate(3)
    kinds = [event.kind for event in plan]
    assert "replica-crash" in kinds and "partition" in kinds
    assert "message-storm" in kinds


def test_campaign_keeps_at_most_one_emulation_alive():
    # Each plan's run graph (memory <-> network <-> handler table) is
    # cyclic garbage once its summary exists.  An emulated run allocates
    # too few GC-tracked objects to trip a full collection on its own,
    # so without the collection at the start of every emulated run the
    # dead graphs pile up across plans and inflate a campaign's RSS.
    # No gc.collect() here: the test observes what the program does.
    live = []

    def progress(index, summary, count):
        live.append(sum(1 for obj in gc.get_objects() if isinstance(obj, EmulatedMemory)))

    config = CampaignConfig(plans=4, seed=0, horizon=2000.0, shrink=False)
    result = run_campaign(config, progress=progress)
    assert result.plans_run == 4
    assert len(live) == 4
    assert max(live) <= 1, live
