"""Golden-hash pins of short emulated cells: refactors must not move outputs.

The determinism tests compare two runs of the *same* code, which cannot
catch a refactor of the message path that changes every run the same
way.  These pins are the sha256 of ``RunSummary.canonical_json`` for a
short-horizon emulated grid, recorded before the netsim delivery path
was flattened (routed plain-event deliveries, lane-driven ABD retries).
Any change to event order, RNG draws or protocol accounting shows up
here as a hash mismatch.

The grid covers every link model of :data:`repro.memory.emulated.LINK_MODELS`,
the atomic consistency level, the ``backoff`` retry policy, a fault plan
with crash/recover resync, and dynamic membership.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

import pytest

from repro.engine.summary import summarize_run
from repro.workloads.registry import ALGORITHMS
from repro.workloads.scenarios import membership_churn, nominal_emulated

HORIZON = 900.0

_SYNC = {"delta": 0.25}

#: cell id -> emulation knobs (``None``: the membership-churn factory).
GRID: Dict[str, Any] = {
    "sync": {"links": "sync", "link_params": _SYNC},
    "timely": {"links": "timely", "link_params": {"lo": 0.5, "hi": 2.0}},
    "lossy-backoff": {
        "links": "lossy",
        "link_params": {"loss": 0.15, "lo": 0.5, "hi": 4.0, "cap": 8.0},
        "retry_interval": 5.0,
        "retry_policy": "backoff",
        "retry_cap": 40.0,
    },
    "gst-ramp": {
        "links": "gst-ramp",
        "link_params": {"gst": 300.0, "start_scale": 6.0, "lo": 0.25, "hi": 1.0},
        "retry_interval": 4.0,
    },
    "duplication": {"links": "duplication", "link_params": {"delta": 0.25, "rate": 0.3}},
    "corruption": {"links": "corruption", "link_params": {"delta": 0.25, "rate": 0.05}},
    "partition-schedule": {
        "replicas": 5,
        "links": "partition-schedule",
        "link_params": {"delta": 0.25, "partitions": [[100.0, 250.0, [3, 4]]]},
        "fault_plan": [
            {"kind": "replica-crash", "at": 300.0, "replica": 1},
            {"kind": "replica-recover", "at": 420.0, "replica": 1},
            {"kind": "message-storm", "at": 500.0, "until": 600.0, "factor": 3.0},
        ],
        "retry_interval": 6.0,
    },
    "atomic": {"links": "sync", "link_params": _SYNC, "consistency": "atomic"},
    "atomic-lossy-backoff": {
        "links": "lossy",
        "link_params": {"loss": 0.1, "lo": 0.5, "hi": 3.0, "cap": 6.0},
        "retry_interval": 5.0,
        "retry_policy": "backoff",
        "consistency": "atomic",
    },
    "membership-churn": None,
}

#: sha256 of ``canonical_json`` per ``(cell, algorithm)``, recorded on
#: the pre-flattening message path.
GOLDEN: Dict[str, str] = {
    "sync/alg1": "6303527be85e18105aa65742a0bc333b0a69fee50c778591c1f5143c9ecfe04e",
    "sync/alg2": "6df47f1e121a35a0597a398564a24ddc8642deddd596bbb863f1f87429a09ca4",
    "timely/alg1": "7daf6fac9ecf2028d84043409e4cbe538c2b1d77b257c7f5471252fd6b83da66",
    "timely/alg2": "a0ec37e46ca5e18c2002578ed519685a26d4613f2565e1d70254dbfb301357c3",
    "lossy-backoff/alg1": "ea60aabaa8436f49558c94d95653234c8997ec2d97046af1191096c842ee9321",
    "lossy-backoff/alg2": "c91ac95f61301b14b6acfa0e1b801cce269a0a77a543957d7ea8d9e3a4eb2c05",
    "gst-ramp/alg1": "8c43079339df1a8bfe5cfb32dc7a9f91d409930ef11d004facdd24d64717b7d6",
    "gst-ramp/alg2": "479da49cfcbe0fb7a5c7e1f95df17ba2b8c4664ebdad09c995457ec25ac553f1",
    "duplication/alg1": "47c7906cbbafa1aca6c21b89b5468c97aec5f8910402a6d3ad75ad0f99ab91fc",
    "duplication/alg2": "6578aded455eb711a687406406783abae391f0982448a416e3c45fbbff1f17e6",
    "corruption/alg1": "f223e575361357cde6e8de0f0296e229086c824665997044d92696973eb79f16",
    "corruption/alg2": "bbce4f5f023c965715038f8337a2a14884c468ed35147a3f6705e18e841763bc",
    "partition-schedule/alg1": "ae0521385d582ee4fcfe8607d61efe827e2403f52288b83b5d2b8b97f2d72248",
    "partition-schedule/alg2": "e1f02bd7bf894c4c45ee5a47ef512f8afceb6908392a0e33285f368d60816497",
    "atomic/alg1": "07b40c3d81fe32026b2ac2f86cbab57d8725724e65d2cd697b773d165ffebbad",
    "atomic/alg2": "1b411d1cfe2562e341595816c046674d4b71aaaf064b64c41f5fb657822afedb",
    "atomic-lossy-backoff/alg1": "f94ea5755a1ebb5f4984de7e95266de1ff6cab91100512da669e3eec62e47803",
    "atomic-lossy-backoff/alg2": "1c58db0ff4c5ff6f52d3a0aa538968e3d9bb4abcff4724210bf32aee2b7d31b8",
    "membership-churn/alg1": "1b72d5fed261ae65b361e4c5f7612f9f42bf42c058e8ab6074e695558cfd5651",
    "membership-churn/alg2": "01eb472a4c121a4bae9e77042e5edb6e9d1d3a48c3f17233851cc6639a3750b7",
}


def _summary_json(cell: str, algorithm: str) -> str:
    knobs = GRID[cell]
    if knobs is None:
        scen = membership_churn(n=3, horizon=HORIZON)
        overrides: Dict[str, Any] = {}
    else:
        scen = nominal_emulated(n=3, horizon=HORIZON)
        emulation = {"replicas": 3, "record_history": True}
        emulation.update(knobs)
        overrides = {"emulation": emulation}
    result = scen.build(ALGORITHMS[algorithm], seed=3, **overrides).execute()
    summary = summarize_run(result, scenario_name=f"golden-{cell}", margin=scen.margin)
    return summary.canonical_json()


CELLS = [(cell, algo) for cell in GRID for algo in ("alg1", "alg2")]


@pytest.mark.parametrize("cell,algorithm", CELLS, ids=[f"{c}-{a}" for c, a in CELLS])
def test_emulated_cell_matches_golden_hash(cell, algorithm):
    digest = hashlib.sha256(_summary_json(cell, algorithm).encode()).hexdigest()
    assert digest == GOLDEN[f"{cell}/{algorithm}"]
