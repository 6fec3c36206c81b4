"""Perf baselines: the ``BENCH_perf.json`` schema and regression gate.

The baseline file is a stable-schema JSON document committed at the
repo root::

    {
      "format": 1,
      "kind": "repro-perf",
      "created": "2026-07-27T12:00:00Z",
      "meta": {"python": ..., "implementation": ..., "platform": ...,
               "cpu_count": ...},
      "profiles": {
        "full":  {"benchmarks": {"<name>": {"value": ..., "unit": ...,
                                            "higher_is_better": ...,
                                            "meta": {...}}}},
        "quick": {"benchmarks": {...}}
      },
      "reference": {"description": ..., "benchmarks": {"<name>": value}},
      "speedup_vs_reference": {"<name>": ratio}
    }

``profiles.*.benchmarks`` is the compared surface: a comparison matches
entries by ``(profile, name)``, computes the relative regression from
``value`` and ``higher_is_better``, and fails when any entry regressed
by more than the allowed fraction (or disappeared).  ``meta`` is
documentation, never compared.  ``reference`` records the pre-overhaul
hot-path numbers the tentpole PR was measured against;
``speedup_vs_reference`` is derived from it at emit time.

Values are wall-clock measurements: refresh the committed baseline when
the benchmark machine changes (see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.paths import repo_root
from repro.perf.bench import BenchResult

#: Bumped whenever the payload layout changes incompatibly.
SCHEMA_FORMAT = 1

#: Canonical baseline location (repo root).
BASELINE_FILENAME = "BENCH_perf.json"

#: Pre-overhaul hot-path numbers, measured on the development container
#: at commit 6a32202 (dataclass event pairs, isinstance dispatch,
#: dict-backed trace records) with the ``full`` profile workloads.
#: They anchor the ``speedup_vs_reference`` section of emitted
#: baselines; refresh them only if the reference measurement is redone.
PRE_OVERHAUL_REFERENCE: Dict[str, float] = {
    "kernel_events_per_sec": 226_000.0,
    "scenario_alg1_n16_traced_wall_s": 0.471,
    "scenario_alg1_n16_fast_wall_s": 0.493,
}

PRE_OVERHAUL_DESCRIPTION = (
    "pre-overhaul simulation core at commit 6a32202 (per-event dataclass "
    "pairs, isinstance operation dispatch, dict-backed trace records), "
    "full-profile workloads, development container"
)


def environment_meta() -> Dict[str, Any]:
    """The measurement environment recorded in the payload's ``meta``
    block: interpreter, platform and CPU budget.

    Documentation only (never compared), but essential for judging
    whether two baselines are comparable at all.
    """
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def default_baseline_path() -> Path:
    """``BENCH_perf.json`` at the repo root (falls back to the CWD when
    the package is installed outside a checkout)."""
    root = repo_root()
    if root is not None:
        return root / BASELINE_FILENAME
    return Path(BASELINE_FILENAME)


# ----------------------------------------------------------------------
# Payload construction and IO
# ----------------------------------------------------------------------
def make_payload(
    results_by_profile: Mapping[str, Mapping[str, BenchResult]],
    reference: Optional[Mapping[str, float]] = None,
    existing: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the stable-schema payload from measured profiles.

    ``existing`` is a previously written payload to merge with: its
    profiles that this run did *not* execute are carried over unchanged,
    so a ``--quick`` refresh never silently drops the committed ``full``
    profile (and vice versa).
    """
    reference = PRE_OVERHAUL_REFERENCE if reference is None else dict(reference)
    profiles: Dict[str, Any] = {}
    if existing is not None:
        for profile, prof in existing.get("profiles", {}).items():
            if profile not in results_by_profile:
                profiles[profile] = prof
    for profile, results in results_by_profile.items():
        profiles[profile] = {
            "benchmarks": {name: result.to_jsonable() for name, result in results.items()}
        }
    speedups: Dict[str, float] = {}
    # Reference numbers were measured with the full-profile workloads, so
    # a full run's values win over a quick run's for the same name.
    ordered = sorted(profiles, key=lambda p: (p != "full", p))
    for profile in ordered:
        for name, bench in profiles[profile]["benchmarks"].items():
            ref = reference.get(name)
            if not ref or name in speedups:
                continue
            # A speedup is always "new is this many times faster".
            if bench["higher_is_better"]:
                speedups[name] = bench["value"] / ref
            else:
                speedups[name] = ref / bench["value"]
    return {
        "format": SCHEMA_FORMAT,
        "kind": "repro-perf",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "meta": environment_meta(),
        "profiles": profiles,
        "reference": {
            "description": PRE_OVERHAUL_DESCRIPTION,
            "benchmarks": dict(reference),
        },
        "speedup_vs_reference": speedups,
    }


def merge_best(
    a: Mapping[str, BenchResult], b: Mapping[str, BenchResult]
) -> Dict[str, BenchResult]:
    """Per-benchmark best of two measurement passes of one profile.

    "Best" follows each benchmark's direction (max for throughput, min
    for wall time) -- the retry path of the regression gate uses this so
    a single noisy pass cannot fail the comparison on its own.
    """
    merged: Dict[str, BenchResult] = dict(a)
    for name, result in b.items():
        prior = merged.get(name)
        if prior is None:
            merged[name] = result
            continue
        if result.higher_is_better:
            better = result.value > prior.value
        else:
            better = result.value < prior.value
        if better:
            merged[name] = result
    return merged


def write_payload(path: Path, payload: Mapping[str, Any]) -> None:
    """Write the payload with a stable key order and trailing newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_payload(path: Path) -> Dict[str, Any]:
    """Load and format-check a baseline file."""
    payload = json.loads(Path(path).read_text())
    fmt = payload.get("format")
    if fmt != SCHEMA_FORMAT:
        raise ValueError(
            f"{path}: unsupported perf baseline format {fmt!r} "
            f"(this build reads format {SCHEMA_FORMAT})"
        )
    if payload.get("kind") != "repro-perf":
        raise ValueError(f"{path}: not a repro-perf baseline")
    return payload


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One benchmark that regressed past the allowed fraction."""

    profile: str
    name: str
    baseline_value: Optional[float]
    current_value: Optional[float]
    #: Relative regression (0.18 = 18% worse); ``None`` for a missing
    #: benchmark.
    regress_frac: Optional[float]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.profile}] {self.name}: {self.detail}"


def parse_max_regress(text: str) -> float:
    """Parse ``"15%"`` or ``"0.15"`` into the fraction ``0.15``."""
    raw = text.strip()
    percent = raw.endswith("%")
    if percent:
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"cannot parse regression threshold {text!r}") from None
    if percent:
        value /= 100.0
    # NaN fails every '>' comparison in the gate, which would silently
    # disable it -- reject alongside negatives (not value >= 0 catches both).
    if not value >= 0:
        raise ValueError(f"regression threshold must be non-negative, got {text!r}")
    return value


def compare_payloads(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    max_regress: float,
) -> List[Regression]:
    """Gate ``current`` against ``baseline``.

    Every benchmark of every baseline profile that the current payload
    *also measured* must be present and within ``max_regress`` of the
    baseline value.  Profiles the current run did not execute are
    skipped (a ``--quick`` run gates only the quick profile); benchmarks
    that vanished from an executed profile are failures (schema drift
    must be an explicit baseline refresh, not a silent skip).
    """
    failures: List[Regression] = []
    current_profiles = current.get("profiles", {})
    for profile, base_prof in baseline.get("profiles", {}).items():
        cur_prof = current_profiles.get(profile)
        if cur_prof is None:
            continue
        cur_benches = cur_prof.get("benchmarks", {})
        for name, base_bench in base_prof.get("benchmarks", {}).items():
            base_value = float(base_bench["value"])
            cur_bench = cur_benches.get(name)
            if cur_bench is None:
                failures.append(
                    Regression(
                        profile=profile,
                        name=name,
                        baseline_value=base_value,
                        current_value=None,
                        regress_frac=None,
                        detail="benchmark missing from current run",
                    )
                )
                continue
            cur_value = float(cur_bench["value"])
            higher = bool(base_bench.get("higher_is_better", True))
            if base_value == 0:
                continue  # degenerate baseline; nothing sane to gate on
            if higher:
                regress = (base_value - cur_value) / base_value
            else:
                regress = (cur_value - base_value) / base_value
            if regress > max_regress:
                unit = base_bench.get("unit", "")
                failures.append(
                    Regression(
                        profile=profile,
                        name=name,
                        baseline_value=base_value,
                        current_value=cur_value,
                        regress_frac=regress,
                        detail=(
                            f"regressed {regress * 100.0:.1f}% "
                            f"(baseline {base_value:.6g} {unit}, "
                            f"current {cur_value:.6g} {unit}, "
                            f"allowed {max_regress * 100.0:.0f}%)"
                        ),
                    )
                )
    return failures


__all__ = [
    "BASELINE_FILENAME",
    "PRE_OVERHAUL_DESCRIPTION",
    "PRE_OVERHAUL_REFERENCE",
    "Regression",
    "SCHEMA_FORMAT",
    "compare_payloads",
    "default_baseline_path",
    "environment_meta",
    "load_payload",
    "make_payload",
    "merge_best",
    "parse_max_regress",
    "write_payload",
]
