"""Workloads, the closed measurement loop and the metrics of one run.

A workload builds a fixed *round* of audited cells (``--seed`` only sets
their order) and runs it through the program's public entry points.  The loop repeats the round
(closed loop: the next round starts when the previous one finishes)
until the run's time is spent.  Every round must produce the same
digest of ``RunSummary.canonical_json`` values, and every red cell is
counted.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The audited seed of ``repro check`` (its ``--seeds`` default).  The
#: check cells are clean there at this commit; other seeds are not
#: audited and some of them miss a stabilization window (README).
CHECK_SEED = 0

#: The audited seeds of ``repro chaos`` and ``repro fuzz`` (their
#: ``--seed`` defaults).
CAMPAIGN_SEED = 0
FUZZ_SEED = 0

SHARED_SCENARIOS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("leader-storm", {}),
    ("gst-ramp", {}),
    ("async-bursts", {}),
    ("near-all-cascade", {}),
    ("timely-churn", {}),
    ("awb-only", {}),
    # `nominal` at twice its default n and horizon: n=16 with horizon
    # 8000 leaves alg2 unstabilized, which would count as failed.
    ("nominal", {"n": 8, "horizon": 8000.0}),
)

EMULATED_SCENARIOS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("nominal-emulated", {}),
    ("replica-crash", {}),
    ("nominal-emulated-atomic", {}),
    ("replica-crash-atomic", {}),
    ("emulated-lossy-audit", {}),
    ("emulated-gst-ramp-audit", {}),
    ("chaos", {}),
    ("membership-churn", {}),
    ("membership-churn-atomic", {}),
)

ALGORITHMS = ("alg1", "alg2")


# ----------------------------------------------------------------------
#: Wall seconds between two speed samples taken inside a step.
SAMPLE_INTERVAL_S = 0.005
#: Loop iterations of one speed sample (about 0.15 ms).
SAMPLE_ITERATIONS = 600
#: Sample time at which a step scales by 1: about the mean sample time
#: inside the cells on the 2-vCPU host the bounds were set on.
REFERENCE_SAMPLE_S = 0.0002


def _probe_chunk(iterations: int) -> float:
    """Seconds of a fixed pure-Python loop that allocates and drops
    small dicts and tuples (of the loops tried, its times tracked the
    cells' times best)."""
    started = time.perf_counter()
    keep: List[Dict[str, Any]] = []
    for i in range(iterations):
        keep.append({"k": i, "v": (i, i + 1)})
        if len(keep) > 500:
            keep = keep[250:]
    return time.perf_counter() - started


class SpeedSampler:
    """Samples the host's speed all through a step, in this process.

    Shared runners change speed by a fifth or more from one 0.2 s window
    to the next (README), so probes taken only before and after a step
    of a few seconds miss most of what the step met.  While the sampler
    is active, a ``SIGALRM`` timer interrupts the process every
    ``SAMPLE_INTERVAL_S`` of wall time, and the handler times one short
    run of the probe loop, on the CPU the step runs on.  The scale is
    ``REFERENCE_SAMPLE_S`` times the mean of the samples' speeds, so
    host seconds times the scale read as seconds on the reference host.
    The samples cost about 3% of the step; callers take their time out
    of the step's before scaling.  The samples share the CPU's caches
    and allocator with the step, so the program can move them a little
    (README).  Samplers do not nest.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        # With the collector on, a sample that triggered a collection
        # would time the scan of the step's own young objects, and the
        # scale would follow the program's allocation pattern.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(_probe_chunk(SAMPLE_ITERATIONS))
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def overhead_s(self) -> float:
        return sum(self.samples)

    def scale(self) -> float:
        """Mean sampled speed relative to the reference host."""
        samples = self.samples or [_probe_chunk(SAMPLE_ITERATIONS)]
        return REFERENCE_SAMPLE_S * statistics.mean(1.0 / d for d in samples)


#: Attribute carrying a pool cell's sampled host-speed scale back on
#: its RunSummary.
CELL_SCALE_ATTR = "_perfbench_scale"


def sampled_execute_cell(cell: Any, *args: Any, **kwargs: Any) -> Any:
    """The driver's per-cell entry point while a pool step is measured.

    It samples the host speed while the cell runs, in the pool worker
    and on that worker's CPU (workers inherit the patched driver by
    ``fork``), and ships the cell's scale back on its summary as an
    instance attribute outside the dataclass fields, so
    ``RunSummary.canonical_json`` is unaffected.
    """
    from repro.engine.worker import execute_cell

    started = time.perf_counter()
    with SpeedSampler() as sampler:
        outcome = execute_cell(cell, *args, **kwargs)
    wall = time.perf_counter() - started
    if outcome.summary is not None:
        setattr(outcome.summary, CELL_SCALE_ATTR,
                sampler.scale() * (wall - sampler.overhead_s) / wall)
    return outcome


@dataclass
class CellRecord:
    """One cell outcome of a round: its summary or its engine error."""

    name: str
    wall_s: float
    summary: Any = None
    error: Optional[str] = None
    #: Factor from the cell's host seconds to reference seconds: sampled
    #: around the cell itself in a pool worker, else its step's scale
    #: (``Round.step``).
    scale: Optional[float] = None


@dataclass
class Round:
    """What one pass over the workload's cells produced."""

    cells: List[CellRecord] = field(default_factory=list)
    #: Host seconds of the round's steps, raw and at reference speed.
    wall_s: float = 0.0
    norm_s: float = 0.0
    #: Host-speed scale applied to each step (1.0 when unscaled).
    scales: List[float] = field(default_factory=list)
    #: Workload-specific counts (chaos plans, fuzz genomes, ...).
    extra: Dict[str, int] = field(default_factory=dict)
    #: Canonical JSON of every cell plus ``extra``, hashed.
    digest: str = ""

    def step(self, fn: Callable[[], List[CellRecord]], scaled: bool,
             pooled: bool = False) -> None:
        """Run one measured step, ending in a full garbage collection.

        A scaled serial step is sampled from inside (``SpeedSampler``)
        and its cells take its scale.  A scaled ``pooled`` step keeps
        every CPU busy with pool workers, where samples from this
        process would compete with them: its cells carry the scales
        sampled in the workers (``sampled_execute_cell``), and the step
        takes their mean weighted by cell time.
        """
        sampler = SpeedSampler() if scaled and not pooled else None
        started = time.perf_counter()
        with sampler if sampler is not None else contextlib.nullcontext():
            cells = fn()
            # The step pays for its own cyclic garbage, and the next step
            # starts from the same heap state whatever ran before it.
            gc.collect()
        wall = time.perf_counter() - started
        own = [c for c in cells if c.scale is not None and c.wall_s > 0]
        if sampler is not None:
            # Reference seconds per host second, net of the samples.
            scale = sampler.scale() * (wall - sampler.overhead_s) / wall
        elif scaled and own:
            scale = sum(c.wall_s * c.scale for c in own) / sum(c.wall_s for c in own)
        else:
            scale = 1.0
        for cell in cells:
            if cell.scale is None:
                cell.scale = scale
        self.scales.append(scale)
        self.cells.extend(cells)
        self.wall_s += wall
        self.norm_s += wall * scale


def is_red(cell: CellRecord, require_stable: bool) -> bool:
    """Whether a cell counts as failed.

    Red means an engine error, a Theorem 1-4 violation, a failed
    regular/atomic history audit or a write-ack integrity violation.
    Cells of the ``repro check`` workloads must also stabilize within
    their horizon (every one of them claims eventual leadership).
    """
    s = cell.summary
    if cell.error is not None or s is None:
        return True
    if s.property_violations or s.audit_violations or s.integrity_violations:
        return True
    if s.audit_ok is False:
        return True
    return require_stable and not s.stabilized


def digest_of(cells: Sequence[CellRecord], extra: Dict[str, int]) -> str:
    """sha256 over every cell's canonical JSON (or error) and ``extra``."""
    h = hashlib.sha256()
    for cell in cells:
        h.update((cell.summary.canonical_json() if cell.summary is not None
                  else f"error:{cell.name}").encode())
        h.update(b"\n")
    h.update(repr(sorted(extra.items())).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
class Workload:
    """A round of cells, ordered by the seed, plus its warm-up."""

    name = ""
    require_stable = True
    #: The percentile ``cell_tail_s`` reports: for each workload the
    #: highest one with at least ten cells beyond it in a 30-s run.
    tail_pct = 90

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def warm_up(self) -> None:
        """Build the inputs, run one cell and start what the loop needs."""
        raise NotImplementedError

    def prime(self) -> float:
        """Work between set-up and the measured loop that set-up time
        must include; returns its reference seconds (none by default)."""
        return 0.0

    def run_round(self, scaled: bool) -> Round:
        """One pass over the round's cells, step by step; with ``scaled``
        the steps' times are scaled to the reference host speed."""
        raise NotImplementedError

    def _scratch(self) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="round-", dir=self.workdir))


class EngineWorkload(Workload):
    """``repro check`` cells run serially through ``run_experiment``.

    The seed rotates the scenario order; the cells themselves are the
    audited ones (``CHECK_SEED``).  Every cell is its own
    ``run_experiment`` call and step, so each cell is scaled by the host
    speed sampled while it ran.
    """

    scenarios: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    tiny_scenarios: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    warm_up_scenario: Tuple[str, Dict[str, Any]] = ("", {})

    def _spec(self, scenarios: Sequence[Tuple[str, Dict[str, Any]]],
              algorithms: Sequence[str]) -> Any:
        from repro.engine.spec import AlgorithmRef, ExperimentSpec, ScenarioRef

        return ExperimentSpec(
            name=f"perfbench-{self.name}",
            algorithms=tuple(AlgorithmRef(label=a, target=a) for a in algorithms),
            scenarios=tuple(ScenarioRef.make(f, kw) for f, kw in scenarios),
            seeds=(CHECK_SEED,),
        )

    def warm_up(self) -> None:
        scenarios = list(self.tiny_scenarios if self.tiny else self.scenarios)
        # A rotation, not a shuffle: each cell keeps its predecessor (and
        # so the heap and GC state it inherits) except at the seam.
        start = self.seed % len(scenarios)
        scenarios = scenarios[start:] + scenarios[:start]
        self.specs = [self._spec([s], [a]) for s in scenarios for a in ALGORITHMS]
        self._run(self._spec([self.warm_up_scenario], ALGORITHMS[:1]))

    def _run(self, spec: Any) -> List[CellRecord]:
        from repro.engine.driver import run_experiment

        scratch = self._scratch()
        try:
            report = run_experiment(spec, jobs=1, results_dir=scratch, strict=False)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        errors = {o.key: o.error for o in report.failures}
        rows = iter(report.rows)  # grid order, failed cells skipped
        cells: List[CellRecord] = []
        for cell in spec.cells():
            label = f"{cell.algorithm.label}/{cell.scenario.factory}"
            if cell.key in errors:
                cells.append(CellRecord(label, 0.0, error=errors[cell.key]))
            else:
                row = next(rows)
                cells.append(CellRecord(label, row.wall_time_s, summary=row))
        return cells

    def run_round(self, scaled: bool) -> Round:
        r = Round()
        for spec in self.specs:
            r.step(lambda: self._run(spec), scaled)
        return r


class SharedElection(EngineWorkload):
    """alg1 + alg2 on the shared-memory check scenarios (+ big nominal)."""

    name = "shared-election"
    scenarios = SHARED_SCENARIOS
    tiny_scenarios = (("gst-ramp", {"horizon": 1500.0}), ("nominal", {"horizon": 1500.0}))
    warm_up_scenario = ("awb-only", {})


class EmulatedQuorum(EngineWorkload):
    """alg1 + alg2 on the emulated (ABD quorum) check scenarios."""

    name = "emulated-quorum"
    scenarios = EMULATED_SCENARIOS
    tiny_scenarios = (
        ("emulated-lossy-audit", {"horizon": 2500.0}),
        ("membership-churn", {"horizon": 2000.0}),
    )
    warm_up_scenario = ("emulated-lossy-audit", {})
    tail_pct = 40


class Campaigns(Workload):
    """One chaos campaign (serial, shrink on) plus one fuzz budget.

    Both run at their audited seeds (``repro chaos`` and ``repro fuzz``
    defaults); the fuzz run goes into a fresh corpus with one pool
    worker per CPU.  The seed changes nothing here: the campaign always
    runs first (README).
    """

    name = "campaigns"
    require_stable = False
    tail_pct = 85

    def warm_up(self) -> None:
        from repro.faults.campaign import CampaignConfig
        from repro.fuzz.loop import FuzzConfig

        jobs = os.cpu_count() or 1
        campaign: Dict[str, Any] = {"plans": 1, "horizon": 2000.0} if self.tiny else {"plans": 6}
        fuzz: Dict[str, Any] = {"budget": 2, "horizon": 1000.0} if self.tiny else {"budget": 32}
        self.campaign = CampaignConfig(seed=CAMPAIGN_SEED, shrink=True, **campaign)
        self.fuzz = FuzzConfig(seed=FUZZ_SEED, jobs=jobs, **fuzz)
        # Two short genomes through pools of the loop's size.
        self._fuzz(Round(), sample=False, config=replace(
            self.fuzz, seed=FUZZ_SEED + 1, budget=2, horizon=1000.0))

    def prime(self) -> float:
        # Until a fuzz run of the full budget has run in this process, the
        # first large genome of each pool worker takes about twice as long
        # (0.9-1.1 s against 0.4-0.6 s), so a cell's median would depend
        # on whether a run fits two rounds or three.  The priming run is
        # measured like the loop's fuzz step.
        r = Round()
        config = replace(self.fuzz, seed=FUZZ_SEED + 1)
        r.step(lambda: self._fuzz(r, sample=True, config=config), True, pooled=True)
        return r.norm_s

    def _campaign(self, r: Round) -> List[CellRecord]:
        from repro.faults.campaign import run_campaign

        cells: List[CellRecord] = []
        mark = [time.perf_counter()]

        def on_plan(index: int, summary: Any, count: int) -> None:
            now = time.perf_counter()
            cells.append(CellRecord(f"plan{index}", now - mark[0], summary=summary))
            mark[0] = now

        result = run_campaign(self.campaign, progress=on_plan)
        r.extra.update(plans=result.plans_run, campaign_violations=len(result.violations))
        return cells

    def _fuzz(self, r: Round, sample: bool, config: Any = None) -> List[CellRecord]:
        from repro.engine import driver
        from repro.fuzz.loop import run_fuzz

        cells: List[CellRecord] = []

        def on_genome(genome: Any, summary: Any, novel: bool, count: int) -> None:
            scale = summary.__dict__.pop(CELL_SCALE_ATTR, None)
            cells.append(CellRecord(f"genome{len(cells)}", summary.wall_time_s,
                                    summary=summary, scale=scale))

        scratch = self._scratch()
        original = driver.execute_cell
        if sample:
            driver.execute_cell = sampled_execute_cell
        try:
            result = run_fuzz(config or self.fuzz, corpus_dir=scratch, progress=on_genome)
        finally:
            driver.execute_cell = original
            shutil.rmtree(scratch, ignore_errors=True)
        cells.extend(CellRecord("fuzz-error", 0.0, error=f) for f in result.failures)
        r.extra.update(genomes=result.genomes_run, new_signatures=result.new_signatures,
                       fuzz_violations=len(result.violations))
        return cells

    def run_round(self, scaled: bool) -> Round:
        r = Round()
        r.step(lambda: self._campaign(r), scaled)
        r.step(lambda: self._fuzz(r, sample=scaled), scaled, pooled=True)
        return r


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    w.name: w for w in (SharedElection, EmulatedQuorum, Campaigns)
}


# ----------------------------------------------------------------------
def run_rounds(workload: Workload, seconds: float, scaled: bool = False) -> List[Round]:
    """Closed loop: repeat rounds until ``seconds`` of host time are spent.

    A further round starts only if, at the median round time, it would
    end less than half a round past the deadline; at least one runs.
    """
    rounds: List[Round] = []
    started = time.perf_counter()
    while True:
        r = workload.run_round(scaled)
        r.digest = digest_of(r.cells, r.extra)
        rounds.append(r)
        elapsed = time.perf_counter() - started
        typical = statistics.median(x.wall_s for x in rounds)
        if elapsed + typical / 2 > seconds:
            return rounds


def tail(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile of ``values``, interpolated between the
    nearest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(rounds: Sequence[Round], require_stable: bool,
               tail_pct: int = 90) -> Dict[str, Any]:
    """The end-to-end figures of the untraced rounds, at the reference
    host speed (setup and memory are added by the caller)."""
    norm = [[c.wall_s * (1.0 if c.scale is None else c.scale) for c in r.cells]
            for r in rounds]
    samples = [t for r, ts in zip(rounds, norm) for c, t in zip(r.cells, ts)
               if c.summary is not None]
    # Every round runs the same cells in the same order: the median
    # cell is taken over each cell's median across rounds, so it does
    # not flip between the cost clusters of neighbouring cells.
    per_cell = [statistics.median(ts[i] for ts in norm)
                for i, c in enumerate(rounds[0].cells) if c.summary is not None]
    cells_per_s, events_per_s = [], []
    for r in rounds:
        clean = [c for c in r.cells if not is_red(c, require_stable)]
        cells_per_s.append(len(clean) / r.norm_s)
        events_per_s.append(sum(c.summary.events_fired for c in r.cells
                                if c.summary is not None) / r.norm_s)
    stab = [c.summary.stabilization_time for c in rounds[0].cells
            if c.summary is not None and c.summary.stabilized]
    attempted = sum(len(r.cells) for r in rounds)
    failed = sum(is_red(c, require_stable) for r in rounds for c in r.cells)
    return {
        "cells_per_s": statistics.median(cells_per_s),
        "sim_events_per_s": statistics.median(events_per_s),
        "cell_p50_s": statistics.median(per_cell) if per_cell else math.nan,
        "cell_tail_s": tail(samples, tail_pct) if samples else math.nan,
        "cell_tail_pct": tail_pct,
        "cell_tail_samples": len(samples),
        "leader_stab_vt_p50": statistics.median(stab) if stab else math.nan,
        "clean_share": (attempted - failed) / attempted,
        "attempted": attempted,
        "failed": failed,
        "host_cells_per_s": statistics.median(
            sum(not is_red(c, require_stable) for c in r.cells) / r.wall_s for r in rounds),
    }


def _pct(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Round, untraced_wall_s: float, tracer: Any) -> Dict[str, float]:
    """Per-layer figures of one traced round."""
    summaries = [c.summary for c in traced.cells if c.summary is not None]
    emulated = [s for s in summaries if s.memory_backend == "emulated"]
    quorum_ops = sum(s.total_reads + s.total_writes for s in emulated)
    self_s = tracer.layer_self_s
    spans = tracer.span_totals()
    audit_s = spans.get("RunResult.audit_consistency", 0.0)
    audit_ops = sum(s.audit_ops for s in summaries)
    messages = sum(s.messages_sent for s in summaries)
    retransmissions = sum(s.retransmissions for s in summaries)
    return {
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.events": sum(s.events_fired for s in summaries),
        "core.self_s": self_s.get("core", 0.0),
        "memory.self_s": self_s.get("memory", 0.0),
        "memory.reads": sum(s.total_reads for s in summaries),
        "memory.writes": sum(s.total_writes for s in summaries),
        "timers.self_s": self_s.get("timers", 0.0),
        "netsim.self_s": self_s.get("netsim", 0.0),
        "netsim.messages": messages,
        "netsim.messages_per_op": _ratio(messages, quorum_ops),
        "memory.emulated.self_s": self_s.get("memory.emulated", 0.0),
        "memory.emulated.retransmissions": retransmissions,
        "memory.emulated.retransmit_ratio": _ratio(retransmissions, quorum_ops),
        "memory.emulated.write_backs": sum(s.write_backs for s in summaries),
        "memory.emulated.quorum_vt_p50": _pct(tracer.latencies, 0.50),
        "memory.emulated.quorum_vt_p99": _pct(tracer.latencies, 0.99),
        "memory.membership.self_s": self_s.get("memory.membership", 0.0),
        "memory.membership.dual_quorum_ops": sum(s.dual_quorum_ops for s in summaries),
        "memory.membership.transfer_rounds": sum(s.transfer_rounds for s in summaries),
        "memory.linearizability.audit_s": audit_s,
        "memory.linearizability.audit_ops": audit_ops,
        "memory.linearizability.audit_ops_per_s": _ratio(audit_ops, audit_s),
        "props.check_s": spans.get("check_properties", 0.0),
        "analysis.stabilization_s": spans.get("RunResult.stabilization", 0.0),
        "engine.summarize_s": spans.get("summarize_run", 0.0),
        "workloads.build_s": spans.get("build_scenario", 0.0),
        "core.build_s": spans.get("Scenario.build", 0.0),
        "engine.pool_overhead_s": sum(tracer.pool_overhead_s),
        "engine.store.append_s": spans.get("ResultStore.append", 0.0),
        "engine.self_s": self_s.get("engine", 0.0),
        "faults.self_s": self_s.get("faults", 0.0),
        "faults.plans": traced.extra.get("plans", 0),
        "fuzz.self_s": self_s.get("fuzz", 0.0),
        "fuzz.genomes": traced.extra.get("genomes", 0),
        "fuzz.new_signature_ratio": _ratio(traced.extra.get("new_signatures", 0),
                                           traced.extra.get("genomes", 0)),
        "trace.overhead_ratio": traced.wall_s / untraced_wall_s,
    }


__all__ = [
    "CellRecord",
    "Round",
    "WORKLOADS",
    "Workload",
    "digest_of",
    "end_to_end",
    "is_red",
    "per_layer",
    "SpeedSampler",
    "run_rounds",
    "sampled_execute_cell",
    "tail",
]
