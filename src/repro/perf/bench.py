"""The perf microbenchmarks.

Four families, mirroring the layers of the simulation core:

* **kernel throughput** -- events/second through the tuple-heap event
  queue and the fused run loop: staggered (unique timestamps), aligned
  (equal-timestamp batches through the collision buckets), cancellable
  (handle-allocating) and lane (columnar integer-token) variants;
* **layer throughput** -- messages/second through the netsim fabric
  (send -> routed delivery) and ABD quorum rounds/second at 3, 5 and 7
  replicas, so a regression in the emulated message path names its
  layer instead of only moving the emulated scenario's wall time;
* **per-scenario run time** -- wall seconds (and derived events/second)
  of a nominal ``alg1`` election at a fixed seed, in both the traced and
  the low-overhead run mode, plus the same election with the registers
  realized by the ABD quorum emulation (the emulated-backend axis: its
  event count multiplies with replica messages, so it tracks the
  netsim/emulation hot path rather than the register fast path);
* **sweep throughput** -- cells/second through the parallel experiment
  engine on a small uncached grid, single-pool and in-process sharded.

Each benchmark repeats its measured section and keeps the *best* repeat
(minimum wall time), which is the standard way to damp scheduler and
allocator jitter in short benchmarks.  Values are wall-clock dependent:
compare them only against baselines recorded on comparable hardware
(see EXPERIMENTS.md, "Performance tracking").

Two profiles exist: ``full`` (the committed-baseline workloads) and
``quick`` (scaled-down workloads for CI smoke jobs and tests).  A
profile's benchmark *names* are identical across machines; comparisons
match on ``(profile, name)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class BenchResult:
    """One measured benchmark value."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    #: Workload knobs and secondary measurements (never compared).
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, Any]:
        """The JSON form stored in BENCH_perf.json (name is the key)."""
        return {
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "meta": dict(self.meta),
        }


# ----------------------------------------------------------------------
# Kernel throughput
# ----------------------------------------------------------------------
def bench_kernel_throughput(
    events: int = 200_000,
    chains: int = 4,
    repeats: int = 3,
    cancellable: bool = False,
    aligned: bool = False,
    name: str = "kernel_events_per_sec",
) -> BenchResult:
    """Events/second through the kernel's schedule-and-fire cycle.

    ``chains`` self-rescheduling callbacks ping through the heap until
    ``events`` events fired; with ``cancellable`` every reschedule takes
    the handle-allocating path (the timer service's pattern).

    With ``aligned`` all chains start at the *same* instant and stay in
    lock-step, so every virtual tick is one equal-timestamp batch of
    ``chains`` events -- the workload the batched run loop drains from
    its collision buckets without re-heaping (processes that share timer
    periods, synchronized retransmissions).  Staggered (the default)
    keeps every timestamp unique, exercising the heap/singleton path.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        sim = Simulator(trace_events=False)
        if cancellable:
            def make(ch: int) -> Callable[[], None]:
                def cb() -> None:
                    sim.schedule_after_cancellable(1.0, cb, kind="bench", pid=ch)
                return cb
        else:
            def make(ch: int) -> Callable[[], None]:
                def cb() -> None:
                    sim.schedule_after(1.0, cb, kind="bench", pid=ch)
                return cb
        for ch in range(chains):
            start = 1.0 if aligned else float(ch) / chains
            sim.schedule_at(start, make(ch), kind="bench", pid=ch)
        started = time.perf_counter()
        sim.run(max_events=events)
        best = min(best, time.perf_counter() - started)
    return BenchResult(
        name=name,
        value=events / best,
        unit="events/s",
        higher_is_better=True,
        meta={
            "events": events,
            "chains": chains,
            "repeats": repeats,
            "cancellable": cancellable,
            "aligned": aligned,
            "best_wall_s": best,
        },
    )


def bench_lane_throughput(
    events: int = 100_000,
    chains: int = 4,
    repeats: int = 3,
    name: str = "kernel_lane_events_per_sec",
) -> BenchResult:
    """Events/second through the columnar :class:`EventLane` path.

    The cancellable counterpart of :func:`bench_kernel_throughput`:
    every reschedule acquires a lane slot and returns an integer token
    instead of allocating an :class:`EventHandle` -- the pattern the
    timer services and the ABD retransmission timers run on.
    """
    from repro.sim.events import EventLane

    best = float("inf")
    for _ in range(max(1, repeats)):
        sim = Simulator(trace_events=False)
        lane = EventLane("bench-lane", None)  # consume=None: payload is the callback

        def make(ch: int) -> Callable[[], None]:
            def cb() -> None:
                sim.schedule_lane_after(lane, 1.0, cb, pid=ch)
            return cb

        for ch in range(chains):
            sim.schedule_at(float(ch) / chains, make(ch), kind="bench", pid=ch)
        started = time.perf_counter()
        sim.run(max_events=events)
        best = min(best, time.perf_counter() - started)
    return BenchResult(
        name=name,
        value=events / best,
        unit="events/s",
        higher_is_better=True,
        meta={
            "events": events,
            "chains": chains,
            "repeats": repeats,
            "best_wall_s": best,
        },
    )


# ----------------------------------------------------------------------
# Layer throughput: netsim fabric and ABD quorum rounds
# ----------------------------------------------------------------------
def bench_netsim_throughput(
    messages: int = 100_000,
    chains: int = 8,
    repeats: int = 3,
    name: str = "netsim_messages_per_sec",
) -> BenchResult:
    """Messages/second sent and delivered through :class:`Network`.

    ``chains`` ping-pong pairs over :class:`SynchronousLinks`, delivered
    through a per-kind route (the ABD emulation's wiring): every
    delivery answers with one send, so each message costs one
    ``Network.send``, one kernel event and one handler call, until
    ``messages`` deliveries fired.
    """
    from repro.netsim.network import Message, Network, SynchronousLinks

    best = float("inf")
    for _ in range(max(1, repeats)):
        sim = Simulator(trace_events=False)
        net = Network(sim, SynchronousLinks(0.25))
        send = net.send

        def pong(message: Message) -> None:
            send(message.receiver, message.sender, "ping", message.payload)

        net.install_route("ping", pong)
        for ch in range(chains):
            net.send(2 * ch, 2 * ch + 1, "ping", ch)
        started = time.perf_counter()
        sim.run(max_events=messages)
        best = min(best, time.perf_counter() - started)
    return BenchResult(
        name=name,
        value=messages / best,
        unit="messages/s",
        higher_is_better=True,
        meta={
            "messages": messages,
            "chains": chains,
            "repeats": repeats,
            "best_wall_s": best,
        },
    )


def bench_abd_quorum_rounds(
    replicas: int = 3,
    operations: int = 3_000,
    repeats: int = 3,
    name: str = "abd_quorum_rounds_per_sec_r3",
) -> BenchResult:
    """Quorum rounds/second of the ABD emulation over synchronous links.

    One writer and one reader alternate operations on an atomic
    register, each issued when the previous one completes: a write is
    one round (broadcast, majority of acks) and an atomic read two (the
    query and its write-back).  The wall time covers the whole protocol
    path -- ``Network.send``, kernel dispatch, the replica and client
    handlers and the completion bookkeeping -- at ``replicas`` replicas.
    """
    from repro.memory.emulated import EmulatedMemory, EmulationConfig
    from repro.sim.rng import RngRegistry

    best = float("inf")
    rounds = 0
    for _ in range(max(1, repeats)):
        sim = Simulator(trace_events=False)
        mem = EmulatedMemory(
            clock=lambda: sim.now,
            sim=sim,
            rng=RngRegistry(0),
            config=EmulationConfig(replicas=replicas, consistency="atomic"),
            log_reads=False,
        )
        reg = mem.create_register("R", owner=0, initial=0)
        mem.start(horizon=float("inf"))
        issued = [0]

        def next_op(_: Any = None) -> None:
            if issued[0] >= operations:
                return
            issued[0] += 1
            if issued[0] % 2:
                mem.emu_write(0, reg, issued[0], next_op)
            else:
                mem.emu_read(1, reg, next_op)

        sim.schedule_at(0.0, next_op, kind="bench")
        started = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - started)
        rounds = mem.writes_completed + mem.reads_completed + mem.write_backs
    return BenchResult(
        name=name,
        value=rounds / best,
        unit="rounds/s",
        higher_is_better=True,
        meta={
            "replicas": replicas,
            "operations": operations,
            "rounds": rounds,
            "repeats": repeats,
            "best_wall_s": best,
        },
    )


def _layer_benches(messages: int, operations: int) -> List[BenchResult]:
    """The netsim and ABD-round layer entries of a profile."""
    out = [bench_netsim_throughput(messages=messages, repeats=5)]
    out.extend(
        bench_abd_quorum_rounds(
            replicas=replicas,
            operations=operations,
            repeats=3,
            name=f"abd_quorum_rounds_per_sec_r{replicas}",
        )
        for replicas in (3, 5, 7)
    )
    return out


# ----------------------------------------------------------------------
# Per-scenario run time
# ----------------------------------------------------------------------
def bench_scenario(
    scenario: str = "nominal",
    algorithm: str = "alg1",
    n: int = 16,
    horizon: float = 2000.0,
    seed: int = 0,
    repeats: int = 2,
    fast: bool = False,
    name: str = "scenario_alg1_n16_wall_s",
) -> Tuple[BenchResult, BenchResult]:
    """Wall seconds of one full scenario run, plus derived events/sec.

    Returns ``(wall_result, throughput_result)``; the throughput entry
    is ``<name minus _wall_s>_events_per_sec``.
    """
    from repro.workloads.registry import ALGORITHMS, SCENARIO_FACTORIES

    scen = SCENARIO_FACTORIES[scenario](n=n, horizon=horizon)
    algo_cls = ALGORITHMS[algorithm]
    overrides: Dict[str, Any] = (
        {"log_reads": False, "trace_events": False} if fast else {}
    )
    scen.run(algo_cls, seed=seed, **overrides)  # warm-up (imports, JITs nothing, caches code)
    best = float("inf")
    events = 0
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = scen.run(algo_cls, seed=seed, **overrides)
        best = min(best, time.perf_counter() - started)
        events = result.sim.events_fired
    meta = {
        "scenario": scenario,
        "algorithm": algorithm,
        "n": n,
        "horizon": horizon,
        "seed": seed,
        "repeats": repeats,
        "fast": fast,
        "events_fired": events,
    }
    wall = BenchResult(
        name=name, value=best, unit="s", higher_is_better=False, meta=meta
    )
    stem = name[: -len("_wall_s")] if name.endswith("_wall_s") else name
    throughput = BenchResult(
        name=f"{stem}_events_per_sec",
        value=events / best,
        unit="events/s",
        higher_is_better=True,
        meta=meta,
    )
    return wall, throughput


# ----------------------------------------------------------------------
# Sweep throughput
# ----------------------------------------------------------------------
def bench_sweep_throughput(
    n: int = 6,
    horizon: float = 800.0,
    seeds: Tuple[int, ...] = (0, 1, 2, 3),
    algorithms: Tuple[str, ...] = ("alg1", "alg2"),
    jobs: int = 2,
    name: str = "sweep_cells_per_sec",
) -> BenchResult:
    """Cells/second through the parallel engine (cache disabled)."""
    from repro.engine.driver import run_experiment
    from repro.engine.spec import ExperimentSpec
    from repro.workloads.registry import ALGORITHMS, SCENARIO_FACTORIES

    algos = {label: ALGORITHMS[label] for label in algorithms}
    scen = SCENARIO_FACTORIES["nominal"](n=n, horizon=horizon)
    spec = ExperimentSpec.from_objects("perf-sweep", algos, [scen], seeds)
    report = run_experiment(spec, jobs=jobs, cache=False, strict=True)
    cells = spec.size()
    return BenchResult(
        name=name,
        value=cells / report.wall_time_s,
        unit="cells/s",
        higher_is_better=True,
        meta={
            "cells": cells,
            "jobs": jobs,
            "n": n,
            "horizon": horizon,
            "seeds": list(seeds),
            "algorithms": list(algorithms),
            "wall_s": report.wall_time_s,
        },
    )


def bench_sweep_sharded(
    n: int = 6,
    horizon: float = 800.0,
    seeds: Tuple[int, ...] = (0, 1, 2, 3),
    algorithms: Tuple[str, ...] = ("alg1", "alg2"),
    jobs: int = 2,
    shards: int = 2,
    name: str = "sweep_sharded_cells_per_sec",
) -> BenchResult:
    """Cells/second through the in-process sharded sweep path.

    Same grid as :func:`bench_sweep_throughput` but partitioned into
    ``shards`` sequential process pools (``run_experiment(shards=N)``),
    measuring the per-shard pool spin-up/teardown overhead that a
    ``repro sweep --shard K/N`` deployment pays on each machine.
    """
    from repro.engine.driver import run_experiment
    from repro.engine.spec import ExperimentSpec
    from repro.workloads.registry import ALGORITHMS, SCENARIO_FACTORIES

    algos = {label: ALGORITHMS[label] for label in algorithms}
    scen = SCENARIO_FACTORIES["nominal"](n=n, horizon=horizon)
    spec = ExperimentSpec.from_objects("perf-sweep-sharded", algos, [scen], seeds)
    report = run_experiment(spec, jobs=jobs, cache=False, strict=True, shards=shards)
    cells = spec.size()
    return BenchResult(
        name=name,
        value=cells / report.wall_time_s,
        unit="cells/s",
        higher_is_better=True,
        meta={
            "cells": cells,
            "jobs": jobs,
            "shards": shards,
            "n": n,
            "horizon": horizon,
            "seeds": list(seeds),
            "algorithms": list(algorithms),
            "wall_s": report.wall_time_s,
        },
    )


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def _collect_full() -> List[BenchResult]:
    out: List[BenchResult] = [
        bench_kernel_throughput(events=200_000, chains=4, repeats=5),
        bench_kernel_throughput(
            events=200_000,
            chains=32,
            repeats=5,
            aligned=True,
            name="kernel_batched_events_per_sec",
        ),
        bench_kernel_throughput(
            events=100_000,
            chains=4,
            repeats=5,
            cancellable=True,
            name="kernel_cancellable_events_per_sec",
        ),
        bench_lane_throughput(events=100_000, chains=4, repeats=5),
    ]
    out.extend(_layer_benches(messages=100_000, operations=3_000))
    out.extend(
        bench_scenario(
            n=16, horizon=2000.0, fast=False, name="scenario_alg1_n16_traced_wall_s"
        )
    )
    out.extend(
        bench_scenario(
            n=16, horizon=2000.0, fast=True, name="scenario_alg1_n16_fast_wall_s"
        )
    )
    out.extend(
        bench_scenario(
            scenario="nominal-emulated",
            n=8,
            horizon=2000.0,
            fast=True,
            name="scenario_alg1_emulated_n8_wall_s",
        )
    )
    out.append(bench_sweep_throughput())
    out.append(bench_sweep_sharded())
    return out


def _collect_quick() -> List[BenchResult]:
    out: List[BenchResult] = [
        bench_kernel_throughput(events=50_000, chains=4, repeats=5),
        bench_kernel_throughput(
            events=50_000,
            chains=32,
            repeats=5,
            aligned=True,
            name="kernel_batched_events_per_sec",
        ),
        bench_kernel_throughput(
            events=25_000,
            chains=4,
            repeats=5,
            cancellable=True,
            name="kernel_cancellable_events_per_sec",
        ),
        bench_lane_throughput(events=25_000, chains=4, repeats=5),
    ]
    out.extend(_layer_benches(messages=25_000, operations=1_000))
    out.extend(
        bench_scenario(
            n=8,
            horizon=800.0,
            repeats=2,
            fast=False,
            name="scenario_alg1_n8_traced_wall_s",
        )
    )
    out.extend(
        bench_scenario(
            n=8,
            horizon=800.0,
            repeats=2,
            fast=True,
            name="scenario_alg1_n8_fast_wall_s",
        )
    )
    out.extend(
        bench_scenario(
            scenario="nominal-emulated",
            n=4,
            horizon=800.0,
            repeats=2,
            fast=True,
            name="scenario_alg1_emulated_n4_wall_s",
        )
    )
    out.append(
        bench_sweep_throughput(n=4, horizon=400.0, seeds=(0, 1), jobs=2)
    )
    out.append(
        bench_sweep_sharded(n=4, horizon=400.0, seeds=(0, 1), jobs=2, shards=2)
    )
    return out


#: profile name -> collector.
PROFILES: Dict[str, Callable[[], List[BenchResult]]] = {
    "full": _collect_full,
    "quick": _collect_quick,
}


def collect_profile(profile: str) -> Dict[str, BenchResult]:
    """Run one profile's benchmarks; returns ``{name: result}`` in run order."""
    try:
        collector = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown perf profile {profile!r}; have {sorted(PROFILES)}")
    results = collector()
    return {r.name: r for r in results}


__all__ = [
    "BenchResult",
    "PROFILES",
    "bench_abd_quorum_rounds",
    "bench_kernel_throughput",
    "bench_lane_throughput",
    "bench_netsim_throughput",
    "bench_scenario",
    "bench_sweep_sharded",
    "bench_sweep_throughput",
    "collect_profile",
]
