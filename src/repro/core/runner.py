"""Run assembly: algorithm + kernel + memory + timers + crash plan.

A :class:`Run` wires one algorithm class into the substrates and drives
it to a horizon; the outcome is a :class:`RunResult` bundling the trace,
the shared-memory access log, and everything the analysis layer needs.
Every run is a pure function of its configuration and seed.

Execution model
---------------
Each process multiplexes its tasks (``T2``, ``T3`` instances, extras)
round-robin, one *operation* per scheduled step -- the paper's "step"
granularity.  After each operation the process is re-scheduled after a
delay drawn from the run's step-delay model; that model is where
asynchrony and assumption AWB1 live.  Timer expirations enqueue a fresh
``T3`` task.  Crashes stop a process between steps, permanently.

When a :class:`~repro.memory.disk.Disk` is attached, every register
operation becomes an interval: the process blocks for the sampled
latency and the operation takes effect at the sampled linearization
point inside the interval (the SAN deployment of Section 1).
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.interfaces import (
    AlgorithmContext,
    FetchAdd,
    LocalStep,
    OmegaAlgorithm,
    Operation,
    ReadReg,
    SetTimer,
    Task,
    WriteReg,
)
from repro.memory.backend import create_memory
from repro.memory.disk import Disk
from repro.memory.emulated import EmulatedMemory
from repro.memory.memory import SharedMemory
from repro.sim.crash import CrashPlan
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import StepDelayModel, UniformDelay
from repro.sim.tracing import RunTrace
from repro.timers.awb import AsymptoticallyWellBehavedTimer, TimerBehavior
from repro.timers.functions import LinearF
from repro.timers.service import TimerService


@dataclass
class _TaskState:
    """One task coroutine plus the value to send on its next turn."""

    gen: Task
    name: str
    inbox: Any = None
    started: bool = False


class ProcessRuntime:
    """Drives one process: task multiplexing, stepping, crash, timers.

    The step loop is the simulation's hottest code.  Everything it
    touches per operation is pre-bound at construction time: the step
    callback itself (one bound method, reused by every reschedule
    instead of a fresh closure per step), the delay model and kernel
    entry points, and an exact-type operation dispatch table
    (``type(op) -> handler``) that replaces the old ``isinstance``
    ladder.  Operation classes are final frozen dataclasses
    (:mod:`repro.core.interfaces`), so exact-type dispatch is safe.
    """

    def __init__(self, run: "Run", pid: int, algorithm: OmegaAlgorithm) -> None:
        self.run = run
        self.pid = pid
        self.algorithm = algorithm
        self.tasks: deque[_TaskState] = deque()
        self.tasks.append(_TaskState(algorithm.main_task(), "T2"))
        for idx, gen in enumerate(algorithm.extra_tasks()):
            self.tasks.append(_TaskState(gen, f"extra{idx}"))
        self.crashed = False
        self.blocked = False
        self.steps_taken = 0
        self.timer_expirations = 0
        # Pre-bound hot-path collaborators.
        self._sim = run.sim
        self._step_cb = self.step
        self._delay_of = run.delay_model.delay
        self._schedule_after = run.sim.schedule_after
        self._is_crashed_at = run.crash_plan.is_crashed
        # Exact-type operation dispatch.  A handler returns True when it
        # schedules the process's continuation itself (the disk and
        # emulated-memory paths, whose operations are intervals).
        if run.disk is not None:
            read_op, write_op = self._op_read_disk, self._op_write_disk
            fetch_op = self._op_fetch_add
        elif isinstance(run.memory, EmulatedMemory):
            read_op, write_op = self._op_read_emulated, self._op_write_emulated
            fetch_op = self._op_fetch_add_emulated
        else:
            read_op, write_op = self._op_read, self._op_write
            fetch_op = self._op_fetch_add
        self._dispatch: Dict[type, Callable[[_TaskState, Any], Any]] = {
            ReadReg: read_op,
            WriteReg: write_op,
            SetTimer: self._op_set_timer,
            LocalStep: self._op_local,
            FetchAdd: fetch_op,
        }

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the initial timer and schedule the first step."""
        timeout = self.algorithm.initial_timeout()
        if timeout is not None:
            self.run.timer_service.set_timer(self.pid, timeout, self.on_timer)
        self._schedule_next_step()

    def crash(self) -> None:
        """Crash-stop: no further step or timer action, ever."""
        self.crashed = True
        self.run.timer_service.cancel(self.pid)

    def on_timer(self) -> None:
        """Timer expiry: enqueue a fresh ``T3`` task."""
        if self.crashed:
            return
        self.timer_expirations += 1
        handle = self.run.timer_service.active_timer(self.pid)
        if handle is not None:
            self.run.trace.record_timer_fired(
                self._sim._now, self.pid, handle.fires_at - handle.set_at
            )
        gen = self.algorithm.timer_task()
        if gen is not None:
            self.tasks.append(_TaskState(gen, "T3"))

    # ------------------------------------------------------------------
    def _schedule_next_step(self) -> None:
        delay = self._delay_of(self.pid, self._sim._now)
        if delay <= 0:
            raise ValueError(f"step-delay model returned non-positive delay {delay}")
        self._schedule_after(delay, self._step_cb, kind="step", pid=self.pid)

    def step(self) -> None:
        """Execute one operation of the front task."""
        if self.crashed or self.blocked:
            return
        if self._is_crashed_at(self.pid, self._sim._now):
            self.crash()
            return
        tasks = self.tasks
        if not tasks:
            return  # all tasks exhausted; process is passive (not crashed)
        task = tasks[0]
        try:
            if task.started:
                op = task.gen.send(task.inbox)
            else:
                task.started = True
                op = next(task.gen)
        except StopIteration:
            tasks.popleft()
            self._schedule_next_step()
            return
        task.inbox = None
        self.steps_taken += 1
        handler = self._dispatch.get(op.__class__)
        if handler is None:  # pragma: no cover - defensive
            raise TypeError(f"unknown operation {op!r}")
        if handler(task, op):
            return  # the disk path schedules the continuation itself
        tasks.rotate(-1)
        self._schedule_next_step()

    # ------------------------------------------------------------------
    # Operation handlers (exact-type dispatch targets)
    # ------------------------------------------------------------------
    def _op_read(self, task: _TaskState, op: ReadReg) -> None:
        task.inbox = op.register.read(self.pid)

    def _op_write(self, task: _TaskState, op: WriteReg) -> None:
        op.register.write(self.pid, op.value)

    def _op_fetch_add(self, task: _TaskState, op: FetchAdd) -> None:
        task.inbox = op.register.fetch_add(self.pid, op.amount)

    def _op_local(self, task: _TaskState, op: LocalStep) -> None:
        pass

    def _op_set_timer(self, task: _TaskState, op: SetTimer) -> None:
        run = self.run
        run.timer_service.set_timer(self.pid, op.timeout, self.on_timer)
        run.trace.record_timer_set(self._sim._now, self.pid, op.timeout)

    def _op_read_disk(self, task: _TaskState, op: ReadReg) -> bool:
        self._apply_via_disk(task, op)
        return True

    def _op_write_disk(self, task: _TaskState, op: WriteReg) -> bool:
        self._apply_via_disk(task, op)
        return True

    def _apply_via_disk(self, task: _TaskState, op: Operation) -> None:
        """Interval semantics: block, linearize mid-interval, resume."""
        run = self.run
        disk = run.disk
        assert disk is not None
        sample = disk.sample(self.pid)
        inv = run.sim.now
        lin_t = inv + sample.lin_offset
        resp_t = inv + sample.resp_offset
        cell: Dict[str, Any] = {}
        register = op.register

        def linearize() -> None:
            # An in-flight operation takes effect even if the invoker
            # crashed meanwhile (it already left the process).
            if isinstance(op, WriteReg):
                register.write(self.pid, op.value)
                disk.note_write(self.pid, register.name, inv, lin_t, resp_t)
            else:
                cell["value"] = register.read(self.pid)
                disk.note_read(self.pid, register.name, inv, lin_t, resp_t)

        def resume() -> None:
            self.blocked = False
            if self.crashed:
                return
            task.inbox = cell.get("value")
            self.tasks.rotate(-1)
            self._schedule_next_step()

        self.blocked = True
        run.sim.schedule_after(sample.lin_offset, linearize, kind="disk-lin", pid=self.pid)
        run.sim.schedule_after(sample.resp_offset, resume, kind="disk-resp", pid=self.pid)

    # ------------------------------------------------------------------
    # Emulated-memory handlers (ABD quorum phases; interval semantics)
    # ------------------------------------------------------------------
    def _emulated_resume(self, task: _TaskState) -> Callable[[Any], None]:
        """Completion callback: unblock, deliver the value, reschedule.

        Quorum operations outlive their invoker exactly like in-flight
        disk operations: replica state already changed, so a write
        completes even if the writer crashed mid-phase -- only the
        process's continuation is suppressed.
        """

        def resume(value: Any) -> None:
            self.blocked = False
            if self.crashed:
                return
            task.inbox = value
            self.tasks.rotate(-1)
            self._schedule_next_step()

        return resume

    def _op_read_emulated(self, task: _TaskState, op: ReadReg) -> bool:
        self.blocked = True
        self.run.memory.emu_read(self.pid, op.register, self._emulated_resume(task))
        return True

    def _op_write_emulated(self, task: _TaskState, op: WriteReg) -> bool:
        self.blocked = True
        self.run.memory.emu_write(self.pid, op.register, op.value, self._emulated_resume(task))
        return True

    def _op_fetch_add_emulated(self, task: _TaskState, op: FetchAdd) -> bool:
        self.blocked = True
        self.run.memory.emu_fetch_add(self.pid, op.register, op.amount, self._emulated_resume(task))
        return True


# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything a finished run produced."""

    algorithm_name: str
    n: int
    horizon: float
    seed: int
    trace: RunTrace
    memory: SharedMemory
    sim: Simulator
    crash_plan: CrashPlan
    algorithms: List[OmegaAlgorithm]
    timer_service: TimerService
    disk: Optional[Disk]
    snapshots: List[Tuple[float, Tuple[Tuple[str, Any], ...]]] = field(default_factory=list)
    #: Which memory backend produced this run ("shared" or "emulated").
    memory_backend: str = "shared"

    # Convenience delegations to the analysis layer --------------------
    def stabilization(self, margin: float = 0.0) -> "Any":
        """Eventual-leadership verdict (see :mod:`repro.analysis.omega_props`)."""
        from repro.analysis.omega_props import check_eventual_leadership

        return check_eventual_leadership(self.trace, self.crash_plan, self.horizon, margin=margin)

    def final_leaders(self) -> Dict[int, int]:
        """Last sampled ``leader()`` output of each live process.

        "Last" is by sample *time*.  Simulation-produced traces append
        samples in non-decreasing time order, so a single pass taking
        the last occurrence per pid is equivalent to the old
        stable-sort-then-scan -- the monotonicity is verified on the fly
        and the sort only happens in the (never simulator-produced)
        out-of-order case.
        """
        samples = self.trace.leader_samples()
        prev = float("-inf")
        for t, _, _ in samples:
            if t < prev:
                samples = sorted(samples, key=lambda s: s[0])
                break
            prev = t
        latest: Dict[int, int] = {}
        for _, pid, leader in samples:
            latest[pid] = leader
        is_correct = self.crash_plan.is_correct
        return {pid: leader for pid, leader in latest.items() if is_correct(pid)}

    def audit_consistency(self) -> "Any":
        """Consistency audit of the recorded emulated history.

        Returns a
        :class:`~repro.memory.linearizability.LinearizabilityReport`
        checked at the run's own consistency level (atomic histories
        against full linearizability, regular ones against regularity),
        or ``None`` when there is nothing to audit -- a non-emulated
        backend, or a run whose emulation config left
        ``record_history`` off.
        """
        mem = self.memory
        if not isinstance(mem, EmulatedMemory) or not mem.config.record_history:
            return None
        from repro.memory.linearizability import (
            check_atomic_history,
            check_regular_history,
        )

        history = mem.recorded_history()
        if mem.config.consistency == "atomic":
            return check_atomic_history(history)
        return check_regular_history(history)

    def check_properties(
        self,
        *,
        assumption: str = "awb",
        margin: float = 0.0,
        window: float = 100.0,
    ) -> "Any":
        """Theorem 1-4 audit of this run (see :mod:`repro.props`)."""
        from repro.props.report import check_properties

        return check_properties(
            self, assumption=assumption, margin=margin, window=window
        )

    def summarize(
        self,
        *,
        scenario_name: str = "",
        margin: float = 0.0,
        window: float = 100.0,
        assumption: str = "awb",
    ) -> "Any":
        """Condense this result into a compact, picklable
        :class:`~repro.engine.summary.RunSummary` -- the in-place path
        the parallel engine's workers use instead of shipping the whole
        result bundle across process boundaries."""
        from repro.engine.summary import summarize_run

        return summarize_run(
            self,
            scenario_name=scenario_name,
            margin=margin,
            window=window,
            assumption=assumption,
        )


class Run:
    """A configured, reproducible execution.

    Parameters
    ----------
    algorithm_cls:
        The :class:`OmegaAlgorithm` subclass to run.
    n:
        Number of processes (>= 2).
    seed:
        Run seed; every random stream derives from it.
    horizon:
        Virtual-time end of the run.
    delay_model:
        Step-delay model; defaults to mild uniform asynchrony.
    timer_behaviors:
        Per-pid timer behaviours; default is an immediately
        well-behaved AWB timer with ``f(x) = x`` (no chaotic prefix).
    crash_plan:
        Defaults to fault-free.
    sample_interval:
        Observer ``leader()`` sampling period.
    snapshot_interval:
        If set, record full shared-memory snapshots at this period
        (Theorem 5 harness).
    disk:
        Optional SAN model; when present every register access is an
        interval operation.
    scramble:
        Optional hook ``scramble(memory, rng)`` run after layout
        creation and before instances are built -- used to set arbitrary
        initial register values (self-stabilization, footnote 7).
    algo_config:
        Passed to the algorithm via ``AlgorithmContext.config``.
    log_reads:
        Forwarded to :class:`SharedMemory`.
    trace_events:
        Forwarded to :class:`~repro.sim.kernel.Simulator`; disable to
        skip per-kind event accounting on the hot path (the engine's
        low-overhead run mode).
    memory:
        Memory backend name (:data:`repro.memory.backend.BACKENDS`):
        ``"shared"`` (instantaneous registers, the default) or
        ``"emulated"`` (ABD quorum emulation over message passing, in
        which case every register access becomes an interval operation
        like the disk path).
    emulation:
        Plain-dict :class:`~repro.memory.emulated.EmulationConfig`
        knobs for the emulated backend (replica count, link model,
        replica crashes); only valid with ``memory="emulated"``.
    consistency:
        Consistency level of the emulated registers (``"regular"`` or
        ``"atomic"``; see
        :data:`repro.memory.emulated.CONSISTENCY_LEVELS`).  A non-None
        value overrides the ``consistency`` key of ``emulation`` and is
        only valid with ``memory="emulated"`` -- the shared backend's
        instantaneous registers are atomic by construction, so forcing
        a level onto it would be dead configuration.
    membership:
        Dynamic-membership mode of the emulated replica set
        (:data:`repro.memory.membership.MEMBERSHIP_MODES`): ``"none"``
        strips any membership plan from ``emulation`` (the churn-free
        control) and ``"churn"`` installs the canonical
        :func:`~repro.memory.membership.churn_plan` replace-one-replica
        reconfiguration scaled to the horizon.  A non-None value
        overrides the ``membership_plan`` key of ``emulation`` and is
        only valid with ``memory="emulated"`` -- the shared backend has
        no replica set to reconfigure.
    """

    def __init__(
        self,
        algorithm_cls: Type[OmegaAlgorithm],
        n: int,
        *,
        seed: int = 0,
        horizon: float = 2000.0,
        delay_model: Optional[StepDelayModel] = None,
        timer_behaviors: Optional[Dict[int, TimerBehavior]] = None,
        crash_plan: Optional[CrashPlan] = None,
        sample_interval: float = 5.0,
        snapshot_interval: Optional[float] = None,
        disk: Optional[Disk] = None,
        scramble: Optional[Callable[[SharedMemory, Any], None]] = None,
        algo_config: Optional[Dict[str, Any]] = None,
        log_reads: bool = True,
        trace_events: bool = True,
        memory: str = "shared",
        emulation: Optional[Dict[str, Any]] = None,
        consistency: Optional[str] = None,
        membership: Optional[str] = None,
    ) -> None:
        if n < 2:
            raise ValueError("need at least two processes")
        if memory == "emulated" and disk is not None:
            raise ValueError(
                "the emulated backend and the SAN disk model both make register "
                "accesses interval operations; pick one"
            )
        if consistency is not None:
            if memory != "emulated":
                raise ValueError(
                    "consistency is an axis of the emulated backend; "
                    "pass memory='emulated' or drop the option"
                )
            emulation = dict(emulation or {})
            emulation["consistency"] = consistency
        if membership is not None:
            from repro.memory.membership import MEMBERSHIP_MODES, churn_plan

            if memory != "emulated":
                raise ValueError(
                    "membership is an axis of the emulated backend; "
                    "pass memory='emulated' or drop the option"
                )
            if membership not in MEMBERSHIP_MODES:
                raise ValueError(
                    f"unknown membership mode {membership!r}; "
                    f"choose from {list(MEMBERSHIP_MODES)}"
                )
            emulation = dict(emulation or {})
            if membership == "none":
                emulation["membership_plan"] = []
            else:  # churn
                replicas = int(emulation.get("replicas", 3))
                emulation["membership_plan"] = churn_plan(
                    replicas, horizon
                ).to_jsonable()
        self.algorithm_cls = algorithm_cls
        self.n = n
        self.seed = seed
        self.horizon = horizon
        self.sample_interval = sample_interval
        self.snapshot_interval = snapshot_interval
        self.disk = disk
        self.rng = RngRegistry(seed)

        self.sim = Simulator(trace_events=trace_events)
        self.memory_backend = memory
        self.memory = create_memory(
            memory,
            clock=lambda: self.sim.now,
            log_reads=log_reads,
            sim=self.sim,
            rng=self.rng,
            emulation=emulation,
        )
        self.delay_model: StepDelayModel = delay_model or UniformDelay(self.rng, 0.5, 1.5)
        self.crash_plan = crash_plan or CrashPlan.none(n)
        self.trace = RunTrace()
        config = dict(algo_config or {})

        behaviors: Dict[int, TimerBehavior] = dict(timer_behaviors or {})
        for pid in range(n):
            if pid not in behaviors:
                behaviors[pid] = AsymptoticallyWellBehavedTimer(
                    LinearF(1.0), self.rng, chaos_until=0.0, jitter=0.25
                )
        self.timer_service = TimerService(self.sim, behaviors)

        shared = algorithm_cls.create_shared(self.memory, n, config)
        if scramble is not None:
            scramble(self.memory, self.rng.stream("scramble"))
        self.algorithms: List[OmegaAlgorithm] = []
        for pid in range(n):
            ctx = AlgorithmContext(
                pid=pid,
                n=n,
                clock=lambda: self.sim.now,
                rng=self.rng.stream(f"algo:{pid}"),
                config=config,
            )
            self.algorithms.append(algorithm_cls(ctx, shared))
        self.runtimes = [ProcessRuntime(self, pid, alg) for pid, alg in enumerate(self.algorithms)]
        self.snapshots: List[Tuple[float, Tuple[Tuple[str, Any], ...]]] = []

    # ------------------------------------------------------------------
    def _install_crashes(self) -> None:
        for pid in range(self.n):
            t = self.crash_plan.crash_time(pid)
            if t <= self.horizon:
                runtime = self.runtimes[pid]

                def crash(rt: ProcessRuntime = runtime, when: float = t) -> None:
                    rt.crash()
                    self.trace.record(when, "crash", pid=rt.pid)

                self.sim.schedule_at(t, crash, kind="crash", pid=pid)

    def _sample(self) -> None:
        now = self.sim.now
        record = self.trace.record_leader_sample
        algorithms = self.algorithms
        for pid, runtime in enumerate(self.runtimes):
            if not runtime.crashed:
                record(now, pid, algorithms[pid].peek_leader())
        nxt = now + self.sample_interval
        if nxt <= self.horizon:
            self.sim.schedule_at(nxt, self._sample, kind="sample")

    def _snapshot(self) -> None:
        assert self.snapshot_interval is not None
        self.snapshots.append((self.sim.now, self.memory.snapshot()))
        nxt = self.sim.now + self.snapshot_interval
        if nxt <= self.horizon:
            self.sim.schedule_at(nxt, self._snapshot, kind="snapshot")

    # ------------------------------------------------------------------
    def execute(self, max_events: Optional[int] = None) -> RunResult:
        """Run to the horizon and return the result bundle."""
        self._install_crashes()
        if isinstance(self.memory, EmulatedMemory):
            # The emulated path leaves too few long-lived GC-tracked
            # objects to trigger full collections often, so the dead
            # cyclic graphs of earlier runs (memory <-> network <->
            # handler table) would pile up across cells and raise a
            # campaign's peak RSS; reclaim them first.
            gc.collect()
            # Seed the replicas from the (possibly scrambled) initial
            # register values and schedule replica crashes.
            self.memory.start(self.horizon)
        for runtime in self.runtimes:
            runtime.start()
        self.sim.schedule_at(0.0, self._sample, kind="sample")
        if self.snapshot_interval is not None:
            self.sim.schedule_at(0.0, self._snapshot, kind="snapshot")
        self.sim.run(until=self.horizon, max_events=max_events)
        # Final observer sample at the horizon.
        for pid, runtime in enumerate(self.runtimes):
            if not runtime.crashed:
                self.trace.record_leader_sample(
                    self.horizon, pid, self.algorithms[pid].peek_leader()
                )
        return RunResult(
            algorithm_name=self.algorithm_cls.display_name,
            n=self.n,
            horizon=self.horizon,
            seed=self.seed,
            trace=self.trace,
            memory=self.memory,
            sim=self.sim,
            crash_plan=self.crash_plan,
            algorithms=self.algorithms,
            timer_service=self.timer_service,
            disk=self.disk,
            snapshots=self.snapshots,
            memory_backend=self.memory_backend,
        )


__all__ = ["ProcessRuntime", "Run", "RunResult"]
