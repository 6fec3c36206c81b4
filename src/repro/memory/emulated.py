"""ABD-style quorum emulation of the paper's registers over messages.

The paper assumes 1WMR *regular* registers as a primitive.  Deployments
without physical shared memory (the cluster the paper's Section 1
motivates next to the SAN) must **emulate** those registers over
message passing.  This module implements the classic
Attiya-Bar-Noy-Dolev construction on top of :mod:`repro.netsim`:

* the register namespace is replicated across ``m`` replica nodes, each
  holding a ``(timestamp, value)`` pair per register;
* a **write** stamps the value with the writer's next timestamp,
  broadcasts it to every replica and completes on a majority of acks;
* a **read** queries every replica and completes on a majority of
  replies, returning the value with the largest timestamp.

Any two majorities intersect, so a read that starts after a write
completed sees it; a read concurrent with a write may return either
value -- exactly the *regular* register the paper requires (single
writer per register makes the read write-back phase of atomic ABD
unnecessary).  Multi-writer registers (the Section 3.5 variant) use
``(counter, pid)`` timestamps with a query phase before the write
phase; their ``fetch&add`` becomes the racy two-step
read-then-write emulation, which the variant is documented to tolerate
(lost increments only slow suspicion growth).

**Consistency levels** (``EmulationConfig.consistency``): the default
``"regular"`` level is the single-phase read above -- all the paper
needs.  The ``"atomic"`` level adds the classic ABD **write-back
phase**: before returning, a read propagates the ``(timestamp, value)``
it is about to return to a majority of replicas, which closes the
new/old-inversion window and upgrades the register to Lamport's
*atomic* level (both for the 1WMR registers and for the
``(counter, pid)``-stamped multi-writer path).  With the per-operation
history recorder on (``record_history``), the interval-order checkers
in :mod:`repro.memory.linearizability` audit the run: atomic histories
must be linearizable, regular histories must satisfy regularity --
and :mod:`repro.memory.anomaly` pins a deterministic schedule where
the two levels genuinely diverge.

The emulation tolerates crashes of **up to a minority** of replicas and
message loss (pending phases retransmit to unacked replicas every
``retry_interval``; the opt-in ``backoff`` retry policy swaps the
constant timer for jittered exponential backoff).  **Fault injection**
(``EmulationConfig.fault_plan``, a :mod:`repro.faults` timeline) adds
*transient* crashes: a recovering replica rejoins with amnesia and runs
a quorum **state-resync** -- merging ``(timestamp, value)`` snapshots
from a majority of the other replicas -- before serving reads again,
while partition/heal windows and message storms from the same plan
compile into a link-level overlay.  Link timing/loss is pluggable
through the :data:`LINK_MODELS` registry over the
:mod:`repro.netsim.network` behaviours -- including the PR 2
adversaries (GST ramps, fair loss).

**Dynamic membership** (``EmulationConfig.membership_plan``, a
:mod:`repro.memory.membership` timeline) removes the last frozen axis:
the replica set itself.  Each ``join``/``leave`` event opens a
RAMBO-style *two-config transition window*: the emulation holds both
the old :class:`~repro.memory.membership.ReplicaConfig` and the
proposed one, broadcasts every phase to the union of their members,
and requires every read/write quorum (including ABD write-backs and
amnesia resyncs) to intersect a **majority of both configs** -- reads
therefore take the max timestamp across both member sets.  After
``transfer_delay`` a **state-transfer round** collects snapshots from
a majority of the old config, pushes the merged state to the new
members, and -- once a majority of the new config acks -- *installs*
the new config and garbage-collects the old.  A joiner starts as an
amnesiac (it applies and acks writes but refuses reads) until the
transfer lands.  Overlapping events queue and transition one at a
time, so back-to-back reconfigurations are safe.  The
``"single-config"`` transition mode is the deliberately broken
negative control (old quorums only, no state transfer) that the
history audits must catch.

:class:`EmulatedMemory` subclasses
:class:`~repro.memory.memory.SharedMemory`: the namespace, the access
logs, the window queries and the no-log read fast path are all
inherited, so every theorem monitor, census and report in the repo
consumes emulated runs unchanged.  What changes is the *operation
semantics*: reads and writes become asynchronous phases, driven by the
process runtime (:mod:`repro.core.runner`), which blocks the issuing
process until its quorum completes -- operations are intervals, like
the SAN disk model, but realized by an actual replicated protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.faults.plan import FaultEvent, FaultPlan
from repro.memory.membership import (
    TRANSITION_MODES,
    MembershipEvent,
    MembershipPlan,
    ReplicaConfig,
)
from repro.memory.memory import SharedMemory
from repro.memory.mwmr import MultiWriterRegister
from repro.memory.register import AtomicRegister, OwnershipError
from repro.netsim.network import (
    ChannelBehavior,
    CorruptingLinks,
    DuplicatingLinks,
    FairLossyLinks,
    Message,
    Network,
    PartitionScheduleLinks,
    RampLinks,
    Route,
    SynchronousLinks,
    TimelyLinks,
)
from repro.sim.events import EventLane
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: Timestamp ordering is lexicographic on ``(counter, pid)``; the
#: initial replica state predates every real write.
_INITIAL_TS: Tuple[int, int] = (0, -1)

#: The consistency levels the emulation can provide (Lamport's
#: hierarchy): ``regular`` is the single-phase read the paper needs,
#: ``atomic`` adds the ABD write-back phase to every read.
CONSISTENCY_LEVELS: Tuple[str, ...] = ("regular", "atomic")

#: Retransmission policies for pending quorum phases: ``fixed`` -- the
#: original constant ``retry_interval`` timer (draws no randomness, so
#: default-config runs stay byte-identical across releases) -- and
#: ``backoff`` -- exponential backoff doubling from ``retry_interval``
#: up to ``retry_cap``, with multiplicative sim-RNG jitter to break
#: retransmission synchrony under congestion.
RETRY_POLICIES: Tuple[str, ...] = ("fixed", "backoff")


@dataclass(frozen=True, slots=True)
class EmuOpRecord:
    """One completed (or still-pending) emulated operation.

    The interval shape mirrors :class:`~repro.memory.disk.DiskOpRecord`
    -- invocation and response times plus the identity of the value
    involved -- but the value identity is the protocol's own
    ``(counter, pid)`` timestamp instead of a disk-side version counter
    (timestamps also cover the multi-writer path, where per-register
    version numbers are not unique).  ``ts`` is the timestamp the
    operation wrote, or the one whose value a read returned;
    :data:`_INITIAL_TS` denotes the pre-run initial value.  A write
    still in flight when the run ends is reported with
    ``resp = math.inf`` (invoked, never responded).
    """

    op_id: int
    kind: str  # "read" | "write"
    pid: int
    register: str
    ts: Tuple[int, int]
    value: Any
    inv: float
    resp: float


def _make_links(name: str, rng: RngRegistry, params: Mapping[str, Any]) -> ChannelBehavior:
    """Instantiate a link model by registry name with keyword ``params``."""
    try:
        factory = LINK_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown emulation link model {name!r}; choose from {sorted(LINK_MODELS)}"
        ) from None
    return factory(rng, dict(params))


#: Link-model name -> ``(rng, params) -> ChannelBehavior`` factory.
#: ``sync`` draws no randomness at all, which is what makes the
#: backend-equivalence tests exact; the others re-use the netsim
#: behaviours (``gst-ramp`` is the PR 2 adversary ported to links).
#: ``corruption`` and ``duplication`` are the mutating-fault adversaries
#: over synchronous timing (``delta`` plus a mutation ``rate``): the
#: emulation must *survive* duplication (timestamp application is
#: idempotent) but is expected to *fail* the Theorem 1 audit under
#: value corruption -- the negative-scenario family.
LINK_MODELS: Dict[str, Callable[[RngRegistry, Dict[str, Any]], ChannelBehavior]] = {
    "sync": lambda rng, p: SynchronousLinks(**p),
    "timely": lambda rng, p: TimelyLinks(rng, **p),
    "lossy": lambda rng, p: FairLossyLinks(rng, **p),
    "gst-ramp": lambda rng, p: RampLinks(rng, **p),
    "corruption": lambda rng, p: CorruptingLinks(
        SynchronousLinks(p.pop("delta", 0.25)), rng, **p
    ),
    "duplication": lambda rng, p: DuplicatingLinks(
        SynchronousLinks(p.pop("delta", 0.25)), rng, **p
    ),
    # The fault-injection overlay on synchronous timing: scheduled
    # partition/heal windows and message storms (repro.faults plans
    # compile their link-level faults into exactly this model).
    "partition-schedule": lambda rng, p: PartitionScheduleLinks(
        SynchronousLinks(p.pop("delta", 0.25)), **p
    ),
}


@dataclass(frozen=True)
class EmulationConfig:
    """Plain-data knobs of one register emulation.

    Every field is JSON-serializable (ints, floats, strings, flat
    dicts), so configs travel inside scenario-factory kwargs through
    the parallel engine's content-hashed specs.

    Parameters
    ----------
    replicas:
        Number of replica nodes holding the register copies; quorums
        are majorities, so the emulation tolerates
        ``(replicas - 1) // 2`` replica crashes.
    links:
        Link-model name from :data:`LINK_MODELS`.
    link_params:
        Keyword arguments for the link model (e.g. ``{"delta": 0.25}``
        for ``sync``, ``{"loss": 0.1}`` for ``lossy``).
    retry_interval:
        Retransmission period for pending phases (loss tolerance; with
        loss-free link models the retransmit timers arm but never win).
    retry_policy:
        Retransmission policy (:data:`RETRY_POLICIES`): ``"fixed"`` --
        the constant-interval timer, the default, drawing no randomness
        -- or ``"backoff"`` -- exponential backoff doubling from
        ``retry_interval`` up to ``retry_cap`` with multiplicative
        sim-RNG jitter (``retry_jitter``).
    retry_cap:
        Upper bound on the backoff delay (pre-jitter); ignored by the
        fixed policy.
    retry_jitter:
        Jitter fraction of the backoff policy: each armed delay is
        scaled by a uniform draw from ``[1, 1 + retry_jitter]`` out of
        the run's seeded RNG registry.  The fixed policy draws nothing.
    replica_crash_times:
        ``{replica index: crash time}`` -- *permanent* crash-stop for
        replicas.  Must leave a majority alive or quorums become
        unreachable.  Transient crashes belong in ``fault_plan``.
    fault_plan:
        A :class:`repro.faults.plan.FaultPlan` timeline (as a tuple of
        :class:`~repro.faults.plan.FaultEvent`): transient replica
        crashes with recover-and-resync, partition/heal windows and
        message storms.  Crash/recover pairs are applied by
        :meth:`EmulatedMemory.start`; partition and storm windows are
        compiled into a
        :class:`~repro.netsim.network.PartitionScheduleLinks` overlay
        on the configured link model.
    resync:
        Whether a recovering replica runs the quorum state-resync
        before serving reads again (the correct protocol, default).
        ``False`` is the *deliberately broken* mode for negative tests:
        a recovered replica serves straight out of amnesia, which the
        history audit is expected to catch (and ``repro chaos`` to
        shrink).
    membership_plan:
        A :class:`repro.memory.membership.MembershipPlan` timeline (as
        a tuple of :class:`~repro.memory.membership.MembershipEvent`):
        operator-style ``join``/``leave`` transitions of the replica
        member set.  Each event opens a two-config transition window
        (quorums intersect majorities of both configs) that a
        state-transfer round closes by installing the new
        :class:`~repro.memory.membership.ReplicaConfig`.  Joins extend
        the replica array, so they must carry sequential fresh indices.
    transfer_delay:
        How long a transition window stays open before the
        state-transfer round starts.  The window is where the
        dual-quorum discipline is exercised (and what the
        ``EMU_membership`` bench prices), so it is a real knob, not an
        implementation detail.
    transition:
        Transition-window discipline
        (:data:`repro.memory.membership.TRANSITION_MODES`):
        ``"dual-quorum"`` -- the correct RAMBO-style mode, the default
        -- or ``"single-config"`` -- the *deliberately broken* negative
        control where window quorums consult the old config only and
        the install skips the state transfer, which the history audit
        is expected to catch (and ``repro fuzz`` to shrink).
    consistency:
        Consistency level of the emulated registers
        (:data:`CONSISTENCY_LEVELS`): ``"regular"`` -- single-phase
        reads, all the paper needs -- or ``"atomic"`` -- every read
        runs a second write-back phase propagating the returned
        ``(timestamp, value)`` to a majority before responding.
    record_history:
        Keep the per-operation interval history
        (:class:`EmuOpRecord`) so the run can be audited by the
        interval-order checkers in
        :mod:`repro.memory.linearizability`.  Off by default: the
        recorder is observability, not protocol, and perf profiles
        must not pay for it.
    """

    replicas: int = 3
    links: str = "sync"
    link_params: Tuple[Tuple[str, Any], ...] = ()
    retry_interval: float = 20.0
    retry_policy: str = "fixed"
    retry_cap: float = 160.0
    retry_jitter: float = 0.25
    replica_crash_times: Tuple[Tuple[int, float], ...] = ()
    fault_plan: Tuple[FaultEvent, ...] = ()
    resync: bool = True
    membership_plan: Tuple[MembershipEvent, ...] = ()
    transfer_delay: float = 150.0
    transition: str = "dual-quorum"
    consistency: str = "regular"
    record_history: bool = False

    def __post_init__(self) -> None:
        if self.replicas < 2:
            raise ValueError("need at least two replicas for a meaningful quorum")
        if self.links not in LINK_MODELS:
            raise ValueError(
                f"unknown link model {self.links!r}; choose from {sorted(LINK_MODELS)}"
            )
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency level {self.consistency!r}; "
                f"choose from {list(CONSISTENCY_LEVELS)}"
            )
        if self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        if self.retry_policy not in RETRY_POLICIES:
            raise ValueError(
                f"unknown retry policy {self.retry_policy!r}; "
                f"choose from {list(RETRY_POLICIES)}"
            )
        # The cap is inert under "fixed" (no backoff ever reaches it),
        # so only the backoff policy constrains it against the interval.
        if self.retry_policy == "backoff" and self.retry_cap < self.retry_interval:
            raise ValueError("retry_cap must be at least retry_interval")
        if not 0 <= self.retry_jitter < 1:
            raise ValueError("retry_jitter must be in [0, 1)")
        FaultPlan(self.fault_plan).validate(self.replicas)
        plan = MembershipPlan(self.membership_plan)
        plan.validate(self.replicas)
        if self.transition not in TRANSITION_MODES:
            raise ValueError(
                f"unknown transition mode {self.transition!r}; "
                f"choose from {list(TRANSITION_MODES)}"
            )
        if self.transfer_delay <= 0:
            raise ValueError("transfer_delay must be positive")
        crashes = dict(self.replica_crash_times)
        max_index = plan.max_replica_index(self.replicas)
        join_times = {ev.replica: ev.at for ev in plan if ev.kind == "join"}
        for idx, t in crashes.items():
            if not 0 <= idx < max_index:
                raise ValueError(f"replica index {idx} out of range for {max_index}")
            if t < 0:
                raise ValueError(f"negative crash time {t} for replica {idx}")
            if idx >= self.replicas and t < join_times[idx]:
                raise ValueError(
                    f"replica {idx} crashes at t={t} before it joins at "
                    f"t={join_times[idx]}"
                )
        if not self.membership_plan:
            if len(crashes) > (self.replicas - 1) // 2:
                raise ValueError(
                    f"crashing {len(crashes)} of {self.replicas} replicas leaves no "
                    "majority; the emulation tolerates only a minority of crashes"
                )
        else:
            self._validate_crash_liveness(plan, crashes)

    def _validate_crash_liveness(
        self, plan: MembershipPlan, crashes: Dict[int, float]
    ) -> None:
        """Walk membership and crash timelines together: at every step
        the *current* member set must keep a live majority, or quorums
        (and the transitions themselves) become unreachable.  Transient
        fault-plan crashes are exempt, as for the static-membership
        check -- campaigns may probe stalls."""
        timeline: List[Tuple[float, int, str, int]] = [
            (ev.at, 0, ev.kind, ev.replica) for ev in plan
        ]
        timeline.extend((t, 1, "crash", idx) for idx, t in crashes.items())
        members: Set[int] = set(range(self.replicas))
        crashed: Set[int] = set()
        for at, _, kind, idx in sorted(timeline):
            if kind == "join":
                members.add(idx)
            elif kind == "leave":
                members.discard(idx)
            else:
                crashed.add(idx)
            if len(members & crashed) > (len(members) - 1) // 2:
                raise ValueError(
                    f"at t={at} the member set {sorted(members)} has no live "
                    "majority; membership plans must keep a quorum alive"
                )

    @property
    def majority(self) -> int:
        """Quorum size: any two majorities intersect."""
        return self.replicas // 2 + 1

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The plain-dict form (scenario kwargs, JSON payloads)."""
        return {
            "replicas": self.replicas,
            "links": self.links,
            "link_params": dict(self.link_params),
            "retry_interval": self.retry_interval,
            "retry_policy": self.retry_policy,
            "retry_cap": self.retry_cap,
            "retry_jitter": self.retry_jitter,
            "replica_crash_times": {str(i): t for i, t in self.replica_crash_times},
            "fault_plan": [ev.to_jsonable() for ev in self.fault_plan],
            "resync": self.resync,
            "membership_plan": [ev.to_jsonable() for ev in self.membership_plan],
            "transfer_delay": self.transfer_delay,
            "transition": self.transition,
            "consistency": self.consistency,
            "record_history": self.record_history,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EmulationConfig":
        """Build a config from the plain-dict form (inverse of
        :meth:`to_dict`; JSON string keys are re-intified)."""
        data = dict(payload)
        unknown = set(data) - {
            "replicas",
            "links",
            "link_params",
            "retry_interval",
            "retry_policy",
            "retry_cap",
            "retry_jitter",
            "replica_crash_times",
            "fault_plan",
            "resync",
            "membership_plan",
            "transfer_delay",
            "transition",
            "consistency",
            "record_history",
        }
        if unknown:
            raise ValueError(f"unknown emulation option(s): {sorted(unknown)}")
        crashes = data.get("replica_crash_times") or {}
        return cls(
            replicas=int(data.get("replicas", 3)),
            links=str(data.get("links", "sync")),
            link_params=tuple(sorted((data.get("link_params") or {}).items())),
            retry_interval=float(data.get("retry_interval", 20.0)),
            retry_policy=str(data.get("retry_policy", "fixed")),
            retry_cap=float(data.get("retry_cap", 160.0)),
            retry_jitter=float(data.get("retry_jitter", 0.25)),
            replica_crash_times=tuple(
                sorted((int(i), float(t)) for i, t in dict(crashes).items())
            ),
            fault_plan=tuple(
                FaultEvent.from_jsonable(ev) for ev in data.get("fault_plan") or ()
            ),
            resync=bool(data.get("resync", True)),
            membership_plan=tuple(
                MembershipEvent.from_jsonable(ev)
                for ev in data.get("membership_plan") or ()
            ),
            transfer_delay=float(data.get("transfer_delay", 150.0)),
            transition=str(data.get("transition", "dual-quorum")),
            consistency=str(data.get("consistency", "regular")),
            record_history=bool(data.get("record_history", False)),
        )


class ReplicaNode:
    """One replica: a ``{register: (timestamp, value)}`` store.

    Replicas are passive state machines -- they never initiate traffic,
    only answer queries and apply timestamped writes (monotonically:
    an older write arriving late never regresses the stored value).
    A crashed replica silently drops everything; a *recovering* replica
    (post-crash amnesia, pre-resync) applies and acks writes -- the
    timestamps make that safe -- but refuses to serve reads or to
    certify another replica's resync until its own quorum state-resync
    completes (the ``abd.sync`` round driven by
    :class:`EmulatedMemory`).  The per-kind message handlers live on
    :class:`EmulatedMemory` (``_replica_*``), so a delivery is one
    handler call.
    """

    __slots__ = (
        "index",
        "node_id",
        "store",
        "crashed",
        "recovering",
        "writes_applied",
        "reads_served",
    )

    def __init__(self, index: int, initial: Dict[str, Tuple[Tuple[int, int], Any]]) -> None:
        self.index = index
        #: The replica's address on the emulation network: clients use
        #: their non-negative pid, so replicas live on the negative axis.
        self.node_id = -(index + 1)
        self.store: Dict[str, Tuple[Tuple[int, int], Any]] = dict(initial)
        self.crashed = False
        self.recovering = False
        self.writes_applied = 0
        self.reads_served = 0


class _PendingOp:
    """One in-flight quorum operation of one client process."""

    __slots__ = (
        "op_id",
        "pid",
        "register",
        "kind",
        "phase",
        "ts",
        "value",
        "amount",
        "replies",
        "best_ts",
        "best_value",
        "callback",
        "retry_token",
        "attempts",
        "started_at",
    )

    def __init__(
        self,
        op_id: int,
        pid: int,
        register: Any,
        kind: str,
        callback: Callable[[Any], None],
        started_at: float,
    ) -> None:
        self.op_id = op_id
        self.pid = pid
        self.register = register
        self.kind = kind  # "read" | "write" | "mwmr-write" | "fetch-add"
        self.phase = ""  # "query" | "write"
        self.ts: Tuple[int, int] = _INITIAL_TS
        self.value: Any = None
        self.amount = 0
        self.replies: Set[int] = set()
        self.best_ts: Tuple[int, int] = _INITIAL_TS
        self.best_value: Any = None
        self.callback = callback
        # Lane token of the armed retransmission timer (0 is a live
        # token: test ``is None``, never truthiness).
        self.retry_token: Optional[int] = None
        self.attempts = 0  # retransmission rounds fired (backoff exponent)
        self.started_at = started_at


class _ResyncState:
    """One in-flight recovery state-resync of one replica.

    The recovering replica broadcasts ``abd.sync`` and merges the
    ``(timestamp, value)`` snapshots it gets back; it rejoins read
    service once a majority of the *other* replicas replied.  Counting
    the recovering node itself toward its own quorum would be unsound
    (its state is amnesia), and a majority drawn from the others is
    what guarantees intersection with every completed write's quorum in
    at least one non-amnesiac replica.
    """

    __slots__ = ("sync_id", "node", "replies", "merged", "retry_handle", "done")

    def __init__(self, sync_id: int, node: ReplicaNode) -> None:
        self.sync_id = sync_id
        self.node = node
        self.replies: Set[int] = set()
        self.merged: Dict[str, Tuple[Tuple[int, int], Any]] = {}
        self.retry_handle = None
        self.done = False


class _TransferState:
    """One in-flight membership state-transfer round.

    Two phases: ``collect`` gathers ``(timestamp, value)`` snapshots
    (``abd.sync`` rounds, like a resync) from a majority of the **old**
    config -- which intersects every completed write's quorum, both the
    pre-window writes and the dual-quorum window writes -- then
    ``install`` pushes the merged state (``abd.transfer``) to every
    member of the **new** config and installs it once a majority of the
    new config acks.  Both phases retransmit to the targets yet to
    reply.
    """

    __slots__ = (
        "transfer_id",
        "coordinator",
        "phase",
        "replies",
        "acks",
        "merged",
        "retry_handle",
        "done",
    )

    def __init__(self, transfer_id: int) -> None:
        self.transfer_id = transfer_id
        self.coordinator = 0  # wire address the round's replies route to
        self.phase = "collect"  # "collect" | "install"
        self.replies: Set[int] = set()
        self.acks: Set[int] = set()
        self.merged: Dict[str, Tuple[Tuple[int, int], Any]] = {}
        self.retry_handle = None
        self.done = False


class EmulatedMemory(SharedMemory):
    """1WMR regular registers emulated by an ABD replica quorum.

    Drop-in :class:`~repro.memory.backend.MemoryBackend`: the namespace,
    access logs, censuses and snapshots are inherited from
    :class:`SharedMemory`.  The local register objects act as the
    *completed-state mirror* -- a register's local value is updated at
    the instant its write's quorum completes, so uncounted observer
    reads (``peek``, leader sampling, snapshots) and the write log see
    exactly the completed prefix of the emulated history.

    The asynchronous operation API (:meth:`emu_read`,
    :meth:`emu_write`, :meth:`emu_fetch_add`) is driven by
    :class:`~repro.core.runner.ProcessRuntime`, which blocks the issuing
    process until the completion callback fires.  :meth:`start` must
    run once at execution start (after scenario scrambling) to seed the
    replicas and schedule their crashes; ``Run.execute`` does this.

    Parameters
    ----------
    clock / log_reads:
        As for :class:`SharedMemory` (the read fast path is inherited).
    sim:
        The run's simulator; all protocol messages ride its event queue.
    rng:
        The run's RNG registry; link models draw per-link streams from
        it (the ``sync`` model draws nothing, keeping emulated runs
        stream-identical to shared-memory runs of the same seed).
    config:
        The :class:`EmulationConfig` knobs.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        sim: Simulator,
        rng: RngRegistry,
        config: Optional[EmulationConfig] = None,
        log_reads: bool = True,
    ) -> None:
        super().__init__(clock, log_reads=log_reads)
        self.config = config or EmulationConfig()
        self._sim = sim
        self._rng = rng
        self.network = Network(
            sim, _make_links(self.config.links, rng, dict(self.config.link_params))
        )
        # The per-kind handler table: each delivery is one call into
        # the handler for its kind.  Sync replies and transfer acks
        # address a replica but drive round state machines held here.
        routes: Dict[str, Route] = {
            "abd.read": self._replica_read,
            "abd.write": self._replica_write,
            "abd.sync": self._replica_sync,
            "abd.transfer": self._replica_transfer,
            "abd.read-reply": self._on_read_reply,
            "abd.write-ack": self._on_write_ack,
            "abd.sync-reply": self._on_sync_reply,
            "abd.transfer-ack": self._on_transfer_ack,
        }
        for kind, handler in routes.items():
            self.network.install_route(kind, handler)
        # Per-operation retransmission timers: cancelled on nearly every
        # completion, so they ride a columnar lane (payload: the op).
        self._retry_lane = EventLane("abd-retry", self._retry_op)
        self.replicas: List[ReplicaNode] = []
        self._initial: Dict[str, Tuple[Tuple[int, int], Any]] = {}
        self._write_counters: Dict[str, int] = {}
        self._ops: Dict[int, _PendingOp] = {}
        self._op_counter = 0
        self._sync_counter = 0
        self._resyncs: Dict[int, _ResyncState] = {}
        self._started = False
        # Membership state: the installed config, the proposed config of
        # an open transition window (None outside windows), the queue of
        # events waiting for the current transition to install, and the
        # in-flight state-transfer round.  ``_static_membership`` keeps
        # the quorum predicate on the two-int fast path for plans-free
        # runs (the overwhelmingly common case, and the byte-identity
        # contract with pre-membership releases).
        self.current_config = ReplicaConfig(0, tuple(range(self.config.replicas)))
        self.next_config: Optional[ReplicaConfig] = None
        self._static_membership = not self.config.membership_plan
        self._cur_members = self.current_config.member_set
        self._cur_majority = self.current_config.majority
        self._new_members = frozenset()
        self._new_majority = 0
        self._pending_membership: List[MembershipEvent] = []
        self._transfers: Dict[int, _TransferState] = {}
        self._serving: List[ReplicaNode] = []
        # Protocol statistics (per-run observability; see RunSummary).
        self.reads_completed = 0
        self.writes_completed = 0
        self.retransmissions = 0
        #: Transient replica recoveries applied from the fault plan.
        self.recoveries = 0
        #: Quorum state-resyncs completed by recovering replicas.
        self.resyncs = 0
        self.total_op_latency = 0.0
        #: Latency accumulated by read operations alone -- at the atomic
        #: consistency level this includes the write-back phase, which
        #: is exactly what the ``EMU_atomic`` bench prices.
        self.read_op_latency = 0.0
        #: Write-back phases run by atomic reads (0 at the regular level).
        self.write_backs = 0
        #: Write-acks whose echoed value disagreed with the value the
        #: write phase sent: on-the-wire value corruption caught by the
        #: quorum-certificate cross-check (one count per replica per
        #: phase; 0 on loss-free and corruption-free fabrics).
        self.integrity_violations = 0
        #: Reconfigurations installed (one per membership event whose
        #: transition window closed before the horizon).
        self.configs_installed = 0
        #: Operations completed while a dual-quorum transition window
        #: was open -- the ops that paid the two-config intersection
        #: discipline (0 in the broken ``single-config`` mode).
        self.dual_quorum_ops = 0
        #: Membership state-transfer rounds completed (collect + push).
        self.transfer_rounds = 0
        #: Completed-operation interval records (empty unless
        #: ``config.record_history``); see :meth:`recorded_history`.
        self.op_history: List[EmuOpRecord] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, horizon: float) -> None:
        """Seed the replicas and schedule their crashes (run once).

        Called by ``Run.execute`` after layout creation and scenario
        scrambling, so replicas start from the registers' *actual*
        initial values (footnote 7's arbitrary-initial-value scenarios
        included).
        """
        if self._started:
            raise RuntimeError("emulation already started")
        self._started = True
        for reg in self.all_registers():
            self._initial[reg.name] = (_INITIAL_TS, reg.peek())
        self.replicas = [
            ReplicaNode(i, self._initial) for i in range(self.config.replicas)
        ]
        self._serving = list(self.replicas)
        for idx, t in self.config.replica_crash_times:
            if t <= horizon:
                if idx < len(self.replicas):
                    replica = self.replicas[idx]

                    def crash(node: ReplicaNode = replica) -> None:
                        self._crash_replica(node)

                    self._sim.schedule_at(t, crash, kind="replica-crash")
                else:
                    # A joiner's crash: the node does not exist yet, so
                    # resolve the index at fire time (config validation
                    # guarantees the join precedes the crash).
                    def crash_joiner(i: int = idx) -> None:
                        if i < len(self.replicas):
                            self._crash_replica(self.replicas[i])

                    self._sim.schedule_at(t, crash_joiner, kind="replica-crash")
        for ev in MembershipPlan(self.config.membership_plan):
            if ev.at > horizon:
                continue

            def fire(event: MembershipEvent = ev) -> None:
                self._on_membership_event(event)

            self._sim.schedule_at(ev.at, fire, kind="membership-event")
        self._apply_fault_plan(horizon)

    def _apply_fault_plan(self, horizon: float) -> None:
        """Arm the config's fault plan: replica events become scheduled
        closures; partition and storm windows compile into a
        :class:`~repro.netsim.network.PartitionScheduleLinks` overlay
        wrapping the configured link behaviour."""
        plan = FaultPlan(self.config.fault_plan)
        if not plan.events:
            return
        for ev in plan:
            if ev.at > horizon:
                continue
            if ev.kind == "replica-crash":
                replica = self.replicas[ev.replica]

                def crash(node: ReplicaNode = replica) -> None:
                    self._crash_replica(node)

                self._sim.schedule_at(ev.at, crash, kind="replica-crash")
            elif ev.kind == "replica-recover":
                replica = self.replicas[ev.replica]

                def recover(node: ReplicaNode = replica) -> None:
                    self._begin_recovery(node)

                self._sim.schedule_at(ev.at, recover, kind="replica-recover")
        partitions = plan.partition_windows(horizon)
        storms = plan.storm_windows(horizon)
        if partitions or storms:
            self.network.behavior = PartitionScheduleLinks(
                self.network.behavior, partitions=partitions, storms=storms
            )

    def _initial_of(self, name: str) -> Tuple[Tuple[int, int], Any]:
        """A register's seeded replica state (for post-start lookups)."""
        return self._initial.get(name, (_INITIAL_TS, 0))

    # ------------------------------------------------------------------
    # Crash, recovery and state-resync
    # ------------------------------------------------------------------
    def _crash_replica(self, node: ReplicaNode) -> None:
        """Crash ``node`` now, abandoning any resync it was running."""
        node.crashed = True
        node.recovering = False
        for sync_id, state in list(self._resyncs.items()):
            if state.node is node:
                state.done = True
                if state.retry_handle is not None:
                    state.retry_handle.cancel()
                del self._resyncs[sync_id]

    def _begin_recovery(self, node: ReplicaNode) -> None:
        """Recover ``node`` with amnesia; resync before serving reads.

        The crash wiped the replica's volatile store, so it restarts
        from *nothing* (not even the seeded initial values -- stale
        initial state is exactly the bug the resync exists to prevent).
        Under ``config.resync`` it applies and acks writes but refuses
        reads until :meth:`_on_sync_reply` merges a majority of the
        other replicas' snapshots; with ``resync=False`` (the broken
        mode for negative tests) it serves immediately out of amnesia.
        """
        if not node.crashed:
            return  # recover of a live replica is a no-op
        node.crashed = False
        node.store.clear()
        self.recoveries += 1
        if self.config.resync:
            node.recovering = True
            self._start_resync(node)

    def _start_resync(self, node: ReplicaNode) -> None:
        """Open a sync round for ``node`` (with retransmission)."""
        self._sync_counter += 1
        state = _ResyncState(self._sync_counter, node)
        self._resyncs[state.sync_id] = state

        def retry() -> None:
            if state.done:
                return
            self.retransmissions += 1
            self._broadcast_sync(state)
            state.retry_handle = self._sim.schedule_after_cancellable(
                self.config.retry_interval, retry, kind="abd-resync-retry", pid=node.node_id
            )

        self._broadcast_sync(state)
        state.retry_handle = self._sim.schedule_after_cancellable(
            self.config.retry_interval, retry, kind="abd-resync-retry", pid=node.node_id
        )

    def _broadcast_sync(self, state: _ResyncState) -> None:
        """(Re-)request snapshots from the replicas yet to reply.

        Targets are the *serving* set -- the installed config, or the
        union of both configs during a transition window -- so a resync
        racing a reconfiguration certifies against the same replicas
        quorum operations run against.
        """
        for replica in self._serving:
            if replica.index == state.node.index or replica.index in state.replies:
                continue
            self.network.send(
                state.node.node_id, replica.node_id, "abd.sync", (state.sync_id,)
            )

    def _on_sync_reply(self, message: Message) -> None:
        """Merge one snapshot; rejoin service on a majority of others.

        ``abd.sync`` rounds are shared with the membership state
        transfer (same snapshot request, same reply kind), so replies
        that belong to a transfer round route there by id.
        """
        sync_id, entries = message.payload
        state = self._resyncs.get(sync_id)
        if state is None:
            transfer = self._transfers.get(sync_id)
            if transfer is not None:
                self._on_transfer_snapshot(transfer, message)
            return  # else: late reply of an abandoned or completed round
        if state.done:
            return
        replica_index = -message.sender - 1
        if replica_index in state.replies:
            return
        state.replies.add(replica_index)
        for name, (ts, value) in entries:
            current = state.merged.get(name)
            if current is None or ts > current[0]:
                state.merged[name] = (ts, value)
        # A majority drawn from the OTHER replicas (the recovering
        # node's own state is amnesia, so counting itself would be
        # unsound): |replies| + |any completed write's quorum| exceeds
        # the replica count, so the merge sees every completed write
        # through at least one non-amnesiac holder.  Capped at the
        # other-replica count so the two-replica emulation (where the
        # single other replica holds every completed write) can finish.
        if not self._resync_quorum_met(state):
            return
        state.done = True
        if state.retry_handle is not None:
            state.retry_handle.cancel()
        del self._resyncs[sync_id]
        node = state.node
        # Merge without regressing writes the node already applied
        # while recovering (the timestamps arbitrate, as everywhere).
        for name, (ts, value) in state.merged.items():
            current = node.store.get(name)
            if current is None or ts > current[0]:
                node.store[name] = (ts, value)
        node.recovering = False
        self.resyncs += 1

    def _resync_quorum_met(self, state: _ResyncState) -> bool:
        """Completion predicate of a recovery resync.

        Static membership keeps the original count; under membership
        the certifying majority is drawn from the *current* config's
        other members -- and from the new config's too during a
        dual-quorum window, so a resync completing mid-transition is
        certified against both member sets its future readers may
        quorum with.
        """
        if self._static_membership:
            return len(state.replies) >= min(self.config.majority, len(self.replicas) - 1)
        node_index = state.node.index
        others = self._cur_members - {node_index}
        if len(state.replies & others) < min(self._cur_majority, len(others)):
            return False
        if self.next_config is None or self.config.transition == "single-config":
            return True
        new_others = self._new_members - {node_index}
        return len(state.replies & new_others) >= min(self._new_majority, len(new_others))

    @property
    def live_replicas(self) -> int:
        """Replicas that have not crashed yet."""
        return sum(1 for r in self.replicas if not r.crashed)

    # ------------------------------------------------------------------
    # Dynamic membership: transitions, dual quorums, state transfer
    # ------------------------------------------------------------------
    def _on_membership_event(self, event: MembershipEvent) -> None:
        """Queue one operator join/leave; transitions run one at a time."""
        self._pending_membership.append(event)
        self._maybe_begin_transition()

    def _maybe_begin_transition(self) -> None:
        """Open the next transition window, if none is in flight.

        A join creates the new replica node *now*, as an amnesiac (it
        applies and acks window writes -- timestamps make that safe --
        but refuses reads until the state transfer lands); a leave only
        shrinks the proposed member set, the node itself stays up so
        late window quorums can still count it.  The state transfer is
        scheduled ``transfer_delay`` later, which is how long the
        dual-quorum window stays open.
        """
        if self.next_config is not None or not self._pending_membership:
            return
        event = self._pending_membership.pop(0)
        members = set(self.current_config.members)
        if event.kind == "join":
            while len(self.replicas) <= event.replica:
                node = ReplicaNode(len(self.replicas), {})
                node.recovering = True
                self.replicas.append(node)
            members.add(event.replica)
        else:
            members.discard(event.replica)
        self.next_config = ReplicaConfig(
            self.current_config.config_id + 1, tuple(sorted(members))
        )
        self._refresh_quorum_state()
        expected = self.next_config.config_id

        def begin(config_id: int = expected) -> None:
            if self.next_config is not None and self.next_config.config_id == config_id:
                self._begin_transfer()

        self._sim.schedule_after(
            self.config.transfer_delay, begin, kind="membership-transfer"
        )

    def _refresh_quorum_state(self) -> None:
        """Recompute the cached member sets and the broadcast targets.

        Outside a window the serving set is the installed config; during
        a dual-quorum window it is the **union** of both configs (reads
        take the max timestamp across both, writes ack in both).  The
        broken ``single-config`` mode keeps broadcasting to the old
        config only -- the writer pretends the new config does not exist
        yet, which is exactly the bug the negative control pins.
        """
        self._cur_members = self.current_config.member_set
        self._cur_majority = self.current_config.majority
        nxt = self.next_config
        if nxt is None:
            self._new_members = frozenset()
            self._new_majority = 0
            serving: Tuple[int, ...] = self.current_config.members
        else:
            self._new_members = nxt.member_set
            self._new_majority = nxt.majority
            if self.config.transition == "single-config":
                serving = self.current_config.members
            else:
                serving = tuple(sorted(self._cur_members | self._new_members))
        self._serving = [self.replicas[i] for i in serving]

    def _quorum_met(self, replies: Set[int]) -> bool:
        """The completion predicate of every quorum phase.

        Static membership keeps the original two-int comparison (the
        hot path, and the byte-identity contract).  During a dual-quorum
        transition window a phase completes only when its replies
        contain a majority of **both** the old and the new config --
        any quorum drawn from either adjacent config intersects it, so
        reads see every completed write and writes survive the install.
        """
        if self._static_membership:
            return len(replies) >= self.config.majority
        if len(replies & self._cur_members) < self._cur_majority:
            return False
        if self.next_config is None or self.config.transition == "single-config":
            return True
        return len(replies & self._new_members) >= self._new_majority

    def _begin_transfer(self) -> None:
        """Close the window: state-transfer round, then install."""
        nxt = self.next_config
        if nxt is None:
            return
        if self.config.transition == "single-config":
            # BROKEN negative control: install without a state transfer.
            # Joiners start serving reads out of whatever they happened
            # to overhear -- for any register not rewritten since the
            # join that is the seeded initial value, which the history
            # audit must flag the moment a quorum is all-joiners.
            for idx in nxt.members:
                node = self.replicas[idx]
                if node.recovering:
                    node.recovering = False
            self._install_config()
            return
        self._sync_counter += 1
        state = _TransferState(self._sync_counter)
        state.coordinator = -(min(nxt.members) + 1)
        self._transfers[state.transfer_id] = state

        def retry() -> None:
            if state.done:
                return
            self.retransmissions += 1
            self._broadcast_transfer(state)
            state.retry_handle = self._sim.schedule_after_cancellable(
                self.config.retry_interval,
                retry,
                kind="abd-transfer-retry",
                pid=state.coordinator,
            )

        self._broadcast_transfer(state)
        state.retry_handle = self._sim.schedule_after_cancellable(
            self.config.retry_interval,
            retry,
            kind="abd-transfer-retry",
            pid=state.coordinator,
        )

    def _broadcast_transfer(self, state: _TransferState) -> None:
        """(Re-)send the transfer's current phase to unreplied targets."""
        if state.phase == "collect":
            for idx in self.current_config.members:
                if idx in state.replies:
                    continue
                self.network.send(
                    state.coordinator, -(idx + 1), "abd.sync", (state.transfer_id,)
                )
        else:
            entries = tuple(sorted(state.merged.items()))
            nxt = self.next_config
            for idx in nxt.members if nxt is not None else ():
                if idx in state.acks:
                    continue
                self.network.send(
                    state.coordinator,
                    -(idx + 1),
                    "abd.transfer",
                    (state.transfer_id, entries),
                )

    def _on_transfer_snapshot(self, state: _TransferState, message: Message) -> None:
        """Merge one old-config snapshot; push once a majority replied."""
        if state.done or state.phase != "collect":
            return
        _, entries = message.payload
        replica_index = -message.sender - 1
        if replica_index in state.replies:
            return
        state.replies.add(replica_index)
        for name, (ts, value) in entries:
            current = state.merged.get(name)
            if current is None or ts > current[0]:
                state.merged[name] = (ts, value)
        # A majority of the OLD config intersects every completed
        # write's quorum (pre-window writes by old-majority quorums,
        # window writes because dual quorums contain an old majority),
        # so the merge holds the freshest completed state.
        if len(state.replies & self._cur_members) < self._cur_majority:
            return
        state.phase = "install"
        self._broadcast_transfer(state)

    def _on_transfer_ack(self, message: Message) -> None:
        """Count one install ack; install on a majority of the new config."""
        transfer_id = message.payload[0]
        state = self._transfers.get(transfer_id)
        if state is None or state.done or state.phase != "install":
            return
        replica_index = -message.sender - 1
        if replica_index in state.acks:
            return
        state.acks.add(replica_index)
        nxt = self.next_config
        if nxt is None or len(state.acks & nxt.member_set) < nxt.majority:
            return
        state.done = True
        if state.retry_handle is not None:
            state.retry_handle.cancel()
        del self._transfers[transfer_id]
        self.transfer_rounds += 1
        self._install_config()

    def _install_config(self) -> None:
        """Install the proposed config and garbage-collect the old one.

        From this instant quorums are drawn from the new config alone;
        members of the old config that left stop being broadcast to.
        Any queued membership event opens its window immediately.
        """
        if self.next_config is None:
            return
        self.current_config = self.next_config
        self.next_config = None
        self.configs_installed += 1
        self._refresh_quorum_state()
        self._maybe_begin_transition()

    # ------------------------------------------------------------------
    # Operation-history recorder
    # ------------------------------------------------------------------
    def _record(self, op: _PendingOp, kind: str, ts: Tuple[int, int], value: Any) -> None:
        """Append one completed-operation interval record (if recording)."""
        if self.config.record_history:
            self.op_history.append(
                EmuOpRecord(
                    op_id=op.op_id,
                    kind=kind,
                    pid=op.pid,
                    register=op.register.name,
                    ts=ts,
                    value=value,
                    inv=op.started_at,
                    resp=self._clock(),
                )
            )

    def recorded_history(self) -> List[EmuOpRecord]:
        """The auditable interval history of this run.

        Completed operations in completion order, plus every write
        still in its write phase when the run ended (reported with
        ``resp = math.inf``): a concurrent read may legitimately have
        returned such a write's timestamp, so the checkers must see the
        write exist.  Reads and query-phase writes that never completed
        returned nothing and are omitted.  Empty unless the config set
        ``record_history``.
        """
        records = list(self.op_history)
        if self.config.record_history:
            for op in self._ops.values():
                if op.kind != "read" and op.phase == "write":
                    records.append(
                        EmuOpRecord(
                            op_id=op.op_id,
                            kind="write",
                            pid=op.pid,
                            register=op.register.name,
                            ts=op.ts,
                            value=op.value,
                            inv=op.started_at,
                            resp=math.inf,
                        )
                    )
        return records

    # ------------------------------------------------------------------
    # Asynchronous operation API (driven by the process runtime)
    # ------------------------------------------------------------------
    def emu_read(self, pid: int, register: Any, callback: Callable[[Any], None]) -> None:
        """Start a quorum read; ``callback(value)`` fires at completion."""
        op = self._new_op(pid, register, "read", callback)
        self._enter_query(op)

    def emu_write(
        self, pid: int, register: Any, value: Any, callback: Callable[[Any], None]
    ) -> None:
        """Start a quorum write; ``callback(None)`` fires at completion.

        Ownership is checked *synchronously* at invocation (exactly like
        the shared backend), so an illegal write raises
        :class:`~repro.memory.register.OwnershipError` in the issuing
        process's step rather than completing remotely.
        """
        owner = getattr(register, "owner", None)
        if isinstance(register, AtomicRegister) and owner is not None and pid != owner:
            raise OwnershipError(
                f"process {pid} attempted to write {register.name} owned by {owner}"
            )
        if isinstance(register, MultiWriterRegister):
            op = self._new_op(pid, register, "mwmr-write", callback)
            op.value = value
            self._enter_query(op)  # learn the current max timestamp first
        else:
            op = self._new_op(pid, register, "write", callback)
            op.value = value
            counter = self._write_counters.get(register.name, 0) + 1
            self._write_counters[register.name] = counter
            self._enter_write(op, (counter, pid))

    def emu_fetch_add(
        self, pid: int, register: MultiWriterRegister, amount: int, callback: Callable[[Any], None]
    ) -> None:
        """Start an emulated fetch&add; ``callback(old_value)`` at completion.

        ABD registers offer only read and write, so fetch&add degrades
        to the racy two-step emulation (query the value, write value +
        amount): concurrent increments may be lost.  The Section 3.5
        variant is documented to tolerate exactly this.
        """
        op = self._new_op(pid, register, "fetch-add", callback)
        op.amount = amount
        self._enter_query(op)

    # ------------------------------------------------------------------
    # Protocol phases
    # ------------------------------------------------------------------
    def _new_op(
        self, pid: int, register: Any, kind: str, callback: Callable[[Any], None]
    ) -> _PendingOp:
        if not self._started:
            # Without replicas the phase would broadcast to nobody and
            # the operation would hang forever; fail loudly instead.
            raise RuntimeError(
                "emulation not started: call start() before issuing operations "
                "(Run.execute does this)"
            )
        self._op_counter += 1
        op = _PendingOp(self._op_counter, pid, register, kind, callback, self._clock())
        self._ops[op.op_id] = op
        return op

    def _enter_query(self, op: _PendingOp) -> None:
        op.phase = "query"
        op.replies = set()
        op.best_ts, op.best_value = self._initial_of(op.register.name)
        self._broadcast_phase(op)
        self._arm_retry(op)

    def _enter_write(self, op: _PendingOp, ts: Tuple[int, int]) -> None:
        op.phase = "write"
        op.ts = ts
        op.replies = set()
        self._broadcast_phase(op)
        if op.retry_token is None:  # direct writes skip the query phase
            self._arm_retry(op)

    def _broadcast_phase(self, op: _PendingOp) -> None:
        """(Re-)send the current phase's message to unacked replicas.

        The target set is the membership *serving* set: the installed
        config's members, or the union of both configs during a
        dual-quorum transition window (so reads can take the max
        timestamp across both and writes can ack in both).  Retries
        re-evaluate it, so an operation in flight across an install
        follows the config change.
        """
        if op.phase == "query":
            kind = "abd.read"
            payload: Tuple[Any, ...] = (op.op_id, op.register.name)
        else:
            kind = "abd.write"
            payload = (op.op_id, op.register.name, op.ts, op.value)
        send = self.network.send
        pid = op.pid
        replies = op.replies
        for replica in self._serving:
            if replica.index not in replies:
                send(pid, replica.node_id, kind, payload)

    def _retry_delay(self, op: _PendingOp) -> float:
        """Delay before ``op``'s next retransmission round.

        ``fixed`` returns the constant interval and draws **no**
        randomness, so default-config runs stay byte-identical to
        pre-backoff releases; ``backoff`` doubles per round up to
        ``retry_cap`` and scales by seeded per-client jitter.
        """
        if self.config.retry_policy == "fixed":
            return self.config.retry_interval
        delay = min(
            self.config.retry_interval * (2.0 ** op.attempts), self.config.retry_cap
        )
        if self.config.retry_jitter:
            stream = self._rng.stream(f"abd-retry:{op.pid}")
            delay *= 1.0 + self.config.retry_jitter * stream.random()
        return delay

    def _arm_retry(self, op: _PendingOp) -> None:
        op.retry_token = self._sim.schedule_lane_after(
            self._retry_lane, self._retry_delay(op), op, op.pid
        )

    def _retry_op(self, op: _PendingOp) -> None:
        """Retry-lane consumer: retransmit ``op``'s phase and re-arm.

        Only live tokens fire, and :meth:`_finish` cancels the token, so
        ``op`` is still pending here.
        """
        self.retransmissions += 1
        op.attempts += 1
        self._broadcast_phase(op)
        self._arm_retry(op)

    def _finish(self, op: _PendingOp, result: Any) -> None:
        if op.retry_token is not None:
            self._retry_lane.cancel(op.retry_token)
        del self._ops[op.op_id]
        if self.next_config is not None and self.config.transition == "dual-quorum":
            self.dual_quorum_ops += 1
        self.total_op_latency += self._clock() - op.started_at
        op.callback(result)

    # ------------------------------------------------------------------
    # Message handlers (the network's per-kind route table)
    # ------------------------------------------------------------------
    def _replica_read(self, message: Message) -> None:
        """A replica serves one read query."""
        node = self.replicas[-message.receiver - 1]
        if node.crashed or node.recovering:
            return  # amnesiac state must not enter any read quorum
        op_id, name = message.payload
        ts, value = node.store.get(name) or self._initial_of(name)
        node.reads_served += 1
        self.network.send(
            node.node_id, message.sender, "abd.read-reply", (op_id, name, ts, value)
        )

    def _replica_write(self, message: Message) -> None:
        """A replica applies one timestamped write and acks it."""
        node = self.replicas[-message.receiver - 1]
        if node.crashed:
            return
        payload = message.payload
        _, name, ts, value = payload
        current = node.store.get(name) or self._initial_of(name)
        if ts > current[0]:
            node.store[name] = (ts, value)
            node.writes_applied += 1
        # The ack echoes the value this replica received: it is the
        # quorum certificate's value entry, letting the writer
        # cross-check that the payload survived the wire (the
        # value-integrity detector; timestamps alone cannot see a
        # corrupted value travelling under a valid timestamp).
        self.network.send(node.node_id, message.sender, "abd.write-ack", payload)

    def _replica_sync(self, message: Message) -> None:
        """A replica answers one snapshot request (resync or transfer)."""
        node = self.replicas[-message.receiver - 1]
        if node.crashed or node.recovering:
            return  # cannot certify state it does not have itself
        (sync_id,) = message.payload
        self.network.send(
            node.node_id,
            message.sender,
            "abd.sync-reply",
            (sync_id, tuple(sorted(node.store.items()))),
        )

    def _replica_transfer(self, message: Message) -> None:
        """A replica applies one membership state transfer and acks it.

        The merged old-config state is applied monotonically
        (timestamps arbitrate, so a write this replica overheard during
        the window never regresses).  The grant carries a
        majority-of-old-config's worth of state -- the same guarantee a
        resync provides -- so an amnesiac joiner may start serving
        reads after applying it.
        """
        node = self.replicas[-message.receiver - 1]
        if node.crashed:
            return
        transfer_id, entries = message.payload
        for name, (ts, value) in entries:
            current = node.store.get(name)
            if current is None or ts > current[0]:
                node.store[name] = (ts, value)
        node.recovering = False
        self.network.send(node.node_id, message.sender, "abd.transfer-ack", (transfer_id,))

    def _on_read_reply(self, message: Message) -> None:
        op_id, name, ts, value = message.payload
        op = self._ops.get(op_id)
        if op is None or op.phase != "query":
            return  # late reply of a completed operation or phase
        replica_index = -message.sender - 1
        if replica_index in op.replies:
            return
        op.replies.add(replica_index)
        if ts > op.best_ts:
            op.best_ts, op.best_value = ts, value
        if not self._quorum_met(op.replies):
            return
        if op.kind == "read":
            if self.config.consistency == "atomic":
                # ABD write-back: propagate the (timestamp, value) this
                # read is about to return to a majority first, so no
                # later read can see an older value (atomicity).
                self.write_backs += 1
                op.value = op.best_value
                self._enter_write(op, op.best_ts)
            else:
                self._complete_read(op)
        elif op.kind == "mwmr-write":
            self._enter_write(op, (op.best_ts[0] + 1, op.pid))
        else:  # fetch-add: write value + amount, return the old value
            op.value = op.best_value + op.amount
            self._enter_write(op, (op.best_ts[0] + 1, op.pid))

    def _on_write_ack(self, message: Message) -> None:
        op_id, name, ts, value = message.payload
        op = self._ops.get(op_id)
        if op is None or op.phase != "write" or ts != op.ts:
            return  # late ack of a completed operation or phase
        replica_index = -message.sender - 1
        if replica_index not in op.replies and value != op.value:
            # The replica echoed back a value other than the one this
            # write phase is propagating: the payload was corrupted on
            # the wire (in either direction).  Detection only -- the ack
            # still counts toward the quorum, mirroring how the paper's
            # protocol has no integrity defence; the counter and the
            # history audit make the corruption visible.
            self.integrity_violations += 1
        op.replies.add(replica_index)
        if not self._quorum_met(op.replies):
            return
        if op.kind == "read":  # an atomic read's write-back completed
            self._complete_read(op)
        else:
            self._complete_write(op)

    # ------------------------------------------------------------------
    # Completions (the linearization points of the emulated history)
    # ------------------------------------------------------------------
    def _complete_read(self, op: _PendingOp) -> None:
        register = op.register
        self._note_read(register.name, op.pid)
        if isinstance(register, AtomicRegister):
            register._reads += 1  # keep the per-register counter exact
        self.reads_completed += 1
        self.read_op_latency += self._clock() - op.started_at
        self._record(op, "read", op.best_ts, op.best_value)
        self._finish(op, op.best_value)

    def _complete_write(self, op: _PendingOp) -> None:
        register = op.register
        self.writes_completed += 1
        if op.kind == "fetch-add":
            # One counted read + one counted write, like the shared
            # fetch&add; the local mirror takes the written value.
            self._note_read(register.name, op.pid)
            register.poke(op.value)
            self._note_write(register.name, op.pid, op.value, critical=register.critical)
            self._record(op, "read", op.best_ts, op.best_value)
            self._record(op, "write", op.ts, op.value)
            self._finish(op, op.value - op.amount)
        else:
            register.write(op.pid, op.value)  # mirror + accounting + owner check
            self._record(op, "write", op.ts, op.value)
            self._finish(op, None)


__all__ = [
    "CONSISTENCY_LEVELS",
    "EmuOpRecord",
    "EmulatedMemory",
    "EmulationConfig",
    "LINK_MODELS",
    "MembershipEvent",
    "MembershipPlan",
    "RETRY_POLICIES",
    "ReplicaConfig",
    "ReplicaNode",
    "TRANSITION_MODES",
]
