"""Point-to-point channels with pluggable timing and loss.

A channel behaviour answers one question per message: *when* does it
arrive (or ``None`` for a drop).  The shipped behaviours span the
assumptions the related work uses:

* :class:`SynchronousLinks` -- a deterministic fixed delay on every
  link (the reference model for backend-equivalence tests of the
  register emulation, :mod:`repro.memory.emulated`);
* :class:`TimelyLinks` -- always-bounded delays (synchronous control);
* :class:`RampLinks` -- delays decaying linearly to timely at a GST
  (the message-passing twin of the PR 2 ``GstRampDelay`` adversary);
* :class:`FairLossyLinks` -- arbitrary finite delays and probabilistic
  drops, but infinitely many messages get through (the fair-lossy
  channels of [2]);
* :class:`EventuallyTimelyLinks` -- the *eventual t-source* assumption
  of Aguilera et al. [2]: after an unknown ``gst``, messages **from a
  designated source set** are delivered within a bound; everything else
  stays fair-lossy;
* :class:`PartitionScheduleLinks` -- a *dynamic* overlay driven by a
  fault plan (:mod:`repro.faults`): scheduled partition windows sever
  an island of replicas from the rest of the world until they heal,
  and message-storm windows multiply every delay by a congestion
  factor.

Beyond timing and loss, a behaviour may implement the optional
``delivery_plan(message)`` hook to *mutate* traffic -- returning any
number of ``(delay, message)`` deliveries per send.  That is how the
mutating-fault adversaries work: :class:`CorruptingLinks` flips payload
values in flight and :class:`DuplicatingLinks` delivers some messages
twice (the ROADMAP's "Byzantine / mutating link faults" axis).

This mirrors how :mod:`repro.sim.schedulers` realizes AWB1: the
assumption lives in the environment model, not in the algorithm.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Protocol, Tuple

from repro.sim.rng import RngRegistry


class Message(NamedTuple):
    """One message in flight.

    A plain tuple: :meth:`Network.send` builds it with ``tuple.__new__``
    (no Python-level constructor frame) and mutating behaviours derive
    altered copies with ``_replace``.
    """

    sender: int
    receiver: int
    kind: str
    payload: Any
    sent_at: float


#: ``Message`` construction without the generated ``__new__`` frame.
_new_message = tuple.__new__

#: A delivery handler: called once per delivered message.
Route = Callable[[Message], None]


class ChannelBehavior(Protocol):
    """Decides the fate of each message."""

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Delay until delivery, or ``None`` when the message is lost."""
        ...


class SynchronousLinks:
    """Deterministic fixed one-way delay on every link, no loss.

    The strongest (and simplest) link model: every message arrives
    exactly ``delta`` after it is sent.  It draws no randomness at all,
    which makes it the reference model for backend-equivalence tests --
    a run whose registers are emulated over synchronous links consumes
    exactly the same random streams as a shared-memory run of the same
    seed, so the two must elect the same leader.
    """

    def __init__(self, delta: float = 0.25) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Always ``delta``; never a drop."""
        return self.delta


class RampLinks:
    """Link delays that shrink linearly until a GST, then stay timely.

    The message-passing twin of
    :class:`repro.sim.schedulers.GstRampDelay` (the PR 2 adversary):
    instead of asynchrony switching off at an unknown global
    stabilization time, the delay scale decays *gradually* from
    ``start_scale``x down to 1x at ``gst`` -- a moving target for any
    protocol phase that must collect a quorum.  From ``gst`` on, every
    link is timely in ``[lo, hi]``.
    """

    def __init__(
        self,
        rng: RngRegistry,
        gst: float,
        start_scale: float = 8.0,
        lo: float = 0.5,
        hi: float = 2.0,
    ) -> None:
        if not 0 < lo <= hi:
            raise ValueError("need 0 < lo <= hi")
        if gst < 0 or start_scale < 1.0:
            raise ValueError("need gst >= 0 and start_scale >= 1")
        self.gst = gst
        self.start_scale = start_scale
        self.lo, self.hi = lo, hi
        self._rng = rng

    def scale_at(self, time: float) -> float:
        """The delay multiplier in effect at ``time`` (1.0 from gst on)."""
        if self.gst <= 0 or time >= self.gst:
            return 1.0
        frac = time / self.gst
        return self.start_scale + (1.0 - self.start_scale) * frac

    def delivery_delay(self, message: Message) -> Optional[float]:
        """A timely draw scaled by the ramp at the send instant."""
        stream = self._rng.stream(f"link:{message.sender}->{message.receiver}")
        return stream.uniform(self.lo, self.hi) * self.scale_at(message.sent_at)


class TimelyLinks:
    """Uniformly bounded delays on every link, no loss."""

    def __init__(self, rng: RngRegistry, lo: float = 0.5, hi: float = 2.0) -> None:
        if not 0 < lo <= hi:
            raise ValueError("need 0 < lo <= hi")
        self.lo, self.hi = lo, hi
        self._rng = rng

    def delivery_delay(self, message: Message) -> Optional[float]:
        """A uniform draw in ``[lo, hi]``; never a drop."""
        stream = self._rng.stream(f"link:{message.sender}->{message.receiver}")
        return stream.uniform(self.lo, self.hi)


class FairLossyLinks:
    """Arbitrary finite delays, probabilistic loss.

    Fair-lossy in the [2] sense: each message is independently dropped
    with ``loss`` < 1, so infinitely many of an infinite send sequence
    get through.  ``cap`` keeps delays finite for the simulation
    horizon without bounding them meaningfully.
    """

    def __init__(
        self,
        rng: RngRegistry,
        loss: float = 0.2,
        lo: float = 0.5,
        hi: float = 30.0,
        cap: float = 80.0,
    ) -> None:
        if not 0 <= loss < 1:
            raise ValueError("loss must be in [0, 1)")
        if not 0 < lo <= hi <= cap:
            raise ValueError("need 0 < lo <= hi <= cap")
        self.loss, self.lo, self.hi, self.cap = loss, lo, hi, cap
        self._rng = rng

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Drop with probability ``loss``; otherwise an arbitrary finite delay."""
        stream = self._rng.stream(f"link:{message.sender}->{message.receiver}")
        if stream.random() < self.loss:
            return None
        # Occasionally spike toward the cap: "arbitrary but finite".
        if stream.random() < 0.1:
            return stream.uniform(self.hi, self.cap)
        return stream.uniform(self.lo, self.hi)


class EventuallyTimelyLinks:
    """The eventual t-source assumption of [2].

    Messages from a pid in ``sources`` sent at or after ``gst`` are
    delivered within ``[timely_lo, timely_hi]`` and never lost; all
    other traffic follows ``base`` (typically fair-lossy).
    """

    def __init__(
        self,
        base: ChannelBehavior,
        sources: Iterable[int],
        gst: float,
        rng: RngRegistry,
        timely_lo: float = 0.5,
        timely_hi: float = 2.0,
    ) -> None:
        if not 0 < timely_lo <= timely_hi:
            raise ValueError("need 0 < timely_lo <= timely_hi")
        self.base = base
        self.sources = frozenset(sources)
        self.gst = gst
        self.timely_lo, self.timely_hi = timely_lo, timely_hi
        self._rng = rng

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Timely for post-gst source traffic; ``base`` for everything else."""
        if message.sender in self.sources and message.sent_at >= self.gst:
            stream = self._rng.stream(f"timely:{message.sender}->{message.receiver}")
            return stream.uniform(self.timely_lo, self.timely_hi)
        return self.base.delivery_delay(message)


class SourceChurnLinks:
    """Eventual t-source with *source-set churn*.

    Before ``gst`` the set of timely senders rotates: during epoch ``e``
    (of length ``epoch``) the window ``rotation[e % len(rotation)]`` is
    timely and everything else follows ``base``.  From ``gst`` on the
    behaviour is exactly :class:`EventuallyTimelyLinks` with the final
    ``sources`` set.  This is the adversarial reading of the [2]
    assumption: "there is a time after which some set of sources is
    timely" permits the candidate set to churn arbitrarily long first,
    and an algorithm leaning on early winners must survive every
    reshuffle.
    """

    def __init__(
        self,
        base: ChannelBehavior,
        sources: Iterable[int],
        gst: float,
        rng: RngRegistry,
        rotation: Optional[Iterable[Iterable[int]]] = None,
        epoch: float = 100.0,
        timely_lo: float = 0.5,
        timely_hi: float = 2.0,
    ) -> None:
        if not 0 < timely_lo <= timely_hi:
            raise ValueError("need 0 < timely_lo <= timely_hi")
        if epoch <= 0:
            raise ValueError("epoch must be positive")
        self.base = base
        self.sources = frozenset(sources)
        self.gst = gst
        self.epoch = epoch
        self.rotation = [frozenset(window) for window in (rotation or [])]
        self.timely_lo, self.timely_hi = timely_lo, timely_hi
        self._rng = rng

    def sources_at(self, time: float) -> frozenset:
        """The timely source set in effect at ``time``."""
        if time >= self.gst or not self.rotation:
            return self.sources
        return self.rotation[int(time // self.epoch) % len(self.rotation)]

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Timely for the epoch's rotating source set; ``base`` otherwise."""
        if message.sender in self.sources_at(message.sent_at):
            stream = self._rng.stream(f"timely:{message.sender}->{message.receiver}")
            return stream.uniform(self.timely_lo, self.timely_hi)
        return self.base.delivery_delay(message)


def _corrupt_value(value: Any, stream: Any) -> Any:
    """A *different* value of the same shape (bool flip, int jitter)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + stream.randrange(1, 6)
    return value


class CorruptingLinks:
    """Mutating-fault adversary: values are occasionally corrupted in flight.

    Timing delegates to ``base``; with probability ``rate`` the trailing
    payload field is replaced by a *different* value of the same type
    (bools flip, ints jitter upward) before delivery.  Only messages
    whose payload is a tuple ending in an int/bool are eligible -- for
    the ABD register emulation that is exactly the value-carrying
    ``abd.write`` and ``abd.read-reply`` traffic, while op-ids, register
    names and timestamps stay intact.  This is the fault class a correct
    crash-stop emulation does **not** tolerate: the Theorem 1 audit is
    expected to *fail* under it (the negative-scenario family), unlike
    under :class:`DuplicatingLinks`.
    """

    def __init__(self, base: ChannelBehavior, rng: RngRegistry, rate: float = 0.1) -> None:
        if not 0 <= rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        self.base = base
        self.rate = rate
        self._rng = rng
        self.corrupted = 0

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Timing is the base model's; corruption never drops."""
        return self.base.delivery_delay(message)

    def delivery_plan(self, message: Message) -> List[Tuple[Optional[float], Message]]:
        """One delivery, payload possibly corrupted."""
        delay = self.base.delivery_delay(message)
        payload = message.payload
        if (
            delay is not None
            and isinstance(payload, tuple)
            and payload
            and isinstance(payload[-1], (bool, int))
        ):
            stream = self._rng.stream(f"corrupt:{message.sender}->{message.receiver}")
            if stream.random() < self.rate:
                self.corrupted += 1
                mutated = payload[:-1] + (_corrupt_value(payload[-1], stream),)
                message = message._replace(payload=mutated)
        return [(delay, message)]


class DuplicatingLinks:
    """Mutating-fault adversary: some messages are delivered twice.

    Timing delegates to ``base``; with probability ``rate`` a second,
    later copy of the message is delivered as well.  Quorum protocols
    built on idempotent, timestamp-monotone application (the ABD
    emulation) must absorb duplicates without any effect -- the positive
    twin of :class:`CorruptingLinks` in the mutating-fault family.
    """

    def __init__(
        self,
        base: ChannelBehavior,
        rng: RngRegistry,
        rate: float = 0.2,
        lag: float = 1.0,
    ) -> None:
        if not 0 <= rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        if lag <= 0:
            raise ValueError("lag must be positive")
        self.base = base
        self.rate = rate
        self.lag = lag
        self._rng = rng
        self.duplicated = 0

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Timing is the base model's; duplication never drops."""
        return self.base.delivery_delay(message)

    def delivery_plan(self, message: Message) -> List[Tuple[Optional[float], Message]]:
        """The base delivery, plus an occasional delayed duplicate."""
        delay = self.base.delivery_delay(message)
        fates: List[Tuple[Optional[float], Message]] = [(delay, message)]
        if delay is not None:
            stream = self._rng.stream(f"dup:{message.sender}->{message.receiver}")
            if stream.random() < self.rate:
                self.duplicated += 1
                fates.append((delay + self.lag, message))
        return fates


class PartitionScheduleLinks:
    """Dynamic partitions and congestion storms over a base model.

    The link-level half of the fault-injection subsystem
    (:mod:`repro.faults`): ``partitions`` is a schedule of
    ``(start, end, island)`` windows during which the *island* -- a set
    of replica indices (wire address ``-(index + 1)``) -- is cut off
    from everything outside it, and ``storms`` is a schedule of
    ``(start, end, factor)`` windows during which every delivery delay
    is multiplied by ``factor`` (congestion, not loss).  Both are
    judged at the send instant, like :class:`RampLinks` judges its
    ramp.  Timing outside any window delegates to ``base`` unchanged,
    so an empty schedule is behaviourally identical to ``base``.

    Client processes (non-negative pids) always sit on the majority
    side: a message is dropped exactly when one endpoint is inside an
    active island and the other is not.
    """

    def __init__(
        self,
        base: ChannelBehavior,
        partitions: Iterable[Tuple[float, float, Iterable[int]]] = (),
        storms: Iterable[Tuple[float, float, float]] = (),
    ) -> None:
        self.base = base
        self.partitions: Tuple[Tuple[float, float, frozenset], ...] = tuple(
            (float(start), float(end), frozenset(int(i) for i in island))
            for start, end, island in partitions
        )
        self.storms: Tuple[Tuple[float, float, float], ...] = tuple(
            (float(start), float(end), float(factor)) for start, end, factor in storms
        )
        for start, end, island in self.partitions:
            if not island or end <= start:
                raise ValueError("partition windows need end > start and a non-empty island")
        for start, end, factor in self.storms:
            if end <= start or factor < 1.0:
                raise ValueError("storm windows need end > start and factor >= 1")
        self.partitioned_drops = 0

    @staticmethod
    def _replica_index(node_id: int) -> Optional[int]:
        """Wire address -> replica index (clients map to ``None``)."""
        return -node_id - 1 if node_id < 0 else None

    def severed(self, message: Message) -> bool:
        """True when an active island separates sender from receiver."""
        t = message.sent_at
        s = self._replica_index(message.sender)
        r = self._replica_index(message.receiver)
        for start, end, island in self.partitions:
            if start <= t < end and (s in island) != (r in island):
                return True
        return False

    def storm_factor(self, time: float) -> float:
        """The combined delay multiplier of the storms active at ``time``."""
        factor = 1.0
        for start, end, storm in self.storms:
            if start <= time < end:
                factor *= storm
        return factor

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Drop across an active island; otherwise storm-scaled base delay."""
        if self.severed(message):
            self.partitioned_drops += 1
            return None
        delay = self.base.delivery_delay(message)
        if delay is None:
            return None
        return delay * self.storm_factor(message.sent_at)


class Network:
    """The message fabric: send, count, deliver through the kernel.

    Delivery handlers are installed by the consumer: one per message
    kind (:meth:`install_route`, the ABD emulation's handler table) and
    an optional default for every other kind (:meth:`install_delivery`,
    how :class:`~repro.netsim.runtime.MpRun` hands everything to its
    processes).  A kind with neither raises at send time instead of
    vanishing.  The network itself only decides timing/loss and keeps
    the traffic accounting (sent/delivered/dropped).

    Every delivery is one *plain* kernel event whose callback is
    ``partial(route, message)``: the kernel calls the handler directly,
    with no lane slot and no network frame in between.  Messages are
    never cancelled, so they need neither an
    :class:`~repro.sim.events.EventHandle` nor an
    :class:`~repro.sim.events.EventLane` token; lanes stay with the
    timers, which are cancelled all the time.
    """

    def __init__(self, sim: Any, behavior: ChannelBehavior) -> None:
        self._sim = sim
        self.behavior = behavior
        self.sent_by_pid: Dict[int, int] = {}
        self.dropped: int = 0
        self._scheduled = 0
        self._routes: Dict[str, Route] = {}
        self._default: Optional[Route] = None

    @property
    def behavior(self) -> ChannelBehavior:
        """The channel behaviour deciding each message's fate."""
        return self._behavior

    @behavior.setter
    def behavior(self, behavior: ChannelBehavior) -> None:
        """Swap the channel model; the next send already uses it.

        The model's hooks are resolved here once rather than per send;
        overlays (fault-plan partitions, the anomaly schedule) reassign
        this attribute after construction.
        """
        self._behavior = behavior
        self._delay = behavior.delivery_delay
        self._plan: Optional[Callable[[Message], List[Tuple[Optional[float], Message]]]] = (
            getattr(behavior, "delivery_plan", None)
        )

    def install_delivery(self, callback: Route) -> None:
        """Set the ``callback(message)`` for kinds without their own route."""
        self._default = callback

    def install_route(self, kind: str, handler: Route) -> None:
        """Deliver every message of ``kind`` straight to ``handler(message)``."""
        self._routes[kind] = handler

    @property
    def delivered(self) -> int:
        """Deliveries fired so far.

        Counted on read -- scheduled deliveries minus those still queued
        in the kernel -- so the delivery itself carries no counting
        frame.  Exact between kernel batches (after ``run`` returns, or
        from an event at another instant); a handler reading it mid-batch
        also counts the batch's not-yet-fired deliveries.
        """
        handlers = set(self._routes.values())
        if self._default is not None:
            handlers.add(self._default)
        queued = sum(
            1
            for callback in self._sim.queued_callbacks()
            if type(callback) is partial and callback.func in handlers
        )
        return self._scheduled - queued

    def send(self, sender: int, receiver: int, kind: str, payload: Any) -> None:
        """Send one message; the channel decides its fate.

        A behaviour with the optional ``delivery_plan`` hook may return
        any number of ``(delay, message)`` deliveries per send (mutated
        payloads, duplicates -- never a different kind); plain
        behaviours yield exactly one fate via ``delivery_delay``.
        """
        route = self._routes.get(kind, self._default)
        if route is None:
            raise KeyError(f"no route installed for message kind {kind!r}")
        sim = self._sim
        message = _new_message(Message, (sender, receiver, kind, payload, sim.now))
        sent = self.sent_by_pid
        sent[sender] = sent.get(sender, 0) + 1
        plan = self._plan
        if plan is None:
            delay = self._delay(message)
            if delay is None:
                self.dropped += 1
                return
            if delay <= 0:
                raise ValueError("channel behaviour produced non-positive delay")
            self._scheduled += 1
            sim.schedule_after(delay, partial(route, message), "message", receiver)
            return
        for delay, fated in plan(message):
            if delay is None:
                self.dropped += 1
                continue
            if delay <= 0:
                raise ValueError("channel behaviour produced non-positive delay")
            self._scheduled += 1
            sim.schedule_after(delay, partial(route, fated), "message", receiver)

    def broadcast(self, sender: int, n: int, kind: str, payload: Any) -> None:
        """Send to every process except the sender."""
        for receiver in range(n):
            if receiver != sender:
                self.send(sender, receiver, kind, payload)

    @property
    def total_sent(self) -> int:
        """Messages handed to the network across all senders."""
        return sum(self.sent_by_pid.values())


__all__ = [
    "ChannelBehavior",
    "CorruptingLinks",
    "DuplicatingLinks",
    "EventuallyTimelyLinks",
    "FairLossyLinks",
    "Message",
    "Network",
    "PartitionScheduleLinks",
    "RampLinks",
    "Route",
    "SourceChurnLinks",
    "SynchronousLinks",
    "TimelyLinks",
]
