"""The discrete-event simulator kernel.

:class:`Simulator` owns the virtual clock and the event queue.  Higher
layers (the process runner in :mod:`repro.core.runner`, the timer service
in :mod:`repro.timers.service`) schedule callbacks; the kernel advances
time to each event in order and fires it.

The kernel deliberately knows nothing about processes, registers or
timers -- it is a plain DES core, which keeps it easy to test in
isolation and reusable by every substrate.

Scheduling comes in three flavours:

* :meth:`Simulator.schedule_at` / :meth:`Simulator.schedule_after` are
  the dominant schedule-and-fire path and allocate nothing but the
  queue's entry tuple (the queue insert is fused into these methods --
  no intermediate call layer on the hot path);
* the ``*_cancellable`` variants additionally allocate and return an
  :class:`~repro.sim.events.EventHandle` for callers that may need to
  disarm the event later (register-emulation retries and other
  low-volume users);
* :meth:`Simulator.schedule_lane_after` schedules through a columnar
  :class:`~repro.sim.events.EventLane` and returns an *integer* token --
  the allocation-free cancellable path of the high-volume cancellable
  kinds: timer events and ABD retransmission timers.  Netsim message
  deliveries are never cancelled, so they take the plain path.

**Batch dispatch.**  The run loop drains all events sharing the current
virtual timestamp as one *batch*: the heap yields the first event at
that instant and the queue's collision bucket supplies the rest, in
exact ``(time, seq)`` order, without touching the heap again.  The loop
body is locals-only; ``events_fired`` / ``events_skipped`` are synced to
the instance at **batch boundaries** (and whenever the loop returns), so
a callback that reads ``sim.events_fired`` mid-batch observes the value
as of the start of its batch -- the *batch-visible contract*.  The
per-event guarantee is preserved where it is contractual: ``stop_when``
predicates observe exact live counters (both are synced immediately
before every predicate call), and ``max_events`` / ``stop()`` are
honoured mid-batch, with the undrained remainder of the batch restored
to the queue in exact order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Optional

from repro.sim.events import (
    _EMPTY,
    _KIND_IDS,
    _KIND_NAMES,
    EventHandle,
    EventLane,
    EventQueue,
    intern_kind,
)


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Simulator:
    """Virtual-time event loop.

    Parameters
    ----------
    trace_events:
        When true, keep a count per event kind (cheap observability used
        by tests and benches).  Counts accumulate in a list indexed by
        interned kind id; the name-keyed :attr:`fired_by_kind` dict is
        materialized lazily on read, so the traced hot loop never hashes
        kind strings.

    Notes
    -----
    Time is a ``float`` number of abstract *time units*.  Nothing in the
    library interprets a unit as a second; the paper's model is untimed
    except for the AWB bounds, which are expressed in the same units.
    """

    def __init__(self, trace_events: bool = True) -> None:
        self._queue = EventQueue()
        # Direct references to the queue's storage for the fused
        # schedule/run paths (all identities are stable; see
        # EventQueue.clear).
        self._heap = self._queue._heap
        self._buckets = self._queue._buckets
        self._pool = self._queue._pool
        self._next_seq = self._queue._next_seq
        # Mirror of the queue's heap-direct pin (see EventQueue): the
        # fused schedulers read the mirror to avoid a chained attribute
        # lookup per push; the run loop writes both.
        self._direct_time = float("nan")
        self._now = 0.0
        self._running = False
        self._stopped = False
        self.events_fired = 0
        self.events_skipped = 0
        self._trace_events = trace_events
        # Per-kind fire counts, indexed by interned kind id (satellite
        # fix: the old dict.get per traced event is gone).
        self._fired_counts: list = []

    @property
    def trace_events(self) -> bool:
        """Whether per-kind event accounting is enabled."""
        return self._trace_events

    @property
    def fired_by_kind(self) -> dict:
        """Fired-event counts keyed by kind name (traced mode only).

        Materialized on read from the id-indexed count column; mutating
        the returned dict does not affect the simulator's accounting.
        """
        counts = self._fired_counts
        names = _KIND_NAMES
        return {names[kid]: n for kid, n in enumerate(counts) if n}

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        kind: str = "event",
        pid: Optional[int] = None,
    ) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``.

        ``time`` may equal ``now`` (fires after currently-firing event)
        but may not precede it.  The fast path: no handle is created;
        use :meth:`schedule_at_cancellable` when the event may need to
        be disarmed.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        kid = _KIND_IDS.get(kind)
        if kid is None:
            kid = intern_kind(kind)
        # Fused hybrid-queue insert (see EventQueue._insert; duplicated
        # in the three hot schedulers so the path stays call-free).
        entry = (time, self._next_seq(), kid, pid, callback, None)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            if time != self._direct_time:
                buckets[time] = _EMPTY
            heappush(self._heap, entry)
        elif bucket is _EMPTY:
            if time != self._direct_time:
                buckets[time] = [entry]
            else:
                heappush(self._heap, entry)
        else:
            bucket.append(entry)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        kind: str = "event",
        pid: Optional[int] = None,
    ) -> None:
        """Schedule ``callback`` after a non-negative ``delay`` (no handle)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        kid = _KIND_IDS.get(kind)
        if kid is None:
            kid = intern_kind(kind)
        entry = (time, self._next_seq(), kid, pid, callback, None)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            if time != self._direct_time:
                buckets[time] = _EMPTY
            heappush(self._heap, entry)
        elif bucket is _EMPTY:
            if time != self._direct_time:
                buckets[time] = [entry]
            else:
                heappush(self._heap, entry)
        else:
            bucket.append(entry)

    def schedule_at_cancellable(
        self,
        time: float,
        callback: Callable[[], None],
        kind: str = "event",
        pid: Optional[int] = None,
    ) -> EventHandle:
        """Like :meth:`schedule_at`, but returns a cancellation handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        return self._queue.push_cancellable(time, kind, callback, pid=pid)

    def schedule_after_cancellable(
        self,
        delay: float,
        callback: Callable[[], None],
        kind: str = "event",
        pid: Optional[int] = None,
    ) -> EventHandle:
        """Like :meth:`schedule_after`, but returns a cancellation handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at_cancellable(self._now + delay, callback, kind=kind, pid=pid)

    def schedule_lane_after(
        self,
        lane: EventLane,
        delay: float,
        payload: Any,
        pid: Optional[int] = None,
    ) -> int:
        """Schedule ``payload`` through ``lane`` after ``delay``.

        Returns the lane token -- an integer that cancels or probes the
        event via ``lane.cancel(token)`` / ``lane.live(token)``.  This
        is the columnar fast path for high-volume cancellable kinds: no
        handle object, no per-event closure; the payload lives in the
        lane's preallocated columns until the event fires.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        token = lane.acquire(payload)
        entry = (time, self._next_seq(), lane.kind_id, pid, lane, token)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            if time != self._direct_time:
                buckets[time] = _EMPTY
            heappush(self._heap, entry)
        elif bucket is _EMPTY:
            if time != self._direct_time:
                buckets[time] = [entry]
            else:
                heappush(self._heap, entry)
        else:
            bucket.append(entry)
        return token

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to return after the current event."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Fire events in order until a stop condition holds.

        Parameters
        ----------
        until:
            Inclusive virtual-time horizon.  Events scheduled strictly
            after it stay queued; the clock is advanced to ``until``.
        max_events:
            Safety valve on the number of events fired *by this
            invocation* (not the simulator-lifetime ``events_fired``
            counter, so repeated ``run()`` calls each get a fresh
            budget).  Honoured mid-batch.
        stop_when:
            Optional predicate evaluated after every fired event; it
            observes exact live ``events_fired`` / ``events_skipped``
            values (both are synced immediately before each call).

        Returns
        -------
        float
            The virtual time when the loop returned.

        Notes
        -----
        Events sharing a timestamp are dispatched as one batch (see the
        module docstring).  ``events_fired`` / ``events_skipped`` are
        synced to the instance at batch boundaries, so *callbacks* that
        read them mid-batch observe the values as of the start of their
        batch; ``stop_when`` always sees exact values.  When the loop
        stops mid-batch, the rest of the batch is restored to the queue
        in exact ``(time, seq)`` order.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        # Hoisted out of the loop: the batch drain touches only locals.
        # ``heap`` / ``buckets`` alias the queue's storage, so callbacks
        # that schedule new events grow them in place.
        queue = self._queue
        heap = self._heap
        buckets = self._buckets
        bpop = buckets.pop
        pool = self._pool
        pop = heappop
        push = heappush
        counts = self._fired_counts if self._trace_events else None
        start = fired = self.events_fired
        skipped = self.events_skipped
        stop = False
        try:
            while heap:
                time = heap[0][0]
                if until is not None and time > until:
                    self._now = until
                    break
                entry = pop(heap)
                self._now = time
                # The batch: the heap entry plus the instant's collision
                # bucket (exact seq order; _EMPTY means no collisions --
                # the dominant singleton case takes the loop-free path).
                bucket = bpop(time, _EMPTY)
                if bucket is _EMPTY:
                    callback = entry[4]
                    handle = entry[5]
                    if handle is None:
                        if callback is None:
                            skipped += 1
                            continue
                        callback()
                    elif type(handle) is int:
                        # Lane entry: callback slot holds the lane.
                        if not callback.fire(handle):
                            skipped += 1
                            continue
                    elif handle.cancelled or callback is None:
                        skipped += 1
                        continue
                    else:
                        callback()
                    fired += 1
                    if counts is not None:
                        kid = entry[2]
                        try:
                            counts[kid] += 1
                        except IndexError:
                            counts.extend([0] * (kid + 1 - len(counts)))
                            counts[kid] = 1
                    if self._stopped:
                        stop = True
                    elif max_events is not None and fired - start >= max_events:
                        stop = True
                    elif stop_when is not None:
                        self.events_fired = fired
                        self.events_skipped = skipped
                        if stop_when():
                            stop = True
                    if stop:
                        # A same-instant straggler scheduled by this
                        # event sits in the heap with a fresh marker (or
                        # upgraded bucket); restore it heap-individual
                        # and pin the instant so post-stop schedules at
                        # it stay in exact seq order.
                        extra = bpop(time, _EMPTY)
                        if extra is not _EMPTY:
                            for straggler in extra:
                                push(heap, straggler)
                            queue._direct_time = self._direct_time = time
                        break
                    # Batch boundary: sync the public counters.
                    self.events_fired = fired
                    self.events_skipped = skipped
                    continue
                size = len(bucket)
                index = 0
                while True:
                    callback = entry[4]
                    handle = entry[5]
                    if handle is None:
                        if callback is None:
                            skipped += 1
                            live = False
                        else:
                            callback()
                            fired += 1
                            live = True
                    elif type(handle) is int:
                        # Lane entry: callback slot holds the lane.
                        if callback.fire(handle):
                            fired += 1
                            live = True
                        else:
                            skipped += 1
                            live = False
                    elif handle.cancelled or callback is None:
                        skipped += 1
                        live = False
                    else:
                        callback()
                        fired += 1
                        live = True
                    if live:
                        if counts is not None:
                            kid = entry[2]
                            try:
                                counts[kid] += 1
                            except IndexError:
                                counts.extend([0] * (kid + 1 - len(counts)))
                                counts[kid] = 1
                        if self._stopped:
                            stop = True
                        elif max_events is not None and fired - start >= max_events:
                            stop = True
                        elif stop_when is not None:
                            self.events_fired = fired
                            self.events_skipped = skipped
                            if stop_when():
                                stop = True
                        if stop:
                            # Mid-batch stop: restore the undrained
                            # remainder (and any same-instant stragglers
                            # scheduled during the batch) to the heap
                            # individually -- their seqs keep the order
                            # exact -- and pin the instant heap-direct
                            # so later same-time schedules stay exact.
                            extra = bpop(time, _EMPTY)
                            if index < size or extra is not _EMPTY:
                                for j in range(index, size):
                                    push(heap, bucket[j])
                                for straggler in extra:
                                    push(heap, straggler)
                                queue._direct_time = self._direct_time = time
                            break
                    if index >= size:
                        break
                    entry = bucket[index]
                    index += 1
                bucket.clear()
                if len(pool) < EventQueue._POOL_DEPTH:
                    pool.append(bucket)
                if stop:
                    break
                # Batch boundary: sync the public counters.
                self.events_fired = fired
                self.events_skipped = skipped
            else:
                # Queue drained; advance the clock to the horizon if given.
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
            self.events_fired = fired
            self.events_skipped = skipped
        return self._now

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def queued_callbacks(self) -> Iterator[Any]:
        """The callback slot of every queued entry, in no set order.

        A cold-path view for on-read accounting (netsim's ``delivered``
        counter); lane entries yield their :class:`EventLane`.  Entries
        of a batch the run loop is draining are no longer queued.
        """
        for entry in self._heap:
            yield entry[4]
        for bucket in self._buckets.values():
            for entry in bucket:
                yield entry[4]


__all__ = ["SimulationError", "Simulator"]

