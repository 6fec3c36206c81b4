"""The time-ordered event queue: a collision-bucketed tuple heap.

The queue is the heart of the simulator, and every experiment bottoms
out in its push/pop cycle, so entries are bare tuples rather than
objects::

    (time, seq, kind_id, pid, callback, handle)

ordered by ``(time, seq)``.  The monotonically increasing sequence
number makes ordering *stable* -- two events scheduled for the same
instant fire in the order they were scheduled, which keeps runs
deterministic and makes the linearization order of same-time register
operations well defined -- and, because it is unique, tuple comparison
never reaches the non-comparable ``callback`` element.

Storage is *hybrid*: the binary heap holds at most one entry per
distinct timestamp, and every further event scheduled for an
already-pending timestamp lands in that timestamp's FIFO **collision
bucket** (a plain list in ``_buckets``).  Equal-timestamp events are the
common case in batch-shaped workloads -- broadcast deliveries over
fixed-delay links, aligned timer populations -- and the bucket turns
their heap ``O(log n)`` push/pop into two ``O(1)`` list operations while
preserving exact ``(time, seq)`` order: the heap entry is always the
*first* event scheduled for its timestamp, and bucket entries follow in
append (= seq) order.  The run loop in :mod:`repro.sim.kernel` drains a
timestamp's heap entry and its bucket as one *batch*.

Two bookkeeping details keep the hybrid exact:

* an *empty* bucket is the shared ``_EMPTY`` marker (no list allocated),
  so unique-timestamp workloads pay one dict hit and nothing else;
* when a run loop stops mid-batch (``stop()``, ``max_events``,
  ``stop_when``), the undrained bucket entries are pushed back into the
  heap *individually* and ``_direct_time`` pins that timestamp to
  heap-direct scheduling, so every event at the interrupted instant --
  restored or newly scheduled -- keeps strict seq order.

``kind_id`` is an interned integer id for the event-kind label
(``"step"``, ``"timer"``, ...): interning happens once per distinct
string, so the hot path never hashes label strings into per-event
records.  ``handle`` is ``None`` on the dominant schedule-and-fire path
(netsim message deliveries included: they are never cancelled).
Cancellation comes in two flavours: :meth:`EventQueue.push_cancellable`
allocates an :class:`EventHandle` (the O(1) lazy-cancel trick: the entry
stays queued and the run loop skips it when popped), while the
high-volume cancellable kinds -- timers, ABD retransmission timers -- go
through a columnar :class:`EventLane` whose *integer* tokens index
preallocated payload/generation columns, so arming a timer allocates no
handle object at all.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

# Tuple-entry layout indices (documented for consumers of pop()).
TIME = 0
SEQ = 1
KIND = 2
PID = 3
CALLBACK = 4
HANDLE = 5

#: One scheduled event: ``(time, seq, kind_id, pid, callback, handle)``.
#: ``handle`` is ``None`` (plain), an :class:`EventHandle` (cancellable)
#: or an ``int`` lane token (in which case ``callback`` is the
#: :class:`EventLane` owning the token).
EventEntry = Tuple[float, int, int, Optional[int], Optional[Callable[[], None]], Any]

#: Shared marker for "timestamp is in the heap with no collisions yet".
#: Falsy and zero-length, so bucket-size arithmetic needs no special
#: case; never mutated.
_EMPTY: tuple = ()

#: Lane tokens pack ``(generation << _SLOT_BITS) | slot``; 32 slot bits
#: bound a lane at ~4e9 *concurrently live* events, far past any run.
_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1

# ----------------------------------------------------------------------
# Kind interning
# ----------------------------------------------------------------------
_KIND_IDS: dict = {}
_KIND_NAMES: list = []


def intern_kind(kind: str) -> int:
    """Return the stable integer id of an event-kind label.

    Ids are process-global and assigned in first-seen order; they are an
    in-memory optimization only and must never be persisted.
    """
    kid = _KIND_IDS.get(kind)
    if kid is None:
        kid = len(_KIND_NAMES)
        _KIND_IDS[kind] = kid
        _KIND_NAMES.append(kind)
    return kid


def kind_name(kind_id: int) -> str:
    """The label interned as ``kind_id`` (IndexError if never interned)."""
    return _KIND_NAMES[kind_id]


class EventHandle:
    """Cancellable reference to a scheduled event (opt-in).

    Cancellation is lazy: the entry stays in the heap but the run loop
    skips its callback when popped.  Handles exist only for events
    scheduled through the ``*_cancellable`` paths; the dominant
    schedule-and-fire path carries ``None`` in the handle slot and
    allocates nothing beyond the heap tuple.  High-volume cancellable
    kinds use the cheaper :class:`EventLane` integer tokens instead.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the simulator skips its callback."""
        self.cancelled = True


class EventLane:
    """Columnar fast lane for one high-volume cancellable event kind.

    A lane preallocates parallel *columns* -- a payload slot array and a
    per-slot generation counter -- plus a free list of slot indices.
    Scheduling through a lane stores the payload in a free slot and
    returns an integer **token** (generation + slot packed into one
    int); cancelling or firing bumps the slot's generation so any stale
    queue entry still referencing the old token is skipped when popped
    (the same lazy-cancel contract as :class:`EventHandle`, without the
    per-event handle allocation -- the timer services and the ABD
    retransmission timers are the intended users).

    ``consume`` is the single per-lane delivery function, called with
    the stored payload when a live token fires; when ``consume`` is
    ``None`` the payload itself must be a zero-argument callable and is
    invoked directly (the timer-service pattern, where every armed timer
    carries its own callback).
    """

    __slots__ = ("kind", "kind_id", "_consume", "_payloads", "_gens", "_free")

    def __init__(
        self,
        kind: str,
        consume: Optional[Callable[[Any], None]] = None,
        capacity: int = 32,
    ) -> None:
        if capacity < 1:
            raise ValueError("lane capacity must be positive")
        self.kind = kind
        self.kind_id = intern_kind(kind)
        self._consume = consume
        self._payloads: List[Any] = [None] * capacity
        self._gens: List[int] = [0] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def acquire(self, payload: Any) -> int:
        """Store ``payload`` in a free slot; return its live token.

        The columns double in place when full, so a lane sized for the
        steady state absorbs bursts without per-event allocation
        afterwards.
        """
        free = self._free
        if not free:
            base = len(self._payloads)
            self._payloads.extend([None] * base)
            self._gens.extend([0] * base)
            free.extend(range(2 * base - 1, base - 1, -1))
        slot = free.pop()
        self._payloads[slot] = payload
        return (self._gens[slot] << _SLOT_BITS) | slot

    def cancel(self, token: int) -> bool:
        """Disarm ``token``; False when it already fired or was cancelled.

        O(1): the queue entry stays queued and dies as *stale* (its
        generation no longer matches) when popped.
        """
        slot = token & _SLOT_MASK
        if self._gens[slot] != token >> _SLOT_BITS:
            return False
        self._gens[slot] += 1
        self._payloads[slot] = None
        self._free.append(slot)
        return True

    def live(self, token: int) -> bool:
        """True while ``token`` is armed (not yet fired or cancelled)."""
        return self._gens[token & _SLOT_MASK] == token >> _SLOT_BITS

    def fire(self, token: int) -> bool:
        """Deliver ``token``'s payload; False when the token is stale.

        Called by the kernel's run loop when a lane entry is popped.
        The slot is released *before* the payload is consumed, so a
        consumer may re-schedule through the lane immediately.
        """
        slot = token & _SLOT_MASK
        gens = self._gens
        if gens[slot] != token >> _SLOT_BITS:
            return False
        payload = self._payloads[slot]
        self._payloads[slot] = None
        gens[slot] += 1
        self._free.append(slot)
        consume = self._consume
        if consume is None:
            payload()
        else:
            consume(payload)
        return True


class EventQueue:
    """A stable min-queue of plain tuple event entries (hybrid storage).

    >>> q = EventQueue()
    >>> q.push(2.0, "b", None)
    >>> q.push(1.0, "a", None)
    >>> kind_name(q.pop()[KIND])
    'a'

    The heap (`_heap`) holds one entry per distinct pending timestamp;
    collisions append to that timestamp's FIFO bucket in ``_buckets``
    (see the module docstring).  The kernel's run loop accesses these
    structures directly, friend-style; their identities are stable (see
    :meth:`clear`).
    """

    __slots__ = ("_heap", "_buckets", "_pool", "_next_seq", "_direct_time")

    #: Recycled bucket lists kept at most this many deep.
    _POOL_DEPTH = 8

    def __init__(self) -> None:
        self._heap: list = []
        self._buckets: dict = {}
        self._pool: list = []
        self._next_seq = itertools.count().__next__
        # Timestamp forced to heap-direct scheduling after a mid-batch
        # stop (NaN matches nothing, so the common path has no flag).
        self._direct_time = float("nan")

    def __len__(self) -> int:
        return len(self._heap) + sum(map(len, self._buckets.values()))

    def __bool__(self) -> bool:
        return bool(self._heap)

    # ------------------------------------------------------------------
    def _insert(self, time: float, entry: EventEntry) -> None:
        """File ``entry`` under ``time``: heap if first at that instant
        (or the instant is pinned heap-direct), its bucket otherwise."""
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

    def push(
        self,
        time: float,
        kind: str,
        callback: Optional[Callable[[], None]],
        pid: Optional[int] = None,
    ) -> None:
        """Schedule ``callback`` at virtual time ``time`` (no handle).

        The fast path: allocates only the entry tuple (plus, first time
        an instant collides, its bucket list).  Scheduling at a NaN time
        is a programming error and raises.
        """
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        kid = _KIND_IDS.get(kind)
        if kid is None:
            kid = intern_kind(kind)
        self._insert(time, (time, self._next_seq(), kid, pid, callback, None))

    def push_cancellable(
        self,
        time: float,
        kind: str,
        callback: Optional[Callable[[], None]],
        pid: Optional[int] = None,
    ) -> EventHandle:
        """Schedule ``callback`` and return a cancellation handle."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        kid = _KIND_IDS.get(kind)
        if kid is None:
            kid = intern_kind(kind)
        handle = EventHandle()
        self._insert(time, (time, self._next_seq(), kid, pid, callback, handle))
        return handle

    def push_lane(
        self,
        time: float,
        lane: EventLane,
        payload: Any,
        pid: Optional[int] = None,
    ) -> int:
        """Schedule ``payload`` through ``lane``; return its token."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        token = lane.acquire(payload)
        self._insert(time, (time, self._next_seq(), lane.kind_id, pid, lane, token))
        return token

    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next (possibly cancelled) event, or ``None``."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> EventEntry:
        """Remove and return the next entry tuple.

        When the popped timestamp has a collision bucket, its entries
        are re-filed into the heap individually (their seq numbers keep
        the order exact) and the instant is pinned heap-direct -- this
        is the cold public API; the run loop drains buckets in place.
        """
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        entry = heappop(self._heap)
        time = entry[0]
        bucket = self._buckets.pop(time, _EMPTY)
        if bucket:  # a real, non-empty collision bucket
            heap = self._heap
            for queued in bucket:
                heappush(heap, queued)
            self._direct_time = time
        return entry

    def clear(self) -> None:
        """Drop all pending events (in place; the heap list, bucket dict
        and pool identities are stable so the kernel may hold direct
        references to them)."""
        self._heap.clear()
        self._buckets.clear()
        self._direct_time = float("nan")


__all__ = [
    "CALLBACK",
    "EventEntry",
    "EventHandle",
    "EventLane",
    "EventQueue",
    "HANDLE",
    "KIND",
    "PID",
    "SEQ",
    "TIME",
    "intern_kind",
    "kind_name",
]

