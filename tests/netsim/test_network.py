"""Channels: timing, loss, the eventual t-source property."""

from __future__ import annotations

import pytest

from repro.netsim.network import (
    CorruptingLinks,
    DuplicatingLinks,
    EventuallyTimelyLinks,
    FairLossyLinks,
    Message,
    Network,
    PartitionScheduleLinks,
    SourceChurnLinks,
    SynchronousLinks,
    TimelyLinks,
)
from repro.sim.kernel import Simulator
from tests.conftest import make_rng


def msg(sender=0, receiver=1, kind="X", payload=None, sent_at=0.0):
    return Message(sender, receiver, kind, payload, sent_at)


class TestTimelyLinks:
    def test_delays_within_bounds(self):
        links = TimelyLinks(make_rng(1), lo=0.5, hi=2.0)
        for _ in range(200):
            d = links.delivery_delay(msg())
            assert 0.5 <= d <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimelyLinks(make_rng(1), lo=2.0, hi=1.0)


class TestFairLossyLinks:
    def test_loss_rate_roughly_respected(self):
        links = FairLossyLinks(make_rng(2), loss=0.5)
        outcomes = [links.delivery_delay(msg()) for _ in range(1000)]
        dropped = sum(1 for d in outcomes if d is None)
        assert 350 < dropped < 650

    def test_fairness_some_get_through(self):
        links = FairLossyLinks(make_rng(3), loss=0.9)
        outcomes = [links.delivery_delay(msg()) for _ in range(500)]
        assert any(d is not None for d in outcomes)

    def test_delays_capped(self):
        links = FairLossyLinks(make_rng(4), loss=0.0, cap=80.0)
        for _ in range(500):
            d = links.delivery_delay(msg())
            assert d is not None and d <= 80.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FairLossyLinks(make_rng(1), loss=1.0)


class TestEventuallyTimelyLinks:
    def _links(self, gst=100.0):
        rng = make_rng(5)
        return EventuallyTimelyLinks(
            FairLossyLinks(rng, loss=0.5), sources={0}, gst=gst, rng=rng,
            timely_lo=0.5, timely_hi=2.0,
        )

    def test_source_timely_after_gst(self):
        links = self._links()
        for _ in range(200):
            d = links.delivery_delay(msg(sender=0, sent_at=150.0))
            assert d is not None and 0.5 <= d <= 2.0

    def test_source_lossy_before_gst(self):
        links = self._links()
        outcomes = [links.delivery_delay(msg(sender=0, sent_at=50.0)) for _ in range(300)]
        assert any(d is None for d in outcomes)

    def test_non_source_stays_lossy_forever(self):
        links = self._links()
        outcomes = [links.delivery_delay(msg(sender=1, sent_at=1e6)) for _ in range(300)]
        assert any(d is None for d in outcomes)


class TestSourceChurnLinks:
    def _links(self, gst=300.0):
        rng = make_rng(8)
        return SourceChurnLinks(
            FairLossyLinks(rng, loss=0.5),
            sources={0},
            gst=gst,
            rng=rng,
            rotation=[{1}, {2}, {0}],
            epoch=100.0,
            timely_lo=0.5,
            timely_hi=2.0,
        )

    def test_source_set_rotates_before_gst(self):
        links = self._links()
        assert links.sources_at(50.0) == frozenset({1})
        assert links.sources_at(150.0) == frozenset({2})
        assert links.sources_at(250.0) == frozenset({0})
        # The rotation wraps around until the gst...
        assert links.sources_at(350.0) == frozenset({0})  # past gst: final set

    def test_final_sources_timely_after_gst(self):
        links = self._links()
        for _ in range(200):
            d = links.delivery_delay(msg(sender=0, sent_at=400.0))
            assert d is not None and 0.5 <= d <= 2.0

    def test_current_epoch_witness_is_timely(self):
        links = self._links()
        for _ in range(100):
            d = links.delivery_delay(msg(sender=1, sent_at=50.0))
            assert d is not None and 0.5 <= d <= 2.0

    def test_off_rotation_sender_stays_lossy(self):
        links = self._links()
        outcomes = [links.delivery_delay(msg(sender=2, sent_at=50.0)) for _ in range(300)]
        assert any(d is None for d in outcomes)

    def test_empty_rotation_degenerates_to_eventually_timely(self):
        rng = make_rng(9)
        links = SourceChurnLinks(
            FairLossyLinks(rng, loss=0.5), sources={0}, gst=100.0, rng=rng
        )
        assert links.sources_at(5.0) == frozenset({0})

    def test_validation(self):
        rng = make_rng(9)
        with pytest.raises(ValueError):
            SourceChurnLinks(FairLossyLinks(rng), {0}, 10.0, rng, epoch=0.0)


class TestNetwork:
    def _network(self):
        sim = Simulator()
        net = Network(sim, TimelyLinks(make_rng(6), lo=1.0, hi=1.0))
        inbox = []
        net.install_delivery(lambda m: inbox.append((sim.now, m)))
        return sim, net, inbox

    def test_send_delivers_via_kernel(self):
        sim, net, inbox = self._network()
        net.send(0, 1, "PING", "x")
        sim.run()
        assert [(t, m.kind, m.payload) for t, m in inbox] == [(1.0, "PING", "x")]

    def test_broadcast_excludes_sender(self):
        sim, net, inbox = self._network()
        net.broadcast(0, 4, "HB", None)
        sim.run()
        assert sorted(m.receiver for _, m in inbox) == [1, 2, 3]

    def test_accounting(self):
        sim, net, _ = self._network()
        net.broadcast(2, 3, "HB", None)
        sim.run()
        assert net.sent_by_pid == {2: 2}
        assert net.delivered == 2
        assert net.total_sent == 2

    def test_drops_counted(self):
        sim = Simulator()
        net = Network(sim, FairLossyLinks(make_rng(7), loss=1.0 - 1e-9))
        net.install_delivery(lambda m: None)
        for _ in range(50):
            net.send(0, 1, "X", None)
        assert net.dropped > 0


class TestRoutedDelivery:
    """The network contract under per-kind routes (the ABD handler table)."""

    def _routed(self, behavior):
        sim = Simulator()
        net = Network(sim, behavior)
        inbox = {"PING": [], "PONG": []}
        for kind, box in inbox.items():
            net.install_route(kind, lambda m, box=box: box.append((sim.now, m)))
        return sim, net, inbox

    def test_each_kind_reaches_its_own_handler(self):
        sim, net, inbox = self._routed(SynchronousLinks(0.5))
        net.send(0, 1, "PING", 1)
        net.send(1, 0, "PONG", 2)
        net.send(0, 2, "PING", 3)
        sim.run()
        assert [(t, m.receiver, m.payload) for t, m in inbox["PING"]] == [
            (0.5, 1, 1),
            (0.5, 2, 3),
        ]
        assert [(t, m.kind, m.payload) for t, m in inbox["PONG"]] == [(0.5, "PONG", 2)]

    def test_counters_exact_with_messages_in_flight(self):
        sim, net, inbox = self._routed(SynchronousLinks(1.0))
        for step in range(5):
            sim.schedule_at(float(step), lambda: net.broadcast(0, 3, "PING", None))
        sim.run(until=2.5)  # sends at 0 and 1 landed, those at 2 in flight
        assert net.total_sent == 6
        assert len(inbox["PING"]) == 4
        assert net.delivered == 4
        sim.run()
        assert net.sent_by_pid == {0: 10}
        assert net.total_sent == 10
        assert net.delivered == len(inbox["PING"]) == 10
        assert net.dropped == 0
        assert sim.fired_by_kind["message"] == 10

    def test_drops_and_deliveries_partition_the_sends(self):
        sim, net, inbox = self._routed(FairLossyLinks(make_rng(3), loss=0.4))
        for i in range(200):
            net.send(i % 3, (i + 1) % 3, "PONG", i)
        sim.run()
        assert net.total_sent == 200
        assert 0 < net.dropped < 200
        assert net.delivered == len(inbox["PONG"]) == 200 - net.dropped

    def test_corrupted_copy_reaches_the_kind_handler(self):
        links = CorruptingLinks(SynchronousLinks(0.25), make_rng(4), rate=1.0)
        sim, net, inbox = self._routed(links)
        net.send(0, 1, "PING", ("op", 7))
        sim.run()
        ((_, delivered),) = inbox["PING"]
        assert delivered.kind == "PING"
        assert delivered.payload[0] == "op"
        assert delivered.payload[1] != 7
        assert links.corrupted == 1
        assert net.delivered == 1

    def test_both_duplicate_copies_reach_the_kind_handler(self):
        links = DuplicatingLinks(SynchronousLinks(0.25), make_rng(5), rate=1.0, lag=1.0)
        sim, net, inbox = self._routed(links)
        net.send(0, 1, "PONG", "x")
        sim.run()
        assert [(t, m.payload) for t, m in inbox["PONG"]] == [(0.25, "x"), (1.25, "x")]
        assert net.total_sent == 1
        assert net.delivered == 2
        assert links.duplicated == 1

    def test_reassigned_behavior_applies_to_the_next_send(self):
        sim, net, inbox = self._routed(SynchronousLinks(0.5))
        net.send(0, 1, "PING", "before")
        net.behavior = DuplicatingLinks(SynchronousLinks(2.0), make_rng(6), rate=1.0)
        net.send(0, 1, "PING", "after")
        sim.run()
        assert [(t, m.payload) for t, m in inbox["PING"]] == [
            (0.5, "before"),
            (2.0, "after"),
            (3.0, "after"),
        ]

    def test_routes_take_precedence_over_the_default(self):
        sim, net, inbox = self._routed(SynchronousLinks(0.5))
        other = []
        net.install_delivery(other.append)
        net.send(0, 1, "PING", None)
        net.send(0, 1, "OTHER", None)
        sim.run()
        assert len(inbox["PING"]) == 1
        assert [m.kind for m in other] == ["OTHER"]

    def test_unroutable_kind_raises_instead_of_vanishing(self):
        sim, net, _ = self._routed(SynchronousLinks(0.5))
        with pytest.raises(KeyError, match="BOGUS"):
            net.send(0, 1, "BOGUS", None)
        assert net.total_sent == 0

    def test_message_is_a_plain_tuple(self):
        message = msg(payload=(1, 2))
        assert isinstance(message, tuple)
        changed = message._replace(payload=(1, 3))
        assert changed.payload == (1, 3) and changed.kind == message.kind


class TestPartitionScheduleLinks:
    """The fault-injection overlay: scheduled islands and storms."""

    def _links(self, **kwargs):
        return PartitionScheduleLinks(SynchronousLinks(1.0), **kwargs)

    def test_empty_schedule_is_the_base_model(self):
        links = self._links()
        for t in (0.0, 5.0, 100.0):
            assert links.delivery_delay(msg(sent_at=t)) == 1.0
        assert links.partitioned_drops == 0

    def test_island_crossings_drop_during_the_window(self):
        # Replica indices 0 and 1 live at wire addresses -1 and -2.
        links = self._links(partitions=[(10.0, 20.0, [1])])
        crossing = msg(sender=-1, receiver=-2, sent_at=15.0)
        assert links.delivery_delay(crossing) is None
        assert links.delivery_delay(msg(sender=-2, receiver=-1, sent_at=15.0)) is None
        assert links.partitioned_drops == 2

    def test_island_internal_traffic_survives(self):
        links = self._links(partitions=[(10.0, 20.0, [1, 2])])
        internal = msg(sender=-2, receiver=-3, sent_at=15.0)
        assert links.delivery_delay(internal) == 1.0

    def test_drop_is_judged_at_the_send_instant(self):
        links = self._links(partitions=[(10.0, 20.0, [1])])
        crossing = dict(sender=-1, receiver=-2)
        assert links.delivery_delay(msg(sent_at=9.9, **crossing)) == 1.0
        assert links.delivery_delay(msg(sent_at=20.0, **crossing)) == 1.0
        assert links.severed(msg(sent_at=10.0, **crossing))

    def test_clients_always_sit_outside_the_island(self):
        links = self._links(partitions=[(0.0, 100.0, [1])])
        # Client (pid 0) to islanded replica: severed both ways.
        assert links.delivery_delay(msg(sender=0, receiver=-2, sent_at=5.0)) is None
        assert links.delivery_delay(msg(sender=-2, receiver=0, sent_at=5.0)) is None
        # Client to majority-side replica: untouched.
        assert links.delivery_delay(msg(sender=0, receiver=-1, sent_at=5.0)) == 1.0

    def test_storms_scale_delay_and_stack(self):
        links = self._links(storms=[(0.0, 50.0, 2.0), (25.0, 75.0, 3.0)])
        assert links.delivery_delay(msg(sent_at=10.0)) == 2.0
        assert links.delivery_delay(msg(sent_at=30.0)) == 6.0  # overlap stacks
        assert links.delivery_delay(msg(sent_at=60.0)) == 3.0
        assert links.delivery_delay(msg(sent_at=80.0)) == 1.0

    def test_storms_scale_but_never_drop(self):
        links = self._links(storms=[(0.0, 50.0, 4.0)])
        assert links.delivery_delay(msg(sent_at=10.0)) == 4.0
        assert links.partitioned_drops == 0

    def test_base_losses_stay_lost_under_storms(self):
        lossy = PartitionScheduleLinks(
            FairLossyLinks(make_rng(7), loss=1.0 - 1e-9),
            storms=[(0.0, 100.0, 2.0)],
        )
        assert lossy.delivery_delay(msg(sent_at=5.0)) is None
        assert lossy.partitioned_drops == 0  # base loss, not a partition

    def test_window_validation(self):
        with pytest.raises(ValueError, match="non-empty island"):
            self._links(partitions=[(10.0, 20.0, [])])
        with pytest.raises(ValueError, match="end > start"):
            self._links(partitions=[(20.0, 10.0, [1])])
        with pytest.raises(ValueError, match="factor >= 1"):
            self._links(storms=[(0.0, 10.0, 0.5)])
