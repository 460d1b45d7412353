"""Property tests for the pluggable event-queue backends.

The determinism contract: HeapQueue and CalendarQueue dequeue in exactly
``(time, seq)`` order — same events, same order, bit-identical — under
random times, ties, cancellations, and mid-run inserts, across calendar
resizes.
"""

import random

import pytest

from repro.core import ConfigurationError
from repro.net import CalendarQueue, HeapQueue, Simulator, make_queue
from repro.net.engine import Event


def _event(time, seq):
    return Event(time, seq, lambda: None, ())


def _drain(queue):
    out = []
    while queue.size:
        event = queue.pop()
        out.append((event.time, event.seq))
    return out


def _make_queues():
    return HeapQueue(), CalendarQueue()


class TestOrderEquivalence:
    def test_random_times(self):
        rng = random.Random(11)
        events = [_event(rng.random() * 100.0, seq) for seq in range(5000)]
        heap, cal = _make_queues()
        for e in events:
            heap.push(e)
            cal.push(_event(e.time, e.seq))
        assert _drain(heap) == _drain(cal)

    def test_ties_break_by_seq(self):
        rng = random.Random(12)
        # Few distinct times, many events: mostly ties.
        times = [rng.random() for _ in range(7)]
        events = [_event(rng.choice(times), seq) for seq in range(2000)]
        heap, cal = _make_queues()
        for e in events:
            heap.push(e)
            cal.push(_event(e.time, e.seq))
        order = _drain(cal)
        assert order == _drain(heap)
        assert order == sorted(order)

    def test_mid_run_inserts(self):
        # Interleave pops with pushes, including pushes landing in the
        # calendar's current (being-drained) epoch and far future.
        rng = random.Random(13)
        heap, cal = _make_queues()
        seq = 0
        now = 0.0
        out_heap, out_cal = [], []
        for _ in range(3000):
            if heap.size and rng.random() < 0.45:
                a = heap.pop()
                b = cal.pop()
                out_heap.append((a.time, a.seq))
                out_cal.append((b.time, b.seq))
                now = max(now, a.time)
            else:
                # Never schedule into the past (the Simulator forbids it).
                t = now + rng.choice([0.0, 1e-9, 0.001, 0.5, 50.0]) * rng.random()
                heap.push(_event(t, seq))
                cal.push(_event(t, seq))
                seq += 1
        out_heap.extend(_drain(heap))
        out_cal.extend(_drain(cal))
        assert out_heap == out_cal
        assert out_cal == sorted(out_cal)

    def test_burst_then_sparse_resizes(self):
        # A dense burst (forces a shrink) followed by sparse events
        # (forces widens); order must survive every rebuild.
        rng = random.Random(14)
        heap, cal = _make_queues()
        seq = 0
        for _ in range(4000):  # dense: 4000 events in ~1 time unit
            t = rng.random()
            heap.push(_event(t, seq))
            cal.push(_event(t, seq))
            seq += 1
        for i in range(500):  # sparse: one event per ~10 time units
            t = 10.0 + i * 10.0 + rng.random()
            heap.push(_event(t, seq))
            cal.push(_event(t, seq))
            seq += 1
        assert _drain(heap) == _drain(cal)
        assert cal.resizes > 0

    @pytest.mark.parametrize("kind", ["heap", "calendar"])
    def test_simulator_cancellation_equivalence(self, kind):
        # Cancelled events are skipped identically through the engine.
        rng = random.Random(15)
        sim = Simulator(queue=kind)
        fired = []
        events = [
            sim.schedule(rng.random() * 10.0, fired.append, i)
            for i in range(500)
        ]
        for e in rng.sample(events, 200):
            e.cancel()
        sim.run()
        expected = sorted(
            (e.time, e.seq) for e in events if not e.cancelled
        )
        assert len(fired) == 300
        assert [events[i].time for i in fired] == [t for t, _ in expected]

    def test_extreme_times(self):
        heap, cal = _make_queues()
        times = [0.0, 1e-300, 1e300, float("inf"), 12.5, 1e-12]
        for seq, t in enumerate(times):
            heap.push(_event(t, seq))
            cal.push(_event(t, seq))
        assert _drain(heap) == _drain(cal)


def _sync_bursts(queue, *, periods, jitter):
    """Drive ``queue`` like E4's synchronised bottleneck and return the
    pop order plus the peak pending count.

    600 flows fire once per period, flow ``i`` at ``p * period + i *
    jitter`` (``jitter=0``: one 600-way tie), each re-arming one period
    ahead when it fires. A tagged flow fires 0.1 us after each burst, and
    a link-serialization chain fires every 160 us throughout.
    """
    period, flows, tx = 0.087, 600, 160e-6
    seq = 0
    peak = 0

    def push(t, kind, p):
        nonlocal seq, peak
        queue.push(Event(t, seq, None, (kind, p)))
        seq += 1
        peak = max(peak, queue.size)

    for i in range(flows):
        push(i * jitter, i, 0)
    push(1e-7, "tag", 0)
    push(0.0, "tx", 0)
    order = []
    while queue.size:
        event = queue.pop()
        order.append((event.time, event.seq))
        kind, p = event.args
        if kind == "tx":
            if event.time + tx < periods * period:
                push(event.time + tx, "tx", p)
        elif p + 1 < periods:
            offset = 1e-7 if kind == "tag" else kind * jitter
            push((p + 1) * period + offset, kind, p + 1)
    return order, peak


class TestSynchronisedBursts:
    """The E4 regime: large batches of tied or nearly tied timestamps
    must not make the calendar queue rebuild over and over."""

    def test_tied_bursts_never_resize(self):
        heap, cal = _make_queues()
        order, _ = _sync_bursts(heap, periods=20, jitter=0.0)
        assert _sync_bursts(cal, periods=20, jitter=0.0)[0] == order
        # Every burst bucket holds 600 ties plus a few distinct times:
        # no width can split it, so no rebuild is worth its cost.
        assert cal.resizes == 0
        assert cal.rehashed == 0

    def test_jittered_bursts_rehash_within_budget(self):
        heap, cal = _make_queues()
        order, _ = _sync_bursts(heap, periods=20, jitter=1e-9)
        cal_order, peak = _sync_bursts(cal, periods=20, jitter=1e-9)
        assert cal_order == order
        # Brown's amortisation bound, made explicit by the rehash budget.
        assert cal.rehashed <= len(order) + peak


class TestCalendarInternals:
    def test_peek_matches_pop(self):
        rng = random.Random(16)
        cal = CalendarQueue()
        for seq in range(1000):
            cal.push(_event(rng.random() * 5.0, seq))
        while cal.size:
            peeked = cal.peek()
            popped = cal.pop()
            assert peeked is popped
        assert cal.peek() is None

    def test_width_adapts_to_density(self):
        cal = CalendarQueue(width=1.0)
        rng = random.Random(17)
        for seq in range(5000):  # 5000 events in one initial bucket
            cal.push(_event(rng.random(), seq))
        _drain(cal)
        assert cal.resizes >= 1
        assert cal.width < 1.0

    def test_stats_exposes_resizes(self):
        cal = CalendarQueue()
        assert cal.stats() == {"queue_resizes": 0, "queue_rehashed": 0}

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            CalendarQueue(width=0.0)
        with pytest.raises(ConfigurationError):
            CalendarQueue(target_per_bucket=0)
        with pytest.raises(ConfigurationError):
            CalendarQueue(target_per_bucket=16, resize_hi=20)

    def test_len_and_bool(self):
        cal = CalendarQueue()
        assert not cal and len(cal) == 0
        cal.push(_event(1.0, 0))
        assert cal and len(cal) == 1


class TestMakeQueue:
    def test_kinds(self):
        assert make_queue("heap").kind == "heap"
        assert make_queue("calendar").kind == "calendar"

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert make_queue().kind == "calendar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "heap")
        assert make_queue().kind == "heap"

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ConfigurationError):
            make_queue()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_queue("fibonacci")
