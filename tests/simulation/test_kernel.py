"""Discrete-event kernel: ordering, cancellation, budget, hooks, restore."""

import random

import pytest

from repro.errors import SimulationError
from repro.simulation import Kernel, cycles_to_ps
from repro.simulation.kernel import EV_ARGS, EV_CALLBACK, EV_SEQ, EV_TIME, PS_PER_US


class TestScheduling:
    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(300, lambda: fired.append("c"))
        kernel.schedule(100, lambda: fired.append("a"))
        kernel.schedule(200, lambda: fired.append("b"))
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        kernel = Kernel()
        fired = []
        for label in "abc":
            kernel.schedule(50, lambda l=label: fired.append(l))
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(500, lambda: seen.append(kernel.now_ps))
        kernel.run()
        assert seen == [500]

    def test_nested_scheduling(self):
        kernel = Kernel()
        fired = []
        def first():
            fired.append(("first", kernel.now_ps))
            kernel.schedule(10, lambda: fired.append(("second", kernel.now_ps)))
        kernel.schedule(100, first)
        kernel.run()
        assert fired == [("first", 100), ("second", 110)]

    def test_negative_delay_rejected(self):
        kernel = Kernel()
        with pytest.raises(SimulationError):
            kernel.schedule(-1, lambda: None)

    def test_negative_delay_is_a_value_error(self):
        # regression: the guard must raise a ValueError subclass so plain
        # argument validation catches it (mirrors cycles_to_ps's guard)
        kernel = Kernel()
        with pytest.raises(ValueError):
            kernel.schedule(-1, lambda: None)

    def test_schedule_at_past_time_is_a_value_error(self):
        kernel = Kernel()
        kernel.schedule(10, lambda: None)
        kernel.run()
        assert kernel.now_ps == 10
        with pytest.raises(ValueError):
            kernel.schedule_at(5, lambda: None)

    def test_schedule_at(self):
        kernel = Kernel()
        seen = []
        kernel.schedule_at(777, lambda: seen.append(kernel.now_ps))
        kernel.run()
        assert seen == [777]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        kernel = Kernel()
        fired = []
        event = kernel.schedule(100, lambda: fired.append("x"))
        kernel.cancel(event)
        kernel.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        kernel = Kernel()
        kernel.schedule(10, lambda: None)
        event = kernel.schedule(20, lambda: None)
        kernel.cancel(event)
        assert kernel.pending == 1


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(100, lambda: fired.append("early"))
        kernel.schedule(10_000, lambda: fired.append("late"))
        dispatched = kernel.run(until_ps=1000)
        assert fired == ["early"]
        assert dispatched == 1
        assert kernel.now_ps == 1000  # clock advanced to the horizon

    def test_resume_after_until(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(100, lambda: fired.append(1))
        kernel.schedule(500, lambda: fired.append(2))
        kernel.run(until_ps=200)
        kernel.run()
        assert fired == [1, 2]

    def test_event_budget(self):
        kernel = Kernel(max_events=10)
        def loop():
            kernel.schedule(1, loop)
        kernel.schedule(1, loop)
        with pytest.raises(SimulationError):
            kernel.run(until_ps=10_000)


class TestCyclesToPs:
    def test_50mhz_cycle_is_20ns(self):
        assert cycles_to_ps(1, 50_000_000) == 20_000

    def test_scales_linearly(self):
        assert cycles_to_ps(100, 50_000_000) == 100 * 20_000

    def test_microsecond_constant(self):
        assert cycles_to_ps(50, 50_000_000) == PS_PER_US

    def test_zero_frequency_rejected(self):
        with pytest.raises(SimulationError):
            cycles_to_ps(1, 0)

    def test_negative_cycles_rejected(self):
        with pytest.raises(SimulationError, match="non-negative"):
            cycles_to_ps(-1, 50_000_000)

    def test_zero_cycles_ok(self):
        assert cycles_to_ps(0, 50_000_000) == 0


class TestPendingCounter:
    """`Kernel.pending` is a live counter (O(1)), not a heap scan."""

    def test_counts_scheduled_events(self):
        kernel = Kernel()
        for delay in (10, 20, 30):
            kernel.schedule(delay, lambda: None)
        assert kernel.pending == 3

    def test_cancel_decrements(self):
        kernel = Kernel()
        events = [kernel.schedule(d, lambda: None) for d in (10, 20, 30)]
        kernel.cancel(events[1])
        assert kernel.pending == 2

    def test_double_cancel_is_idempotent(self):
        kernel = Kernel()
        event = kernel.schedule(10, lambda: None)
        kernel.schedule(20, lambda: None)
        kernel.cancel(event)
        kernel.cancel(event)
        assert kernel.pending == 1

    def test_cancel_after_dispatch_is_a_noop(self):
        kernel = Kernel()
        event = kernel.schedule(10, lambda: None)
        kernel.schedule(20, lambda: None)
        kernel.run(until_ps=15)
        kernel.cancel(event)  # already fired: must not corrupt the counter
        assert kernel.pending == 1

    def test_dispatch_decrements(self):
        kernel = Kernel()
        for delay in (10, 20, 30):
            kernel.schedule(delay, lambda: None)
        kernel.run(until_ps=25)
        assert kernel.pending == 1

    def test_tombstones_are_compacted(self):
        # cancel-heavy models (timer resets) must not grow the queue
        # unboundedly: once tombstones outnumber live events the heap is
        # rebuilt with only live entries
        kernel = Kernel()
        events = [kernel.schedule(d + 1, lambda: None) for d in range(100)]
        for event in events[:90]:
            kernel.cancel(event)
        assert kernel.pending == 10
        assert len(kernel._heap) < 30
        assert kernel.run() == 10


class TestPendingEvents:
    """`Kernel.pending_events()` is the one record of outstanding work."""

    def test_live_events_in_sequence_order_with_callback_and_args(self):
        kernel = Kernel()
        first, second = (lambda *args: None), (lambda *args: None)
        kernel.schedule(30, first, "a", 1)
        kernel.schedule(10, second)
        kernel.schedule(10, first, "b")
        pending = kernel.pending_events()
        # sequence order, not dispatch (time) order
        assert [event[EV_SEQ] for event in pending] == [1, 2, 3]
        rows = [
            (event[EV_TIME], event[EV_CALLBACK], event[EV_ARGS]) for event in pending
        ]
        assert rows == [(30, first, ("a", 1)), (10, second, ()), (10, first, ("b",))]

    def test_skips_cancelled_and_dispatched_events(self):
        kernel = Kernel()
        events = [kernel.schedule(d, lambda: None) for d in (10, 20, 30, 40)]
        kernel.cancel(events[2])
        kernel.run(until_ps=15)
        assert kernel.pending_events() == [events[1], events[3]]
        assert len(kernel.pending_events()) == kernel.pending

    def test_matches_pending_after_compaction(self):
        kernel = Kernel()
        events = [kernel.schedule(d + 1, lambda: None) for d in range(50)]
        for event in events[::3] + events[1::3]:
            kernel.cancel(event)
        assert kernel.pending_events() == events[2::3]
        assert kernel.pending == len(events[2::3])


class TestStateProtocol:
    def test_dispatched_counts_lifetime_events(self):
        kernel = Kernel()
        for delay in (10, 20):
            kernel.schedule(delay, lambda: None)
        kernel.run()
        assert kernel.dispatched == 2

    def test_state_roundtrip_preserves_clock_and_counters(self):
        kernel = Kernel()
        kernel.schedule(10, lambda: None)
        kernel.schedule(20, lambda: None)
        kernel.run()
        state = kernel.state_dict()

        restored = Kernel()
        restored.load_state_dict(state)
        assert restored.now_ps == kernel.now_ps
        assert restored.dispatched == 2
        # new events get fresh (higher) sequence numbers
        event = restored.schedule(5, lambda: None)
        assert event[EV_SEQ] > 2

    def test_load_requires_fresh_kernel(self):
        used = Kernel()
        used.schedule(10, lambda: None)
        with pytest.raises(SimulationError, match="fresh"):
            used.load_state_dict({"now_ps": 0, "sequence": 0, "dispatched": 0})

    def test_restore_event_replays_original_order(self):
        # two same-time events restored out of order must still fire in
        # original sequence order — the property byte-identical resume
        # rests on
        kernel = Kernel()
        kernel.load_state_dict({"now_ps": 100, "sequence": 7, "dispatched": 5})
        fired = []
        kernel.restore_event(150, 6, lambda: fired.append("b"))
        kernel.restore_event(150, 3, lambda: fired.append("a"))
        kernel.run()
        assert fired == ["a", "b"]

    def test_restore_event_rejects_future_sequence(self):
        kernel = Kernel()
        kernel.load_state_dict({"now_ps": 0, "sequence": 2, "dispatched": 0})
        with pytest.raises(SimulationError, match="ahead"):
            kernel.restore_event(10, 3, lambda: None)

    def test_restore_event_rejects_past_time(self):
        kernel = Kernel()
        kernel.load_state_dict({"now_ps": 100, "sequence": 5, "dispatched": 0})
        with pytest.raises(SimulationError, match="before"):
            kernel.restore_event(50, 1, lambda: None)

    def test_after_event_hook_fires_per_dispatch(self):
        kernel = Kernel()
        calls = []
        kernel.after_event = lambda: calls.append(kernel.now_ps)
        kernel.schedule(10, lambda: None)
        kernel.schedule(20, lambda: None)
        kernel.run()
        assert calls == [10, 20]

    def test_pending_events_replay_identically(self):
        # the snapshot protocol never records queue contents, so pending
        # events re-materialized into a fresh kernel must replay in the
        # identical (time, sequence) order
        reference = Kernel()
        rng = random.Random(99)
        events = [
            reference.schedule(rng.randrange(1, 2_000_000), lambda: None)
            for _ in range(300)
        ]
        reference.run(until_ps=500_000)
        survivors = [
            (event[0], event[EV_SEQ])
            for event in events
            if not event[3] and not event[4]
        ]
        state = reference.state_dict()
        reference.run()

        target = Kernel()
        target.load_state_dict(state)
        replay = []
        for time_ps, sequence in survivors:
            target.restore_event(
                time_ps, sequence, lambda s=sequence: replay.append(s)
            )
        assert target.pending == len(survivors)
        target.run()
        assert replay == [s for _, s in sorted(survivors)]
        assert target.now_ps == reference.now_ps
        assert target.dispatched == reference.dispatched


class TestQueueEdgeCases:
    def test_same_tick_fifo_order(self):
        # a whole tick of same-time events fires in scheduling order,
        # including events added to the tick from within the tick itself
        # (they carry larger sequence numbers, so they fire last)
        kernel = Kernel()
        fired = []
        kernel.schedule(500, lambda: fired.append("late"))

        def first():
            fired.append("first")
            kernel.schedule(0, lambda: fired.append("nested"))

        kernel.schedule(100, first)
        for index in range(50):
            kernel.schedule(100, lambda i=index: fired.append(i))
        kernel.run()
        assert fired == ["first"] + list(range(50)) + ["nested", "late"]

    def test_far_future_overflow_ordering(self):
        # delays spanning ten orders of magnitude dispatch in time order
        kernel = Kernel()
        fired = []
        delays = [
            5, 1_000, 40_000, 70_000_000, 3_000_000_000, 70_000_001, 6
        ]
        for delay in delays:
            kernel.schedule(delay, lambda d=delay: fired.append(d))
        kernel.run()
        assert fired == sorted(delays)

    def test_cancel_tombstones(self):
        kernel = Kernel()
        fired = []
        events = [
            kernel.schedule(delay, lambda d=delay: fired.append(d))
            for delay in (10, 2_000, 50_000, 900_000_000)
        ]
        for event in events[::2]:
            kernel.cancel(event)
        assert kernel.pending == 2
        kernel.run()
        assert fired == [2_000, 900_000_000]

    def test_compaction_preserves_order_under_cancel_storm(self):
        kernel = Kernel()
        fired = []
        rng = random.Random(17)
        events = [
            kernel.schedule(
                rng.randrange(1, 5_000_000), lambda i=i: fired.append(i)
            )
            for i in range(400)
        ]
        keep = []
        for index, event in enumerate(events):
            if index % 5 == 0:
                keep.append((event[0], event[EV_SEQ], index))
            else:
                kernel.cancel(event)
        assert kernel.pending == len(keep)
        kernel.run()
        assert fired == [index for _, _, index in sorted(keep)]

    def test_until_pushback_resumes_exactly(self):
        kernel = Kernel()
        fired = []
        for delay in (100, 200, 300, 400):
            kernel.schedule(delay, lambda d=delay: fired.append(d))
        assert kernel.run(until_ps=250) == 2
        assert kernel.now_ps == 250
        assert kernel.run() == 2
        assert fired == [100, 200, 300, 400]

    def test_hook_registered_mid_run_takes_effect(self):
        # a callback that installs after_event mid-run gets the hook
        # called for its own dispatch
        kernel = Kernel()
        seen = []

        def hook():
            seen.append(kernel.dispatched)

        def install():
            kernel.after_event = hook

        kernel.schedule(10, install)
        kernel.schedule(20, lambda: None)
        kernel.schedule(30, lambda: kernel.__setattr__("after_event", None))
        kernel.schedule(40, lambda: None)
        kernel.run()
        # hook fires for the installing event (1), the next (2) and the
        # uninstalling event's dispatch happens before its hook phase (3)
        assert seen == [1, 2]

    def test_dispatched_coherent_inside_hooks(self):
        kernel = Kernel()
        counts = []
        kernel.after_event = lambda: counts.append(kernel.dispatched)
        for delay in (10, 20, 30):
            kernel.schedule(delay, lambda: None)
        kernel.run()
        assert counts == [1, 2, 3]
        assert kernel.dispatched == 3
