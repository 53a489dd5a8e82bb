"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import (
    AllOf,
    AnyOf,
    Interrupt,
    Process,
    SimEvent,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.units import MS, SEC, US
from tests.test_dispatch_golden import record


class TestClockAndScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_call_after_runs_at_right_time(self, sim):
        seen = []
        sim.call_after(5 * US, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5 * US]

    def test_call_at_absolute_time(self, sim):
        seen = []
        sim.call_after(1 * US, lambda: None)
        sim.call_at(10 * US, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10 * US]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.call_after(-1, lambda: None)

    def test_fifo_order_for_simultaneous_events(self, sim):
        order = []
        for tag in range(5):
            sim.call_after(3 * US, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=7 * US)
        assert sim.now == 7 * US

    def test_run_until_does_not_execute_later_events(self, sim):
        seen = []
        sim.call_after(10 * US, lambda: seen.append("late"))
        sim.run(until=5 * US)
        assert seen == []
        sim.run()
        assert seen == ["late"]

    def test_successive_run_calls_compose(self, sim):
        sim.run(until=2 * US)
        sim.run(until=5 * US)
        assert sim.now == 5 * US

    def test_run_empty_heap_is_noop(self, sim):
        assert sim.run() == 0


class TestSimEvent:
    def test_trigger_delivers_value(self, sim):
        event = sim.event("e")
        event.trigger(42)
        assert event.triggered and event.ok
        assert event.value == 42

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()

    def test_fail_propagates_exception(self, sim):
        event = sim.event()
        event.fail(RuntimeError("boom"))
        assert event.triggered and not event.ok
        with pytest.raises(RuntimeError):
            event.value

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_after_trigger_still_fires(self, sim):
        event = sim.event()
        event.trigger("x")
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        sim.run()
        assert seen == ["x"]

    def test_callbacks_run_at_trigger_time(self, sim):
        event = sim.event()
        times = []
        event.add_callback(lambda ev: times.append(sim.now))
        sim.call_after(3 * US, lambda: event.trigger())
        sim.run()
        assert times == [3 * US]


class TestTimeout:
    def test_timeout_triggers_after_delay(self, sim):
        timeout = sim.timeout(9 * US, value="done")
        sim.run()
        assert timeout.value == "done"

    def test_zero_timeout(self, sim):
        timeout = sim.timeout(0)
        sim.run()
        assert timeout.triggered

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-5)


class TestProcess:
    def test_process_runs_and_returns(self, sim):
        def body():
            yield sim.timeout(1 * US)
            return "result"

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == "result"
        assert not proc.alive

    def test_process_receives_event_values(self, sim):
        def body():
            got = yield sim.timeout(1 * US, value=10)
            return got + 1

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == 11

    def test_processes_interleave_by_time(self, sim):
        order = []

        def body(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.spawn(body("b", 2 * US))
        sim.spawn(body("a", 1 * US))
        sim.run()
        assert order == ["a", "b"]

    def test_join_another_process(self, sim):
        def child():
            yield sim.timeout(5 * US)
            return "child-result"

        def parent(child_proc):
            got = yield child_proc
            return got

        child_proc = sim.spawn(child())
        parent_proc = sim.spawn(parent(child_proc))
        sim.run()
        assert parent_proc.value == "child-result"

    def test_yield_from_delegation(self, sim):
        def inner():
            yield sim.timeout(2 * US)
            return 7

        def outer():
            value = yield from inner()
            return value * 2

        proc = sim.spawn(outer())
        sim.run()
        assert proc.value == 14

    def test_yielding_non_event_raises(self, sim):
        def body():
            yield 12345

        sim.spawn(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_failed_event_raises_inside_process(self, sim):
        event = sim.event()
        caught = []

        def body():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(body())
        sim.call_after(1 * US, lambda: event.fail(RuntimeError("io error")))
        sim.run()
        assert caught == ["io error"]

    def test_unwaited_process_exception_propagates(self, sim):
        def body():
            yield sim.timeout(1 * US)
            raise ValueError("unhandled")

        sim.spawn(body())
        with pytest.raises(ValueError):
            sim.run()

    def test_waited_process_exception_fails_waiter(self, sim):
        def child():
            yield sim.timeout(1 * US)
            raise ValueError("child died")

        caught = []

        def parent(child_proc):
            try:
                yield child_proc
            except ValueError as exc:
                caught.append(str(exc))

        child_proc = sim.spawn(child())
        sim.spawn(parent(child_proc))
        sim.run()
        assert caught == ["child died"]

    def test_interrupt_stops_process(self, sim):
        progress = []

        def body():
            progress.append("start")
            yield sim.timeout(100 * US)
            progress.append("end")  # never reached

        proc = sim.spawn(body())
        sim.call_after(10 * US, lambda: proc.interrupt("killed"))
        sim.run()
        assert progress == ["start"]
        assert not proc.alive
        assert proc.triggered  # join still completes

    def test_interrupt_can_be_handled(self, sim):
        outcome = []

        def body():
            try:
                yield sim.timeout(100 * US)
            except Interrupt as interrupt:
                outcome.append(interrupt.cause)

        proc = sim.spawn(body())
        sim.call_after(1 * US, lambda: proc.interrupt("reason"))
        sim.run()
        assert outcome == ["reason"]

    def test_interrupted_process_ignores_stale_event(self, sim):
        def body():
            yield sim.timeout(10 * US)

        proc = sim.spawn(body())
        sim.call_after(1 * US, lambda: proc.interrupt())
        sim.run()  # the 10us timeout still fires but must not resume it
        assert not proc.alive

    @pytest.mark.parametrize("handled", [False, True])
    def test_self_interrupt_ends_the_process_once(self, sim, handled):
        # The interrupt lands while the process waits on the event it
        # yielded after interrupting itself; that event's later wake
        # must not resume the finished generator.
        procs = []

        def body():
            try:
                procs[0].interrupt("self")
                yield sim.timeout(1 * US)
            except Interrupt:
                if not handled:
                    raise
            return "done"

        procs.append(sim.spawn(body()))
        sim.run()
        assert not procs[0].alive
        assert procs[0].value == ("done" if handled else None)
        assert sim.now == 1 * US


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        events = [sim.timeout(i * US, value=i) for i in (3, 1, 2)]
        combined = sim.all_of(events)
        sim.run()
        assert combined.value == [3, 1, 2]
        assert sim.now == 3 * US

    def test_all_of_empty_triggers_immediately(self, sim):
        combined = sim.all_of([])
        assert combined.triggered
        assert combined.value == []

    def test_all_of_fails_if_child_fails(self, sim):
        event = sim.event()
        combined = sim.all_of([sim.timeout(1 * US), event])
        sim.call_after(2 * US, lambda: event.fail(RuntimeError("x")))
        sim.run()
        assert combined.triggered and not combined.ok

    def test_any_of_returns_winner(self, sim):
        slow = sim.timeout(10 * US, value="slow")
        fast = sim.timeout(2 * US, value="fast")
        combined = sim.any_of([slow, fast])
        sim.run()
        winner, value = combined.value
        assert winner is fast and value == "fast"

    def test_any_of_requires_events(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])


class TestRunUntilTriggered:
    def test_returns_value(self, sim):
        event = sim.timeout(5 * US, value="v")
        assert sim.run_until_triggered(event) == "v"
        assert sim.now == 5 * US

    def test_raises_when_heap_drains(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_triggered(event)

    def test_respects_limit(self, sim):
        def ticker():
            while True:
                yield sim.timeout(1 * MS)

        sim.spawn(ticker())
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_triggered(event, limit=10 * MS)

    def test_limit_keeps_the_entry_past_it(self, sim):
        # The entry due after the limit must not be lost when the limit
        # trips: a later run() still fires it and counts it.
        early = sim.timeout(1 * MS, value="early")
        late = sim.timeout(20 * MS, value="late")
        with pytest.raises(SimulationError):
            sim.run_until_triggered(late, limit=10 * MS)
        assert early.value == "early"
        assert not late.triggered
        assert sim.now == 1 * MS
        assert sim.events_dispatched == 1
        sim.run()
        assert late.value == "late"
        assert sim.now == 20 * MS
        assert sim.events_dispatched == 2


_DELAYS = st.sampled_from([0, 1, 2, 5])
_SHARED = st.integers(0, 2)
_STEP = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("wait"), _SHARED),
    st.tuples(st.just("trigger"), _SHARED),
    st.tuples(st.just("fail"), _SHARED),
    st.tuples(st.just("all"), st.lists(_DELAYS, max_size=3), _SHARED),
    st.tuples(st.just("any"), st.lists(_DELAYS, min_size=1, max_size=3),
              _SHARED),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
    st.tuples(st.just("join"), _DELAYS),
)


class TestReadyQueue:
    """Zero-delay entries skip the heap without reordering dispatch."""

    @settings(max_examples=150, deadline=None)
    @given(programs=st.lists(st.lists(_STEP, max_size=8), min_size=1,
                             max_size=6),
           splits=st.lists(st.integers(0, 30), max_size=3))
    def test_dispatch_is_strictly_ordered(self, programs, splits):
        # Dispatch order through run(until) splits, run_until_triggered
        # and a final run() is strictly increasing in (time, seq).
        sims = []
        lines = record(lambda: self._run_program(sims, programs, splits))
        dispatched = [tuple(map(int, line.split()[:2])) for line in lines]
        assert len(dispatched) == sims[0].events_dispatched
        assert all(a < b for a, b in zip(dispatched, dispatched[1:]))

    @staticmethod
    def _run_program(sims, programs, splits):
        sim = Simulator()
        sims.append(sim)
        shared = [sim.event("shared-%d" % k) for k in range(3)]
        procs = []

        def child(delay):
            yield sim.timeout(delay)

        def body(steps):
            for kind, *args in steps:
                try:
                    if kind == "sleep":
                        yield sim.timeout(args[0])
                    elif kind == "wait":
                        yield shared[args[0]]
                    elif kind == "trigger":
                        if not shared[args[0]].triggered:
                            shared[args[0]].trigger(args[0])
                    elif kind == "fail":
                        if not shared[args[0]].triggered:
                            shared[args[0]].fail(KeyError(args[0]))
                    elif kind in ("all", "any"):
                        events = [sim.timeout(d) for d in args[0]]
                        events.append(shared[args[1]])
                        yield (sim.all_of(events) if kind == "all"
                               else sim.any_of(events))
                    elif kind == "interrupt":
                        procs[args[0] % len(procs)].interrupt(kind)
                    else:
                        yield sim.spawn(child(args[0]))
                except (Interrupt, KeyError):
                    pass

        for steps in programs:
            procs.append(sim.spawn(body(steps)))
        for until in sorted(splits):
            sim.run(until=until)
            assert not sim._ready
        try:
            sim.run_until_triggered(procs[0])
        except SimulationError:
            pass  # it waits on an event nothing triggers
        sim.run()

    def test_earlier_pushed_timeout_runs_before_zero_delay_entry(self, sim):
        seen = []

        def at_five():
            seen.append("first")
            sim.call_after(0, lambda: seen.append(("zero", late.triggered)))

        sim.call_after(5, at_five)
        late = sim.timeout(5)  # pushed at 0, due at 5, after at_five
        sim.run()
        assert seen == ["first", ("zero", True)]

    def test_run_until_returns_with_ready_queue_empty(self, sim):
        gate = sim.event("gate")
        woken = []

        def waiter(tag):
            yield gate
            yield sim.timeout(0)
            woken.append((tag, sim.now))

        for tag in range(3):
            sim.spawn(waiter(tag))
        sim.call_after(3, lambda: gate.trigger())
        sim.call_after(4, lambda: woken.append("late"))
        assert sim.run(until=3) == 3
        assert not sim._ready
        assert woken == [(0, 3), (1, 3), (2, 3)]

    def test_run_until_triggered_uses_ready_work_before_giving_up(self, sim):
        event = sim.event("done")

        def chain():
            for _ in range(3):
                yield sim.timeout(0)
            event.trigger("v")

        sim.spawn(chain())
        assert sim.run_until_triggered(event) == "v"
        assert sim.now == 0

    def test_run_until_triggered_runs_out_only_when_both_queues_empty(
            self, sim):
        never = sim.event("never")
        sim.call_after(0, lambda: None)
        sim.call_after(2, lambda: None)
        with pytest.raises(SimulationError, match="ran out of work"):
            sim.run_until_triggered(never)
        assert sim.events_dispatched == 2
        assert sim.now == 2

    def test_run_after_limit_error_dispatches_every_entry(self, sim):
        gate = sim.event("gate")
        late = sim.timeout(20, value="late")
        done = []

        def waiter(tag):
            yield gate
            done.append(tag)

        for tag in range(3):
            sim.spawn(waiter(tag))
        sim.call_after(1, lambda: gate.trigger())
        with pytest.raises(SimulationError, match="limit"):
            sim.run_until_triggered(late, limit=10)
        dispatched = sim.events_dispatched
        assert done == [0, 1, 2]
        # Zero-delay work queued at a time past a later call's limit
        # stays queued through the error too.
        sim.call_after(0, lambda: done.append("ready"))
        with pytest.raises(SimulationError, match="limit"):
            sim.run_until_triggered(late, limit=0)
        assert sim.events_dispatched == dispatched
        sim.run()
        assert done == [0, 1, 2, "ready"]
        assert late.value == "late"
        assert sim.events_dispatched == dispatched + 2
