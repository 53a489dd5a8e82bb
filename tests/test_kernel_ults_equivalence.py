"""The flat domain loop schedules exactly like the nested-generator one.

:class:`NestedDomain` keeps the earlier shape of the domain process as a
test-only reference: ``_run`` enters one generator per step through
``yield from`` (``_activate``, ``_step``, ``_step_touch``), tests for
pending events with ``any()`` over ``EventChannel.pending`` and picks
threads with a modulo scan over ``Thread.runnable``. Random thread
programs run once on each; every effect must happen in the same order
at the same simulated time, with the same number of dispatched events
and the same primitive charges.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hw.mmu import AccessKind
from repro.hw.platform import Machine
from repro.kernel import kernel as kernel_module
from repro.kernel.domain import Domain
from repro.kernel.threads import Compute, ThreadState, Touch, Wait, Yield
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC, US
from repro.system import NemesisSystem

MB = 1024 * 1024
NPAGES = 12
FRAMES = 4
NEVENTS = 4
SWAP_QOS = QoSSpec(period_ns=100 * MS, slice_ns=50 * MS, extra=True,
                   laxity_ns=5 * MS)


class NestedDomain(Domain):
    """The domain process as one generator per step (reference only)."""

    def _has_pending_events(self):
        return any(channel.pending for channel in self.channels)

    def _runnable_thread(self):
        n = len(self.threads)
        for offset in range(n):
            thread = self.threads[(self._rr_next + offset) % n]
            if thread.runnable:
                self._rr_next = (self._rr_next + offset + 1) % n
                return thread
        return None

    def _charge_meter(self):
        ns = self.meter.take()
        if ns:
            return self.cpu.consume(ns)
        return None

    def _run(self):
        sim = self.sim
        while not self.dead:
            has_events = self._has_pending_events()
            thread = None if has_events else self._runnable_thread()
            if not has_events and thread is None:
                if self._wake.triggered:
                    self._wake = sim.event(self._wake_name)
                    continue
                yield self._wake
                continue
            if has_events:
                yield from self._activate()
                continue
            yield from self._step(thread)

    def _activate(self):
        self.activations += 1
        self._c_activations.inc()
        self.meter.charge("activate")
        self.in_activation_handler = True
        try:
            for channel in list(self.channels):
                if not channel.pending:
                    continue
                for payload in channel.collect():
                    self.meter.charge("demux_event")
                    if channel.handler is not None:
                        channel.handler(payload)
        finally:
            self.in_activation_handler = False
        self.meter.charge("ults_schedule")
        burst = self._charge_meter()
        if burst is not None:
            yield burst

    def _advance(self, thread):
        try:
            if thread.next_throw is not None:
                exc, thread.next_throw = thread.next_throw, None
                effect = thread.gen.throw(exc)
            else:
                value, thread.next_send = thread.next_send, None
                effect = thread.gen.send(value)
        except StopIteration as stop:
            thread.state = ThreadState.DEAD
            thread.done.trigger(getattr(stop, "value", None))
            return None
        return effect

    def _step(self, thread):
        if thread is not self._last_thread:
            self.meter.charge("thread_switch")
            self._last_thread = thread
        effect = thread.pending_effect
        if effect is None:
            effect = self._advance(thread)
            if effect is None:
                burst = self._charge_meter()
                if burst is not None:
                    yield burst
                return
            thread.pending_effect = effect
        if isinstance(effect, Compute):
            thread.pending_effect = None
            total = effect.ns + self.meter.take()
            if total:
                yield self.cpu.consume(total, label=effect.label)
        elif isinstance(effect, Touch):
            yield from self._step_touch(thread, effect)
        elif isinstance(effect, Wait):
            thread.pending_effect = None
            event = effect.event
            if event.triggered:
                if event.ok:
                    thread.next_send = event.value
                else:
                    thread.next_throw = event._value
            else:
                thread.state = ThreadState.BLOCKED
                thread.wait_event = event
                event.add_callback(
                    lambda ev, t=thread: self._event_wakeup(t, ev))
            burst = self._charge_meter()
            if burst is not None:
                yield burst
        elif isinstance(effect, Yield):
            thread.pending_effect = None
            thread.next_send = None
        else:
            raise TypeError("thread %s yielded %r" % (thread.name, effect))

    def _step_touch(self, thread, effect):
        result = self.kernel.access(self.protdom, effect.va, effect.kind)
        if result.ok:
            thread.pending_effect = None
            thread.next_send = result
        else:
            thread.state = ThreadState.FAULTED
            thread.faults += 1
            self.kernel.dispatch_fault(self, thread, result)
        burst = self._charge_meter()
        if burst is not None:
            yield burst


# One op of a thread program. Touches hit a paged stretch with more
# pages than frames, so first touches and evicted pages fault.
op = st.one_of(
    st.tuples(st.just("compute"), st.integers(0, 3 * MS)),
    st.tuples(st.just("touch"), st.integers(0, NPAGES - 1),
              st.sampled_from([AccessKind.READ, AccessKind.WRITE])),
    st.tuples(st.just("wait"), st.integers(0, NEVENTS - 1)),
    st.tuples(st.just("yield")),
    st.tuples(st.just("finish")),
)
programs = st.lists(st.lists(op, max_size=12), min_size=1, max_size=6)
# When the outside timer fires each event, and whether it fails it.
firings = st.lists(st.tuples(st.integers(0, 40 * MS), st.booleans()),
                   min_size=NEVENTS, max_size=NEVENTS)


def _run_programs(domain_cls, programs, firings, cpu="fifo"):
    """Run the programs in one domain of ``domain_cls``; return the log
    of (thread, op index, what, sim.now) plus the final counters."""
    system = NemesisSystem(machine=Machine(name="eq", phys_mem_bytes=16 * MB),
                           cpu=cpu)
    sim = system.sim
    with mock.patch.object(kernel_module, "Domain", domain_cls):
        app = system.new_app("eq", guaranteed_frames=FRAMES + 2)
    assert type(app.domain) is domain_cls
    stretch = app.new_stretch(NPAGES * system.machine.page_size)
    driver = app.paged_driver(frames=FRAMES, swap_bytes=2 * MB,
                              qos=SWAP_QOS)
    app.bind(stretch, driver)
    page = system.machine.page_size
    events = [sim.event("ext-%d" % index) for index in range(NEVENTS)]
    log = []

    def timer():
        for when, index in sorted((when, index) for index, (when, _)
                                  in enumerate(firings)):
            if when > sim.now:
                yield sim.timeout(when - sim.now)
            if firings[index][1]:
                events[index].fail(ValueError(index))
            else:
                events[index].trigger(index)

    def body(tid, program):
        for index, step in enumerate(program):
            log.append((tid, index, step[0], sim.now))
            if step[0] == "compute":
                yield Compute(step[1], label="c%d" % tid)
            elif step[0] == "touch":
                result = yield Touch(stretch.base + step[1] * page, step[2])
                log.append((tid, index, result.ok, sim.now))
            elif step[0] == "wait":
                try:
                    value = yield Wait(events[step[1]])
                except ValueError as exc:
                    value = ("failed", exc.args[0])
                log.append((tid, index, value, sim.now))
            elif step[0] == "yield":
                yield Yield()
            else:
                return tid
        return tid

    sim.spawn(timer(), name="timer")
    threads = [app.spawn(body(tid, program), name="t%d" % tid)
               for tid, program in enumerate(programs)]
    sim.run_until_triggered(sim.all_of([t.done for t in threads]),
                            limit=30 * SEC)
    sim.run(until=sim.now + 100 * MS)
    return {
        "log": log,
        "done": [t.done.value for t in threads],
        "faults": [t.faults for t in threads],
        "now": sim.now,
        "events_dispatched": sim.events_dispatched,
        "charges": dict(system.meter.counts),
        "activations": app.domain.activations,
        "cpu_bursts": app.domain.cpu.bursts,
    }


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs=programs, firings=firings,
       cpu=st.sampled_from(["fifo", "atropos"]))
def test_flat_loop_matches_nested_generators(programs, firings, cpu):
    reference = _run_programs(NestedDomain, programs, firings, cpu)
    flat = _run_programs(Domain, programs, firings, cpu)
    assert flat == reference


def test_programs_exercise_every_path():
    # A fixed program that faults, blocks, catches a failed wait,
    # yields, computes and finishes early, so the comparison above is
    # known to cover each branch at least once.
    programs = [
        [("touch", 0, AccessKind.WRITE), ("wait", 0), ("compute", 2 * MS),
         ("yield",), ("touch", 7, AccessKind.READ), ("finish",),
         ("compute", 1 * MS)],
        [("wait", 1), ("touch", 0, AccessKind.READ), ("yield",),
         ("compute", 0)],
        [("compute", 5 * US)] + [("touch", n, AccessKind.WRITE)
                                 for n in range(NPAGES)],
    ]
    firings = [(1 * MS, False), (3 * MS, True), (0, False), (0, True)]
    reference = _run_programs(NestedDomain, programs, firings)
    flat = _run_programs(Domain, programs, firings)
    assert flat == reference
    assert reference["done"] == [0, 1, 2]
    assert sum(reference["faults"]) >= NPAGES
    woken = {entry[:3]: entry[3] for entry in reference["log"]}
    assert woken[(0, 1, 0)] >= 1 * MS  # blocked until the timer fired
    assert woken[(1, 0, ("failed", 1))] >= 3 * MS


@settings(max_examples=200, deadline=None)
@given(states=st.lists(st.sampled_from(list(ThreadState)), max_size=8),
       start=st.integers(0, 7))
def test_runnable_choice_matches_modulo_scan(states, start):
    class Stub:
        def __init__(self, state):
            self.state = state

        @property
        def runnable(self):
            return self.state is ThreadState.RUNNABLE

    threads = [Stub(state) for state in states]
    start = start % len(threads) if threads else 0
    chosen = []
    for cls in (NestedDomain, Domain):
        holder = Domain.__new__(cls)
        holder.threads = threads
        holder._rr_next = start
        thread = cls._runnable_thread(holder)
        chosen.append((thread, holder._rr_next))
    assert chosen[0] == chosen[1]
