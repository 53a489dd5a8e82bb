"""The discrete-event simulator core.

A :class:`Simulator` owns an event heap keyed by ``(time, sequence)``,
plus a FIFO ready queue for entries due at the current time.
Work is expressed as *processes*: Python generators that ``yield``
:class:`SimEvent` instances to wait for them. The idiom is::

    def worker(sim, disk):
        yield sim.timeout(5 * MS)            # sleep
        done = disk.submit(request)          # returns a SimEvent
        result = yield done                  # wait for completion
        ...

    sim = Simulator()
    sim.spawn(worker(sim, disk), name="worker")
    sim.run()

The simulator is intentionally small — a few hundred lines — but complete
enough to express the whole Nemesis reproduction: one-shot events,
timeouts, process join, interrupt (used for domain kill in the intrusive
revocation protocol), failure propagation, and AllOf/AnyOf combinators.
"""

import heapq
from bisect import bisect_left
from collections import deque
from heapq import heappush

from repro.obs.metrics import NULL_INSTRUMENT, NULL_REGISTRY
from repro.sim.units import fmt_time

_PENDING = object()

#: Sentinel marking a queued entry whose callable takes no argument.
#: Heap and ready-queue entries are ``(time, seq, fn, arg)`` tuples;
#: scheduling with an explicit ``arg`` lets event callbacks run as
#: ``fn(event)`` without allocating a closure per waiter (the dominant
#: allocation in the pre-optimisation profile — see
#: docs/PERFORMANCE.md).
_NO_ARG = object()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The Nemesis frames allocator uses this to model killing a domain that
    fails to honour an intrusive revocation deadline.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class SimEvent:
    """A one-shot occurrence that processes may wait on.

    An event starts *pending*; calling :meth:`trigger` (or :meth:`fail`)
    moves it to *triggered* and schedules all waiting processes to resume
    at the current simulated time. Triggering twice is an error — events
    model facts that become true once (an IO completed, a fault was
    resolved) and never un-happen.
    """

    __slots__ = ("sim", "name", "_value", "_callbacks", "_is_error")

    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self._value = _PENDING
        self._callbacks = []
        self._is_error = False

    @property
    def triggered(self):
        """True once the event has been triggered or failed."""
        return self._value is not _PENDING

    @property
    def ok(self):
        """True if the event triggered successfully (not failed)."""
        return self.triggered and not self._is_error

    @property
    def value(self):
        """The value the event triggered with.

        Raises :class:`SimulationError` if the event is still pending, and
        re-raises the failure exception if the event failed.
        """
        if self._value is _PENDING:
            raise SimulationError("event %r has not triggered yet" % self.name)
        if self._is_error:
            raise self._value
        return self._value

    def trigger(self, value=None):
        """Mark the event as having occurred, waking all waiters."""
        if self._value is not _PENDING:
            raise SimulationError("event %r triggered twice" % self.name)
        self._value = value
        if self._callbacks:
            self._flush()
        return self

    def fail(self, exception):
        """Mark the event as failed; waiters see the exception raised."""
        if self._value is not _PENDING:
            raise SimulationError("event %r triggered twice" % self.name)
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._is_error = True
        if self._callbacks:
            self._flush()
        return self

    def add_callback(self, fn):
        """Call ``fn(event)`` when the event triggers (immediately if it
        already has). Callbacks run at the simulated time of the trigger."""
        if self._value is not _PENDING:
            self.sim._schedule(0, fn, self)
        else:
            self._callbacks.append(fn)

    def _flush(self):
        # The one fan-out routine: each waiter goes straight onto the
        # ready queue at the current time with the next sequence number,
        # the same entry ``_schedule(0, fn, self)`` would append.
        callbacks, self._callbacks = self._callbacks, []
        sim = self.sim
        append = sim._ready.append
        now = sim._now
        seq = sim._seq
        for fn in callbacks:
            seq += 1
            append((now, seq, fn, self))
        sim._seq = seq

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "failed" if self._is_error else "triggered"
        return "<%s %s %s>" % (type(self).__name__, self.name or id(self), state)


class Timeout(SimEvent):
    """An event that triggers itself after a fixed delay.

    :meth:`cancel` disarms a pending timeout: the heap entry still pops
    at the scheduled time but no longer triggers the event. Deadline
    timers whose race was already decided (the intrusive-revocation
    reply arrived) are cancelled rather than left to fire stale.
    """

    __slots__ = ("delay", "cancelled", "_fire_value")

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise ValueError("negative timeout: %r" % delay)
        # Field setup and scheduling are inlined (no super().__init__, no
        # _schedule call) and the human-readable "timeout(5.000ms)" name
        # is computed lazily in __repr__: timeouts are created once per
        # simulated sleep, and these calls dominated creation cost.
        self.sim = sim
        self.name = "timeout"
        self._value = _PENDING
        self._callbacks = []
        self._is_error = False
        self.delay = delay
        self.cancelled = False
        self._fire_value = value
        sim._seq += 1
        if delay:
            heappush(sim._heap,
                     (sim._now + delay, sim._seq, Timeout._fire, self))
        else:
            sim._ready.append((sim._now, sim._seq, Timeout._fire, self))

    def _fire(self):
        if not self.cancelled and self._value is _PENDING:
            self._value = self._fire_value
            if self._callbacks:
                self._flush()

    def cancel(self):
        """Disarm the timeout; a no-op if it already triggered."""
        self.cancelled = True

    def __repr__(self):
        state = "pending"
        if self._value is not _PENDING:
            state = "failed" if self._is_error else "triggered"
        return "<Timeout %s %s>" % (fmt_time(self.delay), state)


class AllOf(SimEvent):
    """Triggers when every constituent event has triggered.

    Its value is the list of constituent values, in the order given. If a
    constituent fails, the AllOf fails with that exception.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim, events):
        super().__init__(sim, name="all_of")
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.trigger([])
            return
        for event in self._events:
            event.add_callback(self._child_done)

    def _child_done(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger([e.value for e in self._events])


class AnyOf(SimEvent):
    """Triggers when the first constituent event triggers.

    Its value is ``(event, value)`` for the winner. Failure of the winner
    propagates.
    """

    __slots__ = ("_events",)

    def __init__(self, sim, events):
        super().__init__(sim, name="any_of")
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        for event in self._events:
            event.add_callback(self._child_done)

    def _child_done(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self.trigger((event, event._value))


class Process(SimEvent):
    """A generator advanced by the simulator.

    The generator yields :class:`SimEvent` instances; the process resumes
    (with ``event.value`` as the result of the ``yield`` expression) when
    the event triggers. When the generator returns, the process — which is
    itself an event — triggers with the generator's return value, so other
    processes can join it by yielding it.

    Exceptions raised inside the generator fail the process. If nothing is
    waiting on a failed process, the exception propagates out of
    :meth:`Simulator.run` — silent process death hides bugs.
    """

    __slots__ = ("_gen", "_waiting_on", "_wait_since", "alive", "_defunct_ok",
                 "_on_event_cb")

    def __init__(self, sim, gen, name=""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise TypeError("Process requires a generator, got %r" % (gen,))
        self._gen = gen
        self._waiting_on = None
        self._wait_since = 0
        self.alive = True
        self._defunct_ok = False
        # One bound method for the process's whole life: creating it per
        # yield was a measurable share of resume cost.
        self._on_event_cb = self._on_event
        sim._schedule(0, Process._start, self)

    def _start(self):
        self._resume(None, None)

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on whatever event it was waiting on; the
        event itself is unaffected (it may trigger later, unobserved).
        """
        if not self.alive:
            return
        self._waiting_on = None
        self.sim._schedule(0, lambda: self._resume(None, Interrupt(cause)))

    def _on_event(self, event):
        # The wake path: one call per wake. The generator is resumed and
        # re-armed on the event it yields right here; only the cold
        # paths (a failed event, start, interrupt, generator exit) go
        # through _resume / _exit.
        if self._waiting_on is not event:
            return  # stale wakeup after an interrupt
        self._waiting_on = None
        sim = self.sim
        if sim._obs_live:
            # ``sim_process_wait_ns.observe`` written out; most waits are
            # zero and land in the precomputed bucket without a bisect.
            wait = sim._now - self._wait_since
            cell = sim._h_wake
            cell.count += 1
            if wait:
                cell.sum += wait
                cell.counts[bisect_left(cell.bounds, wait)] += 1
            else:
                cell.counts[sim._wake_zero_bucket] += 1
        if event._is_error:
            self._resume(None, event._value)
            return
        try:
            target = self._gen.send(event._value)
        except Exception as exc:
            self._exit(exc)
            return
        if not isinstance(target, SimEvent):
            self._bad_yield(target)
        self._waiting_on = target
        self._wait_since = sim._now
        if target._value is _PENDING:
            target._callbacks.append(self._on_event_cb)
        else:
            sim = target.sim
            sim._seq += 1
            sim._ready.append((sim._now, sim._seq, self._on_event_cb, target))

    def _resume(self, value, exception):
        if not self.alive:
            return
        try:
            if exception is not None:
                target = self._gen.throw(exception)
            else:
                target = self._gen.send(value)
        except Exception as exc:
            self._exit(exc)
            return
        if not isinstance(target, SimEvent):
            self._bad_yield(target)
        self._waiting_on = target
        self._wait_since = self.sim._now
        if target._value is _PENDING:
            target._callbacks.append(self._on_event_cb)
        else:
            sim = target.sim
            sim._seq += 1
            sim._ready.append((sim._now, sim._seq, self._on_event_cb, target))

    def _exit(self, exc):
        """The generator finished, died of an interrupt or raised."""
        self.alive = False
        # A process that interrupted itself dies still armed on the
        # event it yielded; that event's wake must find it stale.
        self._waiting_on = None
        if isinstance(exc, StopIteration):
            self.trigger(exc.value)
        elif isinstance(exc, Interrupt):
            # Interrupted and the generator did not handle it: dies quietly
            # (this is the "domain killed" path).
            if not self.triggered:
                self._defunct_ok = True
                self.trigger(None)
        elif self._callbacks:
            self.fail(exc)
        else:
            # Nobody is waiting: surface the error loudly.
            raise exc

    def _bad_yield(self, target):
        self.alive = False
        raise SimulationError(
            "process %r yielded %r; processes must yield SimEvent "
            "instances (use sim.timeout() to sleep)" % (self.name, target)
        )


class Simulator:
    """Owns the clock, the event heap and the ready queue, and runs
    processes.

    Ties in time are broken by insertion order, making runs deterministic
    given deterministic process code. Entries with a positive delay go on
    the heap; zero-delay entries (event fan-out, process starts and
    re-arms, ``Timeout(0)``) are appended to a FIFO ready queue instead,
    and cost no heap push or pop. The run loops dispatch heap entries due
    at the current time before ready ones. Such a heap entry was pushed
    at an earlier time, so its sequence number is lower than that of
    every ready entry, and dispatch stays in strict ``(time, seq)`` order:
    exactly the order a single heap would give.
    """

    def __init__(self, metrics=None):
        self._now = 0
        self._heap = []
        #: Zero-delay entries, all due at ``_now``: time cannot advance
        #: while the queue holds any.
        self._ready = deque()
        self._seq = 0
        self._process_count = 0
        #: Total entries executed from both queues, a plain int so the
        #: run loop never pays a metric call per event; flushed into the
        #: ``sim_events_dispatched_total`` counter after each run.
        self.events_dispatched = 0
        self._flushed_dispatched = 0
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_dispatched = self.metrics.counter(
            "sim_events_dispatched_total",
            help="heap entries executed (callbacks + process resumptions)"
        ).child()
        self._c_spawned = self.metrics.counter(
            "sim_processes_spawned_total").child()
        self._h_wake = self.metrics.histogram(
            "sim_process_wait_ns",
            help="simulated time a process spent waiting on the event it "
                 "yielded, measured at wakeup").child()
        # Fast-path flag: with a disabled registry every instrument is the
        # shared null object, so the hot loops skip observability work
        # entirely instead of making no-op calls.
        self._obs_live = self._c_dispatched is not NULL_INSTRUMENT
        self._wake_zero_bucket = (bisect_left(self._h_wake.bounds, 0)
                                  if self._obs_live else 0)

    @property
    def now(self):
        """Current simulated time in nanoseconds."""
        return self._now

    def _schedule(self, delay, fn, arg=_NO_ARG):
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        self._seq += 1
        if delay:
            heappush(self._heap, (self._now + delay, self._seq, fn, arg))
        else:
            self._ready.append((self._now, self._seq, fn, arg))

    def _flush_dispatched(self):
        """Fold the plain dispatch count into the metrics counter."""
        if self._obs_live:
            delta = self.events_dispatched - self._flushed_dispatched
            if delta:
                self._flushed_dispatched = self.events_dispatched
                self._c_dispatched.inc(delta)

    def call_at(self, when, fn):
        """Run ``fn()`` at absolute simulated time ``when``."""
        self._schedule(when - self._now, fn)

    def call_after(self, delay, fn):
        """Run ``fn()`` after ``delay`` nanoseconds."""
        self._schedule(delay, fn)

    def event(self, name=""):
        """Create a fresh pending :class:`SimEvent`."""
        return SimEvent(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that triggers after ``delay`` nanoseconds."""
        return Timeout(self, delay, value)

    def all_of(self, events):
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that triggers when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def spawn(self, gen, name=""):
        """Start a new process from generator ``gen``; returns it."""
        self._process_count += 1
        self._c_spawned.inc()
        return Process(self, gen, name=name or "process-%d" % self._process_count)

    def run(self, until=None):
        """Run until both queues empty or the clock passes ``until``.

        With ``until`` given, the clock is left exactly at ``until`` even
        if the last executed entry was earlier, so successive ``run``
        calls compose like wall-clock intervals.
        """
        # The inner loop is the hottest code in the repository: every
        # simulated event in every experiment passes through it. Queues
        # and sentinel are bound to locals, the dispatch counter is a
        # plain integer (flushed to metrics once per run), and entries
        # carry their argument so no closure is ever allocated per event.
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        heappop = heapq.heappop
        no_arg = _NO_ARG
        now = self._now
        dispatched = 0
        if until is not None and until < now:
            return now  # every queued entry is due after ``until``
        try:
            while True:
                if ready:
                    # Heap entries due now were pushed earlier: lower seq.
                    if heap and heap[0][0] == now:
                        entry = heappop(heap)
                    else:
                        entry = popleft()
                elif heap:
                    entry = heap[0]
                    if until is not None and entry[0] > until:
                        break
                    heappop(heap)
                    self._now = now = entry[0]
                else:
                    break
                dispatched += 1
                fn = entry[2]
                arg = entry[3]
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
        finally:
            self.events_dispatched += dispatched
            self._flush_dispatched()
        if until is not None and now < until:
            self._now = until
        return self._now

    def run_until_triggered(self, event, limit=None):
        """Run until ``event`` triggers; raises if both queues drain
        first.

        ``limit`` bounds the simulated time as a safety net in tests.
        """
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        heappop = heapq.heappop
        no_arg = _NO_ARG
        now = self._now
        dispatched = 0
        if (limit is not None and limit < now and (ready or heap)
                and event._value is _PENDING):
            raise self._limit_exceeded(limit, event)  # all due after it
        try:
            while event._value is _PENDING:
                if ready:
                    # Heap entries due now were pushed earlier: lower seq.
                    if heap and heap[0][0] == now:
                        entry = heappop(heap)
                    else:
                        entry = popleft()
                elif heap:
                    entry = heap[0]
                    if limit is not None and entry[0] > limit:
                        # The entry stays queued: a later run() still
                        # dispatches it.
                        raise self._limit_exceeded(limit, event)
                    heappop(heap)
                    self._now = now = entry[0]
                else:
                    raise SimulationError(
                        "simulation ran out of work before %r triggered"
                        % event
                    )
                dispatched += 1
                fn = entry[2]
                arg = entry[3]
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
        finally:
            self.events_dispatched += dispatched
            self._flush_dispatched()
        return event.value

    @staticmethod
    def _limit_exceeded(limit, event):
        return SimulationError(
            "simulated time limit %s exceeded waiting for %r"
            % (fmt_time(limit), event))
