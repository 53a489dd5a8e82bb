"""The simulator's dispatch schedule is pinned, entry by entry.

Every heap entry the simulator pops is recorded as ``(time, seq,
qualified name of fn)`` in five small runs, and each run's record must
match the digest committed in ``tests/golden/dispatch_schedule.json``:

* ``atropos_loop`` — Touch+Compute threads under Atropos CPU contracts;
* ``smp_migrate`` — the same on a two-core SMP CPU, with a migration;
* ``fifo_fig7`` — a short Figure 7 window on the FIFO CPU;
* ``interrupt_kill`` — ``Process.interrupt`` (handled and unhandled),
  a domain kill, and a process failure joined by a waiter;
* ``combinators`` — ``AllOf``/``AnyOf`` over timeouts, shared events
  with several waiters, failures and already-triggered events.

A changed wake path, callback fan-out or CPU burst hand-off that moves
one entry, renumbers one sequence number or swaps one callback shows up
here. The record is taken by replacing the ``heapq`` module the
simulator core uses with a shim whose ``heappop`` notes each entry; the
simulator has no hook for it.

Regenerate (only for a change that argues a new schedule) with
``PYTHONPATH=src python tests/test_dispatch_golden.py --write``.
"""

import hashlib
import heapq
import json
import os
import sys
import types
from unittest import mock

import pytest

from repro.sim import core
from repro.sim.core import Interrupt, Simulator
from repro.sim.units import MS, SEC, US

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "dispatch_schedule.json")


def _qualname(fn):
    return getattr(fn, "__qualname__", None) or type(fn).__qualname__


def record(scenario):
    """Run ``scenario()`` and return its dispatch record as text lines."""
    lines = []
    pop = heapq.heappop

    def recording_pop(heap):
        entry = pop(heap)
        lines.append("%d %d %s" % (entry[0], entry[1], _qualname(entry[2])))
        return entry

    shim = types.SimpleNamespace(heappush=heapq.heappush,
                                 heappop=recording_pop)
    with mock.patch.object(core, "heapq", shim):
        scenario()
    return lines


def digest(lines):
    """Entry count and SHA-256 of one dispatch record."""
    text = "\n".join(lines).encode()
    return {"entries": len(lines),
            "sha256": hashlib.sha256(text).hexdigest()}


# -- scenarios -------------------------------------------------------------


def _touch_compute(system, shares, threads, iters, seed):
    import random

    from repro.hw.mmu import AccessKind
    from repro.kernel.threads import Compute, Touch
    from repro.sched.atropos import QoSSpec

    rng = random.Random(seed)
    page = system.machine.page_size
    pages = 6
    spawned = []

    def body(base, order, bursts):
        for index, (slot, burst) in enumerate(zip(order, bursts)):
            kind = AccessKind.WRITE if index % 3 == 0 else AccessKind.READ
            yield Touch(base + slot * page, kind)
            yield Compute(burst, label="golden")

    for share in shares:
        qos = QoSSpec(period_ns=10 * MS, slice_ns=share * MS // 10,
                      extra=True, laxity_ns=0)
        app = system.new_app("dom-%d" % share, guaranteed_frames=pages,
                             cpu_qos=qos)
        stretch = app.new_stretch(pages * page)
        app.bind(stretch, app.physical_driver(frames=pages))
        for index in range(threads):
            order = [rng.randrange(pages) for _ in range(iters)]
            # Some bursts exceed the 1 ms quantum and are split.
            bursts = [rng.choice((0, rng.randrange(2 * US, 40 * US),
                                  rng.randrange(1 * MS, 3 * MS)))
                      for _ in range(iters)]
            spawned.append(app.spawn(body(stretch.base, order, bursts),
                                     name="t%d-%d" % (share, index)))
    return spawned


def atropos_loop():
    from repro.system import NemesisSystem

    system = NemesisSystem(cpu="atropos", usd_trace=False)
    threads = _touch_compute(system, (40, 20, 10), threads=2, iters=40,
                             seed=3)
    system.sim.run_until_triggered(
        system.sim.all_of([t.done for t in threads]), limit=60 * SEC)


def smp_migrate():
    from repro.system import NemesisSystem

    system = NemesisSystem(cpus=2, usd_trace=False)
    threads = _touch_compute(system, (40, 30, 20), threads=2, iters=25,
                             seed=5)
    sim = system.sim

    def mover():
        yield sim.timeout(2 * MS)
        name = "dom-30"
        target = 1 - system.cpu.core_of(name)
        yield system.cpu.migrate(name, target)

    sim.spawn(mover(), name="mover")
    sim.run_until_triggered(sim.all_of([t.done for t in threads]),
                            limit=60 * SEC)


def fifo_fig7():
    from repro.exp import fig7
    from repro.exp.common import small_config

    config = small_config(stretch_bytes=256 * 1024, swap_bytes=1024 * 1024,
                          settle_sec=0.2, measure_sec=1.0)
    fig7.run(config)


def interrupt_kill():
    from repro.hw.mmu import AccessKind
    from repro.kernel.threads import Compute, Touch
    from repro.system import NemesisSystem

    sim = Simulator()
    gate = sim.event("gate")

    def handles():
        try:
            yield gate
        except Interrupt:
            yield sim.timeout(3)
        return "handled"

    def dies():
        yield gate

    def raises():
        yield sim.timeout(4)
        raise ValueError("boom")

    def joiner(procs):
        for proc in procs:
            try:
                yield proc
            except ValueError:
                yield sim.timeout(1)

    def stopper(victims):
        yield sim.timeout(2)
        for victim in victims:
            victim.interrupt("stop")
        yield sim.timeout(1)
        victims[0].interrupt("again")   # already dead: no-op
        gate.trigger("late")

    victims = [sim.spawn(handles(), name="handles"),
               sim.spawn(dies(), name="dies")]
    failing = sim.spawn(raises(), name="raises")
    sim.spawn(joiner(victims + [failing]), name="joiner")
    sim.spawn(stopper(victims), name="stopper")
    sim.run()

    system = NemesisSystem(usd_trace=False)
    app = system.new_app("victim", guaranteed_frames=4)
    stretch = app.new_stretch(4 * system.machine.page_size)
    app.bind(stretch, app.physical_driver(frames=4))

    def spin():
        while True:
            yield Touch(stretch.base, AccessKind.WRITE)
            yield Compute(50 * US)

    for index in range(2):
        app.spawn(spin(), name="spin-%d" % index)

    def killer():
        yield system.sim.timeout(2 * MS)
        app.domain.kill("golden")

    system.sim.spawn(killer(), name="killer")
    system.sim.run(until=5 * MS)


def combinators():
    sim = Simulator()
    shared = sim.event("shared")
    doomed = sim.event("doomed")
    early = sim.event("early")
    early.trigger("already")

    def waiter(tag):
        value = yield shared
        yield sim.timeout(tag)
        return value

    def all_of():
        values = yield sim.all_of([sim.timeout(5, "a"), shared,
                                   sim.timeout(2, "b"), early])
        yield sim.all_of([])
        return values

    def any_of():
        winner = yield sim.any_of([sim.timeout(7), shared,
                                   sim.timeout(9)])
        return winner

    def failing_all():
        try:
            yield sim.all_of([sim.timeout(1), doomed, sim.timeout(20)])
        except KeyError:
            yield sim.timeout(1)

    def failing_any():
        try:
            yield sim.any_of([doomed, sim.timeout(30)])
        except KeyError:
            pass

    def firer():
        yield sim.timeout(3)
        shared.trigger("go")
        yield sim.timeout(1)
        doomed.fail(KeyError("doomed"))
        early.add_callback(lambda event: None)

    for tag in range(4):
        sim.spawn(waiter(tag), name="waiter-%d" % tag)
    for body in (all_of, any_of, failing_all, failing_any, firer):
        sim.spawn(body(), name=body.__name__)
    sim.run()


SCENARIOS = {
    "atropos_loop": atropos_loop,
    "smp_migrate": smp_migrate,
    "fifo_fig7": fifo_fig7,
    "interrupt_kill": interrupt_kill,
    "combinators": combinators,
}


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dispatch_schedule_matches_golden(name):
    assert digest(record(SCENARIOS[name])) == _golden()[name]


def test_recording_sees_every_dispatch():
    sim = Simulator()

    def body():
        yield sim.timeout(1)
        yield sim.timeout(2)

    def scenario():
        sim.spawn(body())
        sim.run()

    lines = record(scenario)
    assert len(lines) == sim.events_dispatched == 5
    assert lines[0].endswith("Process._start")
    assert lines[1:3] == ["1 2 Timeout._fire", "1 3 Process._on_event"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_dispatch_golden.py --write")
    payload = {name: digest(record(fn)) for name, fn in sorted(SCENARIOS.items())}
    with open(GOLDEN, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
