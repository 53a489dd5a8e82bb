"""Layer tracing from outside the program.

The benchmark measures each ``src/repro`` package ("layer") without
touching the program: it replaces selected functions of the layer with
wrappers for the duration of one run, then puts the originals back.

* A plain wrapper counts the call and records one span around it.
* A generator-aware wrapper handles functions that return generators
  (``Disk.transaction``, the drivers' ``handle_slow``, process bodies):
  timing the call would time nothing, so the wrapper drives the
  returned generator itself and records one span per resume. It also
  notes the simulated time from the call to the generator's end, which
  gives the simulated cost of a slow fault, a disk transaction and a
  USD work item.

Spans (name, start, end, parent) stay in memory and are written out at
the end as Chrome trace-event JSON. A span's *self time* is its
duration minus the time of its child spans; a layer's self time is the
sum over its functions, so the layers' self times add up to the host
time spent inside the outermost spans.

The wrappers are inert: they schedule nothing, create no simulator
events and pass every value and exception through unchanged, so a
traced run dispatches exactly the events of an untraced one.
"""

import array
import functools
import inspect
import json
import os
import time
import types

_GENERATOR = types.GeneratorType

#: The ``src/repro`` packages the tracer attributes host time to;
#: ``system`` is ``repro/system.py``, the facade that builds a machine.
LAYERS = ("sim", "system", "kernel", "hw", "mm", "usd", "sched", "obs",
          "regimes", "missions", "apps")

#: Spans kept for the Chrome export (about 15 MB of JSON); counts and
#: self times cover every span.
SPAN_CAP = 100_000


class Patcher:
    """Replaces class or module attributes and restores them."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Probe:
    """The two inert hooks every run installs, traced or not.

    It records the host time of the first simulated event (the end of
    set-up) and collects every ``NemesisSystem`` built, so counters can
    be summed over the systems a workload creates (missions build one
    per leg). The workload calls :meth:`stop` when the program's work
    is done, before it computes its outputs.
    """

    def __init__(self):
        self.first_event = None   # (perf_counter, process_time)
        self.end = None
        self.systems = []
        self.tracer = None        # the active Tracer, in a traced rep
        self._patcher = Patcher()

    def reset(self):
        self.first_event = None
        self.end = None
        self.systems = []

    def stop(self):
        self.end = (time.perf_counter(), time.process_time())

    def install(self):
        from repro.sim.core import Simulator
        from repro.system import NemesisSystem

        probe = self
        for name in ("run", "run_until_triggered"):
            original = Simulator.__dict__[name]

            def first_event(*args, _original=original, **kwargs):
                if probe.first_event is None:
                    probe.first_event = (time.perf_counter(),
                                         time.process_time())
                return _original(*args, **kwargs)

            self._patcher.replace(Simulator, name,
                                  functools.wraps(original)(first_event))
        init = NemesisSystem.__init__

        @functools.wraps(init)
        def collect(system, *args, **kwargs):
            init(system, *args, **kwargs)
            probe.systems.append(system)

        self._patcher.replace(NemesisSystem, "__init__", collect)

    def uninstall(self):
        self._patcher.restore()


def _targets():
    """(owner, attribute, layer) for every wrapped function.

    Layers are the ``src/repro`` packages. Functions are the layer's
    entry points plus the process bodies that run inside it, so that
    the host time spent in a layer's generators is attributed to it.
    """
    from repro.apps.compute_app import ComputeApplication
    from repro.apps.fsclient import FileSystemClient
    from repro.apps.pager_app import PagingApplication
    from repro.apps.watch import BandwidthWatcher
    from repro.hw.cpu import CostMeter
    from repro.hw.disk import Disk
    from repro.hw.mmu import MMU
    from repro.hw.tlb import TLB
    from repro.kernel import cpu as kcpu
    from repro.kernel.domain import Domain
    from repro.kernel.events import EventChannel
    from repro.kernel.kernel import Kernel
    from repro.missions import runner, validate
    from repro.mm.clockdriver import ClockPagedDriver
    from repro.mm.frames import FramesAllocator, FramesClient
    from repro.mm.mapped import MappedFileDriver
    from repro.mm.mmentry import MMEntry
    from repro.mm.nailed import NailedDriver
    from repro.mm.paged import ForgetfulPagedDriver, PagedDriver
    from repro.mm.physical import PhysicalDriver
    from repro.mm.sdriver import StretchDriver
    from repro.mm.stream import StreamPagedDriver
    from repro.mm.translation import TranslationSystem
    from repro.obs import metrics, spans
    from repro.regimes.registry import PagerRegistry
    from repro.regimes.seg import SegDriver, SegTranslation
    from repro.sched.atropos import AtroposClient, AtroposScheduler
    from repro.sim.core import Simulator
    from repro.sim.trace import Trace
    from repro.system import App, NemesisSystem
    from repro.usd.files import File
    from repro.usd.sfs import SwapFile, SwapFileSystem
    from repro.usd.usd import USD, USDClient

    drivers = [StretchDriver, PagedDriver, ForgetfulPagedDriver,
               StreamPagedDriver, MappedFileDriver, ClockPagedDriver,
               PhysicalDriver, NailedDriver, SegDriver]
    table = [
        ("sim", Simulator, ("run", "run_until_triggered", "spawn")),
        ("sim", Trace, ("record",)),
        ("system", NemesisSystem, ("__init__", "new_app")),
        ("system", App, ("new_stretch", "bind", "paged_driver",
                         "stream_driver", "physical_driver",
                         "nailed_driver", "mmap_driver", "seg_driver",
                         "build_drivers", "spawn")),
        ("kernel", Kernel, ("access", "dispatch_fault", "create_domain")),
        ("kernel", kcpu.CpuAccount, ("consume",)),
        ("kernel", kcpu.FifoCpu, ("_consume", "_loop")),
        ("kernel", kcpu.AtroposCpu, ("_consume",)),
        ("kernel", Domain, ("resume_thread", "_run", "add_thread",
                            "kill")),
        ("kernel", EventChannel, ("send",)),
        ("hw", MMU, ("access", "invalidate")),
        ("hw", TLB, ("lookup", "fill")),
        ("hw", Disk, ("transaction",)),
        ("hw", CostMeter, ("charge", "take")),
        ("mm", MMEntry, ("_fault_notification", "_failed",
                         "_worker_body", "_handle_revocation")),
        ("mm", TranslationSystem, ("map", "unmap", "map_extent",
                                   "shrink_extent", "unmap_extent",
                                   "trans", "page_info",
                                   "force_unmap_frame",
                                   "set_prot_pagetable",
                                   "set_prot_protdom")),
        ("mm", FramesAllocator, ("admit", "transfer", "depart", "_loop",
                                 "_revoke_victim", "_grant")),
        ("mm", FramesClient, ("alloc_now", "request_frames", "free")),
        ("usd", USD, ("admit",)),
        ("usd", USDClient, ("submit", "_serve")),
        ("usd", SwapFile, ("read", "write")),
        ("usd", SwapFileSystem, ("create_swapfile",)),
        ("usd", File, ("read", "write")),
        ("sched", AtroposScheduler, ("admit", "_loop", "_serve",
                                     "_refill_loop", "_pick")),
        ("sched", AtroposClient, ("submit",)),
        ("obs", metrics._BoundCounter, ("inc",)),
        ("obs", metrics._BoundGauge, ("set", "set_max", "inc", "dec")),
        ("obs", metrics._BoundHistogram, ("observe",)),
        ("obs", metrics.CounterFamily, ("inc",)),
        ("obs", metrics.GaugeFamily, ("set",)),
        ("obs", metrics.HistogramFamily, ("observe",)),
        ("obs", spans.SpanTracer, ("start",)),
        ("obs", spans.Span, ("end",)),
        ("regimes", PagerRegistry, ("driver_for_sid", "register", "bind",
                                    "unbind_sid", "in_priority_order")),
        ("regimes", SegTranslation, ("resolve",)),
        ("missions", runner.MissionRunner, ("run", "_execute_run",
                                            "_evaluate", "_audit",
                                            "_build_system",
                                            "_build_domains")),
        ("missions", runner, ("_hostile_main", "_sampler", "_claim",
                              "_waves")),
        ("missions", validate, ("load_mission", "validate_mission")),
        ("apps", PagingApplication, ("__init__", "_main", "_pass",
                                     "_extra_body")),
        ("apps", ComputeApplication, ("_main",)),
        ("apps", FileSystemClient, ("_run",)),
        ("apps", BandwidthWatcher, ("_run",)),
    ]
    for cls in drivers:
        layer = "regimes" if cls is SegDriver else "mm"
        table.append((layer, cls, ("try_fast", "handle_slow",
                                   "release_frames")))
    for layer, owner, names in table:
        for name in names:
            if name in owner.__dict__:
                yield owner, name, layer


class Tracer:
    """Counts calls, records spans and sums self time per function."""

    def __init__(self):
        self.run_id = "%x-%x" % (os.getpid(), time.time_ns())
        self.names = []          # function id -> qualified name
        self.layer_of = []       # function id -> layer
        self.calls = []          # function id -> call count
        self.self_s = []         # function id -> host self seconds
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.span_fn = array.array("i")
        self.span_parent = array.array("i")
        self.spans_total = 0
        self.sim = None          # simulator currently running
        self._slow_faults = {}   # id(fault) -> (fault, simulated ns)
        self.disk_busy_ns = 0
        self.disk_txns = 0
        self.usd_queue_ns = 0
        self.try_fast_calls = 0
        self.try_fast_hits = 0
        self._fast_depth = 0
        self._stack = []
        self._patcher = Patcher()
        self.t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def _open(self, fid):
        stack = self._stack
        now = time.perf_counter()
        index = -1
        self.spans_total += 1
        if len(self.starts) < SPAN_CAP:
            index = len(self.starts)
            self.starts.append(now - self.t0)
            self.ends.append(0.0)
            self.span_fn.append(fid)
            self.span_parent.append(stack[-1][3] if stack else -1)
        frame = [fid, now, 0.0, index]
        stack.append(frame)
        return frame

    def _close(self, frame):
        now = time.perf_counter()
        self._stack.pop()
        duration = now - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] >= 0:
            self.ends[frame[3]] = now - self.t0

    def _register(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    # -- wrappers ----------------------------------------------------------

    def _now(self):
        return self.sim._now if self.sim is not None else 0

    def _drive(self, gen, fid, finish, args, called):
        """Run ``gen`` under one span per resume, passing every value
        and exception through; ``finish`` gets the simulated times of
        the call and of the generator's end."""
        value, error = None, None
        while True:
            frame = self._open(fid)
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                self._close(frame)
                if finish is not None:
                    finish(args, called, self._now())
                return stop.value
            except BaseException:
                self._close(frame)
                if finish is not None:
                    finish(args, called, self._now())
                raise
            self._close(frame)
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value, error = None, exc

    def wrap(self, fn, name, layer, finish=None):
        """Return the traced stand-in for ``fn``. ``finish(args, called,
        ended)`` gets the simulated times of the call and of the end of
        the generator ``fn`` returns."""
        fid = self._register(name, layer)
        calls = self.calls
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[fid] += 1
                gen = tracer._drive(fn(*args, **kwargs), fid, finish, args,
                                    tracer._now())
                gen.__name__ = fn.__name__
                gen.__qualname__ = fn.__qualname__
                return gen
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            frame = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if result.__class__ is _GENERATOR:
                # A plain function handing back a generator: trace the
                # resumes too.
                result = tracer._drive(result, fid, finish, args,
                                       tracer._now())
            return result
        return traced

    def install(self):
        """Wrap every target; :meth:`uninstall` restores them."""
        from repro.sim.core import Simulator

        tracer = self

        def fault_done(args, called, ended):
            # A driver's handle_slow may delegate to its base class's
            # with the same fault; the outermost call is the longest.
            fault = args[1]
            _, longest = tracer._slow_faults.get(id(fault), (fault, 0))
            tracer._slow_faults[id(fault)] = (fault, max(longest,
                                                         ended - called))

        def disk_done(args, called, ended):
            tracer.disk_txns += 1
            tracer.disk_busy_ns += ended - called

        def serve_started(args, called, ended):
            sched, item = args[0], args[2]
            if sched.name.startswith("usd"):
                tracer.usd_queue_ns += called - item.submitted_at

        finishes = {"handle_slow": fault_done,
                    "Disk.transaction": disk_done,
                    "AtroposScheduler._serve": serve_started}
        for owner, attr, layer in _targets():
            name = "%s.%s" % (getattr(owner, "__qualname__", owner.__name__),
                              attr)
            finish = finishes.get(name, finishes.get(attr))
            wrapped = self.wrap(owner.__dict__[attr], name, layer, finish)
            if attr == "try_fast":
                wrapped = self._count_fast(wrapped)
            if owner is Simulator and attr != "spawn":
                wrapped = self._running(wrapped)
            self._patcher.replace(owner, attr, wrapped)

    def _count_fast(self, try_fast):
        """Count ``try_fast`` outcomes at the outermost call only (a
        driver may call its base class's ``try_fast``)."""
        from repro.mm.sdriver import FaultOutcome

        tracer = self

        @functools.wraps(try_fast)
        def outermost(*args, **kwargs):
            tracer._fast_depth += 1
            try:
                result = try_fast(*args, **kwargs)
            finally:
                tracer._fast_depth -= 1
            if tracer._fast_depth == 0:
                tracer.try_fast_calls += 1
                tracer.try_fast_hits += result is FaultOutcome.SUCCESS
            return result
        return outermost

    def _running(self, run):
        """Remember which simulator is running, for simulated times."""
        tracer = self

        @functools.wraps(run)
        def running(sim, *args, **kwargs):
            outer, tracer.sim = tracer.sim, sim
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer.sim = outer
        return running

    def uninstall(self):
        self._patcher.restore()

    # -- results -----------------------------------------------------------

    @property
    def fault_sim_ns(self):
        """Simulated ns from each slow fault's ``handle_slow`` call to
        its completion, in the order they first completed."""
        return [ns for _, ns in self._slow_faults.values()]

    def counts(self, name_suffix):
        """Total calls of every wrapped function named ``*name_suffix``."""
        return sum(calls for name, calls in zip(self.names, self.calls)
                   if name.endswith(name_suffix))

    def layer_self_s(self):
        out = {}
        for layer, seconds in zip(self.layer_of, self.self_s):
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def chrome(self, workload, pid):
        """The recorded spans as a Chrome trace-event JSON object: one
        pid per workload, one tid per layer, times in microseconds."""
        layers = sorted(set(self.layer_of))
        tid = {layer: index + 1 for index, layer in enumerate(layers)}
        events = [{"ph": "M", "pid": pid, "name": "process_name",
                   "args": {"name": workload}}]
        for layer in layers:
            events.append({"ph": "M", "pid": pid, "tid": tid[layer],
                           "name": "thread_name", "args": {"name": layer}})
        for index in range(len(self.starts)):
            fid = self.span_fn[index]
            start = self.starts[index]
            events.append({
                "ph": "X", "pid": pid, "tid": tid[self.layer_of[fid]],
                "name": self.names[fid], "ts": round(start * 1e6, 3),
                "dur": round((self.ends[index] - start) * 1e6, 3),
                "args": {"span": index,
                         "parent": self.span_parent[index],
                         "run": self.run_id}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"runs": [{
                    "run": self.run_id, "workload": workload,
                    "spans_recorded": len(self.starts),
                    "spans_total": self.spans_total}]}}


def write_chrome(path, traces):
    """Write one or more Chrome traces (from :meth:`Tracer.chrome` or
    read back from such a file) as one file."""
    merged = {"traceEvents": [], "displayTimeUnit": "ms",
              "otherData": {"runs": []}}
    for trace in traces:
        merged["traceEvents"].extend(trace["traceEvents"])
        merged["otherData"]["runs"].extend(trace["otherData"]["runs"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(merged, fh, separators=(",", ":"))
