"""CPU schedulers.

Domains consume CPU in non-preemptible *bursts* (activations, thread
steps, the experiments' per-page processing). Three models are provided:

* :class:`AtroposCpu` — the real thing: each domain holds a (p, s, x, l)
  CPU guarantee scheduled by :class:`~repro.sched.atropos.AtroposScheduler`.
  This is Nemesis's CPU scheduler family applied to compute bursts.
* :class:`FifoCpu` — a single CPU served in FIFO order: correct
  serialisation, no QoS. The paper's paging experiments are disk-bound,
  and this is the default for them (documented in DESIGN.md); the CPU
  QoS machinery is exercised by its own tests and example.
* :class:`UnlimitedCpu` — infinitely parallel CPU (each burst just takes
  its duration). Useful in unit tests isolating other components.
* :class:`SmpAtroposCpu` — the multi-core plane: N CPUs, each with its
  own Atropos run queue (per-core slack and best-effort accounting,
  per-core ``sched_*`` metrics labelled ``cpu0..cpuN-1``), placement of
  each domain's contract onto one core via :mod:`repro.place`, and a
  quiescing ``migrate`` path that moves a domain between cores with the
  move charged to the migrating domain itself.

All expose ``register(name, qos=None) -> CpuAccount`` and accounts
expose ``consume(ns) -> SimEvent``.
"""

from collections import deque
from functools import partial

from repro.obs.metrics import NULL_REGISTRY
from repro.place import PlacementError, PlacementPolicy
from repro.sched.atropos import ClientDepartedError, QoSSpec
from repro.sim.core import SimEvent, Timeout
from repro.sim.units import MS, US


DEFAULT_QUANTUM = 1 * MS
"""Bursts longer than this are split so one domain's long computation
cannot monopolise the (non-preemptive) CPU model."""


class CpuAccount:
    """Per-domain handle onto a CPU scheduler, with usage statistics."""

    def __init__(self, cpu, name):
        self.cpu = cpu
        self.name = name
        self.consumed_ns = 0
        self.bursts = 0
        # SMP migration plumbing; both stay inert on single-CPU models.
        self._barrier = None    # SimEvent stalling new bursts mid-migration
        self._departed = False  # set by SmpAtroposCpu.depart_account

    def consume(self, ns, label=""):
        """Acquire the CPU for ``ns`` of work; event triggers when done.

        Long requests are transparently split into quantum-sized chunks
        (pseudo-preemption): other domains' bursts interleave between
        the chunks, bounding the scheduling latency any single request
        can impose — this is what makes the simulator's non-preemptive
        work-item model a faithful stand-in for a preemptive CPU.

        While the domain is migrating between SMP cores, new bursts
        stall behind the migration barrier and are dispatched on the new
        core once the move completes (in-flight work quiesced first).
        """
        if ns < 0:
            raise ValueError("negative compute burst")
        self.bursts += 1
        self.consumed_ns += ns
        if self._barrier is not None and not self._barrier.triggered:
            sim = self.cpu.sim
            done = sim.event("cpu.barrier-burst")

            def stalled():
                while True:
                    barrier = self._barrier
                    if barrier is None or barrier.triggered:
                        break
                    yield barrier
                if self._departed:
                    done.fail(ClientDepartedError(
                        "%s departed during migration" % self.name))
                    return
                try:
                    value = yield self._dispatch(ns, label)
                except Exception as exc:
                    done.fail(exc)
                    return
                done.trigger(value)

            sim.spawn(stalled(), name="%s-stalled" % self.name)
            return done
        # Not migrating: an unsplit burst goes straight to the model.
        cpu = self.cpu
        quantum = cpu.quantum
        if quantum is None or ns <= quantum:
            return cpu._consume(self, ns, label)
        return self._dispatch(ns, label)

    def _dispatch(self, ns, label):
        # Quantum splitting + handoff to the CPU model (post-barrier).
        quantum = self.cpu.quantum
        if quantum is None or ns <= quantum:
            return self.cpu._consume(self, ns, label)
        sim = self.cpu.sim
        done = sim.event("cpu.split-burst")

        def chunker():
            remaining = ns
            try:
                while remaining > 0:
                    chunk = min(quantum, remaining)
                    yield self.cpu._consume(self, chunk, label)
                    remaining -= chunk
            except Exception as exc:
                # The account departed (or its burst failed) between
                # chunks: propagate through the split burst's event
                # instead of crashing the chunker process.
                done.fail(exc)
                return
            done.trigger(None)

        sim.spawn(chunker(), name="%s-burst" % self.name)
        return done


class UnlimitedCpu:
    """No contention: every burst completes after its own duration."""

    quantum = None  # no splitting needed: bursts never queue

    def __init__(self, sim):
        self.sim = sim

    def register(self, name, qos=None):
        """Open an account for ``name``; ``qos`` is ignored (no contracts)."""
        return CpuAccount(self, name)

    def _consume(self, account, ns, label):
        return self.sim.timeout(ns)


class FifoCpu:
    """One CPU, bursts served strictly in arrival order."""

    def __init__(self, sim, quantum=DEFAULT_QUANTUM):
        self.quantum = quantum
        self.sim = sim
        self._queue = deque()
        self._wake = sim.event("cpu.wake")
        sim.spawn(self._loop(), name="fifo-cpu")

    def register(self, name, qos=None):
        """Open an account for ``name``; ``qos`` is ignored (FIFO order)."""
        return CpuAccount(self, name)

    def _consume(self, account, ns, label):
        done = SimEvent(self.sim, "cpu.burst")
        self._queue.append((ns, done))
        if not self._wake.triggered:
            self._wake.trigger(None)
        return done

    def _loop(self):
        while True:
            if not self._queue:
                if self._wake.triggered:
                    self._wake = self.sim.event("cpu.wake")
                yield self._wake
                continue
            ns, done = self._queue.popleft()
            if ns:
                yield self.sim.timeout(ns)
            done.trigger(None)


def _burst(sim, ns):
    """The work item of one Atropos CPU burst: hold the CPU for ``ns``.

    Shared by :class:`AtroposCpu` and :class:`SmpAtroposCpu`; bound to
    its arguments with ``partial`` so a crashed scheduler can replay it.
    """
    if ns:
        yield Timeout(sim, ns)


DEFAULT_CPU_QOS = QoSSpec(period_ns=10 * MS, slice_ns=1 * MS, extra=True,
                          laxity_ns=0)
"""Default per-domain CPU guarantee: 10% of the CPU every 10 ms, with
slack eligibility (fine for the disk-bound experiments)."""


class AtroposCpu:
    """CPU time under Atropos guarantees.

    Note the slack flag: CPU clients usually set ``x=True`` (the paper's
    disk clients set it False to make the figures legible, but CPU
    guarantees in Nemesis commonly allowed slack consumption).
    """

    def __init__(self, sim, scheduler_factory=None, trace=None,
                 quantum=DEFAULT_QUANTUM):
        from repro.sched.atropos import AtroposScheduler

        self.quantum = quantum
        self.sim = sim
        self.sched = (scheduler_factory(sim) if scheduler_factory
                      else AtroposScheduler(sim, name="cpu", trace=trace))

    def register(self, name, qos=None):
        """Admit ``name``'s (p, s, x, l) contract (default
        :data:`DEFAULT_CPU_QOS`) and return its account; raises
        ``ValueError`` when admission control refuses the contract."""
        account = CpuAccount(self, name)
        account._client = self.sched.admit(name, qos or DEFAULT_CPU_QOS)
        return account

    def _consume(self, account, ns, label):
        return account._client.submit(partial(_burst, self.sim, ns), label)


DEFAULT_MIGRATION_COST = 50 * US
"""CPU charge for moving a scheduling context between cores (cache and
run-queue state reload), billed to the migrating domain on its new core
— self-paging's accountability argument applied to migration."""


class SmpAtroposCpu:
    """N CPUs, each running its own Atropos run queue.

    The multi-core plane. Each core is a full
    :class:`~repro.sched.atropos.AtroposScheduler` named ``cpu<i>`` —
    so per-core slack/best-effort accounting and per-core ``sched_*``
    metrics (labelled by core via the scheduler name) come from the
    single-core machinery unchanged. What this class adds:

    * **admission control over placement** — a contract is admitted onto
      exactly one core chosen by :class:`repro.place.PlacementPolicy`
      (first-fit-decreasing by admitted share, BLAKE2b seed-stable
      tie-break). A contract no single core can carry is refused with
      :class:`repro.place.PlacementError` *before* any scheduler state
      is touched, even when aggregate spare capacity would cover it.
    * **migration** — :meth:`migrate` moves a domain's scheduling
      context to another core: new bursts stall behind a barrier,
      in-flight and queued work quiesces on the old core, the contract
      is re-admitted on the target, and the move itself is charged to
      the migrating domain (``migration_cost_ns`` on the new core).
    * **departure** — :meth:`depart_account` releases a domain's core
      share (used by ``App.shutdown`` so SMP re-admissions don't leak).
    """

    def __init__(self, sim, cpus, placement="ffd", seed=1999,
                 quantum=DEFAULT_QUANTUM, metrics=None, trace=None,
                 migration_cost_ns=DEFAULT_MIGRATION_COST):
        from repro.sched.atropos import AtroposScheduler

        if cpus < 1:
            raise ValueError("need at least one cpu, got %d" % cpus)
        self.quantum = quantum
        self.sim = sim
        self.cpus = cpus
        self.migration_cost_ns = migration_cost_ns
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.scheds = [AtroposScheduler(sim, name="cpu%d" % index,
                                        trace=trace, metrics=metrics)
                       for index in range(cpus)]
        self.policy = PlacementPolicy(cpus, policy=placement, seed=seed)
        self.accounts = {}   # domain name -> CpuAccount
        self.core_map = {}   # domain name -> core index
        self.migrations = 0
        self.refusals = 0
        self._g_domains = self.metrics.gauge(
            "place_domains", help="domains placed, by core")
        self._c_migrations = self.metrics.counter(
            "place_migrations_total", help="completed migrations, by domain")
        self._c_refusals = self.metrics.counter(
            "place_admission_refusals_total",
            help="contracts refused because no single core fits")

    # -- admission ---------------------------------------------------------

    def admitted_share(self, core=None):
        """Admitted share of one core, or the aggregate across all."""
        if core is not None:
            return self.scheds[core].admitted_share()
        return sum(sched.admitted_share() for sched in self.scheds)

    def register(self, name, qos=None):
        """Admit ``name``'s CPU contract onto one core (placed).

        Raises :class:`repro.place.PlacementError` — with no scheduler
        state created or mutated — when no single core can carry the
        contract. The chosen core is recorded in :attr:`core_map`.
        """
        qos = qos or DEFAULT_CPU_QOS
        if name in self.accounts:
            raise ValueError("duplicate CPU account %r" % name)
        loads = [sched.admitted_share() for sched in self.scheds]
        try:
            core = self.policy.choose(name, qos.share, loads)
        except PlacementError:
            self.refusals += 1
            self._c_refusals.inc()
            raise
        account = CpuAccount(self, name)
        account._client = self.scheds[core].admit(name, qos)
        self.accounts[name] = account
        self.core_map[name] = core
        self._g_domains.inc(cpu="cpu%d" % core)
        return account

    def core_of(self, name):
        """Core index currently carrying ``name``'s contract."""
        return self.core_map[name]

    def depart_account(self, account, discard=True):
        """Release a domain's CPU contract (orderly or teardown).

        Any bursts stalled behind a migration barrier fail with
        ``ClientDepartedError``; a migration in flight for this domain
        observes the departure and aborts without moving anything.
        """
        name = account.name
        if self.accounts.get(name) is not account:
            return
        account._departed = True
        core = self.core_map.pop(name)
        del self.accounts[name]
        self._g_domains.inc(-1, cpu="cpu%d" % core)
        client = account._client
        if not client.departed:
            client.scheduler.depart(client, discard=discard)
        barrier = account._barrier
        if barrier is not None and not barrier.triggered:
            account._barrier = None
            barrier.trigger(None)

    # -- serving -----------------------------------------------------------

    _consume = AtroposCpu._consume

    # -- migration ---------------------------------------------------------

    def migrate(self, name, target, reason="migrate"):
        """Move ``name``'s scheduling context to core ``target``.

        Returns a :class:`SimEvent` that triggers ``True`` once the
        domain runs on the new core (with the move charged to it), or
        ``False`` if the migration aborted — the domain departed while
        quiescing, or the target core no longer had room at re-admission
        time. Raises :class:`repro.place.PlacementError` synchronously
        if the target obviously cannot fit the contract right now.
        """
        account = self.accounts.get(name)
        if account is None:
            raise KeyError("no CPU account %r" % name)
        if not 0 <= target < self.cpus:
            raise ValueError("no such core %d" % target)
        done = self.sim.event("cpu.migrate.%s" % name)
        source = self.core_map[name]
        if target == source:
            done.trigger(False)
            return done
        if account._barrier is not None and not account._barrier.triggered:
            raise RuntimeError("%r is already migrating" % name)
        share = account._client.qos.share
        if self.scheds[target].admitted_share() + share > 1.0 + 1e-12:
            raise PlacementError(
                "core %d cannot fit %r (share %.4f on top of %.4f)"
                % (target, name, share,
                   self.scheds[target].admitted_share()))
        self.sim.spawn(self._migrate_proc(account, source, target, done,
                                          reason),
                       name="migrate-%s" % name)
        return done

    def _migrate_proc(self, account, source, target, done, reason):
        # Quiesce: stall new bursts behind the barrier, then wait out
        # everything already queued or in flight on the old core.
        old = account._client
        barrier = self.sim.event("cpu.migrate-barrier.%s" % account.name)
        account._barrier = barrier
        try:
            while True:
                if account._departed or old.departed:
                    done.trigger(False)
                    return
                pending = list(old.queue)
                current = old.scheduler._current
                if current is not None and current[0] is old:
                    pending.append(current[1])
                if not pending:
                    break
                try:
                    yield pending[-1].done
                except Exception:
                    pass  # a failed burst still quiesces
            if account._departed or old.departed:
                done.trigger(False)
                return
            try:
                new_client = self.scheds[target].admit(
                    account.name, old.qos)
            except ValueError:
                done.trigger(False)
                return
            account._client = new_client
            old.scheduler.depart(old)
            self.core_map[account.name] = target
            self.migrations += 1
            self._c_migrations.inc(domain=account.name)
            self._g_domains.inc(-1, cpu="cpu%d" % source)
            self._g_domains.inc(cpu="cpu%d" % target)
        finally:
            if account._barrier is barrier:
                account._barrier = None
                if not barrier.triggered:
                    barrier.trigger(None)
        # The move is work the domain caused: charge it on the new core.
        if self.migration_cost_ns and not account._departed:
            try:
                yield account.consume(self.migration_cost_ns,
                                      label="migrate:%s" % reason)
            except Exception:
                pass  # departed mid-charge; the move itself stands
        done.trigger(True)
