"""The benchmark's four workloads.

Each workload is a fixed piece of simulated work (one *rep*) built from
the seed. A rep has a set-up phase (building the system, loading and
validating missions) and a timed phase (from the first simulated event
to the end of the run). Every rep of one seed does exactly the same
simulated work, so its simulated outputs and counters are exact and
repeat bit for bit; only host times vary.

``paging_read`` / ``paging_write``
    Figures 7 and 8 (§7.2) at the scaled configuration
    ``repro.exp.common.small_config``: three self-pagers with 40/20/10%
    USD guarantees. The figure configuration has no generated input, so
    every seed runs the paper's configuration and is checked against
    the reference outputs.
``inmem_loop``
    Three domains with 40/20/10% slack-eligible Atropos CPU contracts,
    four threads each, running in-memory Touch+Compute over their own
    pages. The seed draws the compute burst lengths and the page order.
``missions``
    Two committed missions through ``repro.missions``; a non-default
    seed replaces the missions' ``seed``.
"""

import os
import random
from hashlib import blake2b

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 0


def _digest(value):
    return blake2b(repr(value).encode(), digest_size=16).hexdigest()


def trace_digest(trace):
    """Digest of a USD scheduler trace (every record, in order)."""
    digest = blake2b(digest_size=16)
    for event in trace.events:
        digest.update(repr((event.time, event.kind, event.client,
                            event.duration,
                            sorted(event.info.items()))).encode())
    return digest.hexdigest()


class Rep:
    """What one rep produced.

    ``outputs`` are the simulated results the output check compares;
    ``counts`` are the program's own counters, summed over every system
    the rep built. ``failed`` counts faults that failed (the thread was
    killed) and failed mission checks.
    """

    def __init__(self, ops, outputs, counts, sim_mbit, ratio_err,
                 failed=0, checks=0):
        self.ops = ops
        self.outputs = outputs
        self.counts = counts
        self.sim_mbit = sim_mbit
        self.ratio_err = ratio_err
        self.failed = failed
        self.checks = checks


def system_counts(systems):
    """The program's counters, summed over ``systems``."""
    totals = {"events": 0, "spawned": 0, "tlb_hits": 0, "tlb_misses": 0}
    metric_names = {
        "faults_resolved": "mm_faults_resolved_total",
        "fault_failures": "mm_fault_failures_total",
        "faults_dispatched": "kernel_faults_dispatched_total",
        "frames_grants": "frames_grants_total",
        "frames_revoked": "frames_revoked_total",
        "revocation_rounds": "frames_revocation_rounds_total",
        "usd_txns": "usd_transactions_total",
        "usd_retries": "usd_retries_total",
    }
    for key in list(metric_names) + ["served_ns", "lax_ns"]:
        totals[key] = 0
    for system in systems:
        for sched in _schedulers(system):
            for client in sched.clients:
                totals["served_ns"] += client.served_ns
                totals["lax_ns"] += client.lax_ns
        totals["events"] += system.sim.events_dispatched
        totals["spawned"] += system.sim._process_count
        totals["tlb_hits"] += system.mmu.tlb.hits
        totals["tlb_misses"] += system.mmu.tlb.misses
        snapshot = system.metrics_snapshot()
        for key, name in metric_names.items():
            totals[key] += snapshot.total(name)
    return totals


def _schedulers(system):
    """Every Atropos scheduler of ``system``: the USD's, the CPU's (one
    per core on SMP) and each backing-store volume's."""
    scheds = [getattr(system.usd, "sched", None),
              getattr(system.cpu, "sched", None)]
    scheds.extend(getattr(system.cpu, "scheds", ()))
    if system.usbs is not None:
        scheds.extend(volume.usd.sched for volume in system.usbs.volumes)
    return [sched for sched in scheds if sched is not None]


def _share_error(rates, shares):
    """Largest relative deviation of the rate ratios (to the smallest
    share's client) from the guaranteed share ratios."""
    base_name = min(shares, key=shares.get)
    base = rates[base_name]
    return max(abs((rates[name] / base) / (shares[name] / shares[base_name])
                   - 1.0)
               for name in shares if name != base_name)


class Paging:
    """Figure 7 (``read-loop``) or Figure 8 (``write-loop``), run
    through the figure module's own ``run``."""

    def __init__(self, mode, settle_sec, measure_sec):
        self.mode = mode
        self.settle_sec = settle_sec
        self.measure_sec = measure_sec

    def config(self):
        from repro.exp.common import small_config

        return small_config(settle_sec=self.settle_sec,
                            measure_sec=self.measure_sec)

    def prepare(self, seed):
        return None

    def rep(self, prepared, probe):
        from repro.exp import fig7, fig8

        config = self.config()
        figure = fig7 if self.mode == "read-loop" else fig8
        result = figure.run(config)
        probe.stop()
        system = result.system
        ops = sum(app.driver.pageins + app.driver.pageouts
                  for app in result.apps)
        outputs = {
            "bandwidth_mbit": dict(result.bandwidth_mbit),
            "events": system.sim.events_dispatched,
            "sim_ns": system.now,
            "usd_trace": trace_digest(system.usd_trace),
        }
        shares = {config.app_name(s): s for s in config.slices_ms}
        counts = system_counts(probe.systems)
        return Rep(ops, outputs, counts,
                   sim_mbit=sum(result.bandwidth_mbit.values()),
                   ratio_err=_share_error(result.bandwidth_mbit, shares),
                   failed=counts["fault_failures"])


class InMemLoop:
    """In-memory Touch+Compute under Atropos CPU contracts."""

    shares = (40, 20, 10)     # % of a 10 ms period, slack-eligible
    threads = 4
    pages = 24                # per domain: 72 pages against a 64-entry TLB
    base_iters = 900          # per thread per 10% of share

    def prepare(self, seed):
        """Draw every thread's page order and burst lengths."""
        rng = random.Random(seed)
        plan = []
        for share in self.shares:
            iters = self.base_iters * share // 10
            plan.append([
                ([rng.randrange(self.pages) for _ in range(iters)],
                 [rng.randrange(2_000, 30_000) for _ in range(iters)])
                for _ in range(self.threads)])
        return plan

    def rep(self, plan, probe):
        from repro.hw.mmu import AccessKind
        from repro.kernel.threads import Compute, Touch
        from repro.sched.atropos import QoSSpec
        from repro.sim.units import MS, SEC
        from repro.system import NemesisSystem

        system = NemesisSystem(cpu="atropos", usd_trace=False)
        sim = system.sim
        page = system.machine.page_size
        threads = []
        processed = {}
        finished = {}

        def body(name, base, order, bursts):
            for index, (slot, burst) in enumerate(zip(order, bursts)):
                kind = AccessKind.WRITE if index % 4 == 0 \
                    else AccessKind.READ
                yield Touch(base + slot * page, kind)
                yield Compute(burst, label="inmem")
                processed[name] += page
            finished[name] = sim.now

        if probe.tracer is not None:
            body = probe.tracer.wrap(body, "inmem_loop.body", "apps")
        shares = {}
        for share, domain_plan in zip(self.shares, plan):
            name = "inmem-%d%%" % share
            shares[name] = share
            qos = QoSSpec(period_ns=10 * MS, slice_ns=share * MS // 10,
                          extra=True, laxity_ns=0)
            app = system.new_app(name, guaranteed_frames=self.pages,
                                 cpu_qos=qos)
            stretch = app.new_stretch(self.pages * page)
            app.bind(stretch, app.physical_driver(frames=self.pages))
            processed[name] = 0
            threads.extend(
                app.spawn(body(name, stretch.base, order, bursts),
                          name="%s-t%d" % (name, index))
                for index, (order, bursts) in enumerate(domain_plan))
        sim.run_until_triggered(sim.all_of([t.done for t in threads]),
                                limit=600 * SEC)
        probe.stop()
        ops = sum(len(order) for domain_plan in plan
                  for order, _ in domain_plan)
        counts = system_counts(probe.systems)
        outputs = {"processed": dict(processed), "finished": finished,
                   "events": sim.events_dispatched, "sim_ns": system.now,
                   "tlb": [system.mmu.tlb.hits, system.mmu.tlb.misses]}
        # Each domain's rate over its own lifetime (its last thread's
        # finish), against the 4:2:1 contracts.
        rates = {name: processed[name] / finished[name]
                 for name in processed}
        return Rep(ops, outputs, counts,
                   sim_mbit=sum(processed.values()) * 8 / 1e6
                   / (system.now / SEC),
                   ratio_err=_share_error(rates, shares),
                   failed=counts["fault_failures"])


class Missions:
    """The two committed missions, run through the mission runner."""

    paths = ("missions/matrix/regimes-multipager-sfs.toml",
             "missions/matrix/matrix-lie-compound-sfs.toml")

    def prepare(self, seed):
        return seed

    def rep(self, seed, probe):
        from repro.missions import runner, validate

        missions = [validate.load_mission(os.path.join(ROOT, path))
                    for path in self.paths]
        if seed != DEFAULT_SEED:
            for mission in missions:
                mission["mission"]["seed"] = seed
        reports = [runner.MissionRunner(mission).run()
                   for mission in missions]
        probe.stop()
        counts = system_counts(probe.systems)
        legs = [run for report in reports for run in report["runs"].values()]
        shares = [share["relative_error"] for leg in legs
                  for share in leg["volume_shares"]]
        checks = sum(len(report["invariants"]) + 1 for report in reports)
        failed_checks = sum(
            sum(not check["passed"] for check in report["invariants"])
            + (not report["audit"]["passed"])
            + (report["reproducible"] is False)
            for report in reports)
        outputs = {report["mission"]["name"]: {
            "passed": report["passed"],
            "reproducible": report["reproducible"],
            "report": _digest(runner.report_json(report))}
            for report in reports}
        outputs["events"] = counts["events"]
        return Rep(counts["faults_resolved"], outputs, counts,
                   sim_mbit=sum(leg["aggregate_mbit"] for leg in legs)
                   / len(legs),
                   ratio_err=max(shares),
                   failed=counts["fault_failures"] + failed_checks,
                   checks=checks)


WORKLOADS = {
    "paging_read": Paging("read-loop", settle_sec=1.0, measure_sec=3.0),
    "paging_write": Paging("write-loop", settle_sec=1.0, measure_sec=60.0),
    "inmem_loop": InMemLoop(),
    "missions": Missions(),
}
