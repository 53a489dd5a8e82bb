"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paging_read --seed 0 \\
        --seconds 20 --trace 0

Untraced (``--trace 0``), the workload repeats its rep until
``--seconds`` of host time have passed (at least once) and reports the
end-to-end metrics as medians over the reps, the host-time ones
corrected for the host's measured slowdown (:class:`HostSpeed`). Traced (``--trace 1``), it
runs one rep untraced and the same rep traced, checks that both produce
identical simulated outputs and counters, and reports the per-layer
metrics and the tracing overhead; the spans go to
``perfbench/out/trace-<workload>.json`` (Chrome trace-event format).

``--workload all`` runs every workload, each in its own process, and
prints every metric of every workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import layers, workloads  # noqa: E402

OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
IMPORT_SAMPLES = 3

# name -> unit, for the end-to-end metrics of the result line.
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "cpu_s": "s",
    "events_per_op": "count", "peak_rss_mb": "MB", "sim_mbit": "Mbit/s",
    "ratio_err": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds():
    """Host time for a fresh interpreter to import the program: the
    part of set-up a user pays before building anything."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = "import repro.exp.common, repro.missions, repro.system"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True)
        samples.append(time.perf_counter() - start)
    return samples


class HostSpeed:
    """Samples how fast the host runs Python while a rep runs.

    Other tenants slow this host by up to 2x, in bursts of seconds to
    minutes, and process CPU time inflates with wall time, so neither
    is steady run to run. Every ``PERIOD_S`` a timer signal runs a fixed
    pure-Python loop (none of the program's code, garbage collection
    off) between the program's bytecodes, on the same core at the same
    moment; the mean loop time over a rep, relative to ``QUIET_S``, is
    the rep's slowdown. (The mean, not the median: a sample the
    hypervisor stalls stands for a stall the rep's wall time also
    paid.) The loop touches no simulator state, so the simulated
    outputs are unaffected.
    """

    PERIOD_S = 0.02
    QUIET_S = 80e-6      # the loop on an idle 2-vCPU x86 host, Python 3.11

    def __init__(self):
        self.samples = []

    @staticmethod
    def _loop():
        counts = {}
        start = time.perf_counter()
        for i in range(400):
            counts[i & 63] = counts.get(i & 63, 0) + i
        return time.perf_counter() - start

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(self._loop())
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self):
        """The host's slowdown since the last call (1.0 = quiet)."""
        samples, self.samples = self.samples, []
        return statistics.fmean(samples) / self.QUIET_S if samples else 1.0


def run_rep(workload, prepared, probe):
    """One rep: returns (Rep, host timings)."""
    probe.reset()
    gc.collect()
    start = time.perf_counter()
    rep = workload.rep(prepared, probe)
    first_wall, first_cpu = probe.first_event
    end_wall, end_cpu = probe.end
    return rep, {"setup": first_wall - start, "timed": end_wall - first_wall,
                 "cpu": end_cpu - first_cpu, "total": end_wall - start}


def plain(value):
    """``value`` as it reads back from JSON."""
    return json.loads(json.dumps(value))


class Checker:
    """The output check: at the default seed every rep's outputs must
    equal the reference; at any seed every rep must repeat the first
    rep's outputs and counters exactly."""

    def __init__(self, name, seed):
        self.expected = None
        self.counts = None
        if seed == workloads.DEFAULT_SEED:
            with open(REFERENCE) as fh:
                self.expected = json.load(fh)[name]
        self.mismatches = 0

    def check(self, rep):
        outputs, counts = plain(rep.outputs), plain(rep.counts)
        if self.expected is None:
            self.expected = outputs
        if self.counts is None:
            self.counts = counts
        if outputs == self.expected and counts == self.counts:
            return True
        self.mismatches += 1
        print("output mismatch: %s" % json.dumps(
            {"outputs": outputs, "counts": counts}, sort_keys=True))
        return False


def timed(name, workload, prepared, probe, checker, seed, seconds):
    """Reps for ``seconds``; the end-to-end metrics."""
    reps, times = [], []
    begin = time.perf_counter()
    attempted = failed = 0
    with HostSpeed() as speed:
        while not reps or time.perf_counter() - begin < seconds:
            speed.slowdown()
            rep, host = run_rep(workload, prepared, probe)
            host["slowdown"] = speed.slowdown()
            attempted += rep.ops + rep.checks
            failed += rep.failed + (0 if checker.check(rep) else rep.ops)
            reps.append(rep)
            times.append(host)
    imports = import_seconds()
    first = reps[0]
    values = {
        "setup_s": statistics.median(imports)
        + statistics.median(t["setup"] for t in times),
        "ops_per_s": statistics.median(
            r.ops / t["timed"] * t["slowdown"] for r, t in zip(reps, times)),
        "cpu_s": statistics.median(t["cpu"] / t["slowdown"] for t in times),
        "events_per_op": first.counts["events"] / first.ops,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_mbit": first.sim_mbit,
        "ratio_err": first.ratio_err,
    }
    metrics = {key: {"value": value, "unit": END_TO_END[key]}
               for key, value in values.items()}
    print("%s: %d rep(s) of %d op(s), seed %d" % (name, len(reps), first.ops,
                                                  seed))
    print("  %-14s %14s  %-7s %s" % ("metric", "value", "unit", "samples"))
    samples = {"setup_s": "%d imports + %d set-ups" % (len(imports),
                                                      len(reps)),
               "ops_per_s": len(reps), "cpu_s": len(reps)}
    for key, value in values.items():
        print("  %-14s %14.6g  %-7s %s" % (key, value, END_TO_END[key],
                                           samples.get(key, "exact")))
    print("  %-14s %14.6g  %-7s %s" % ("fail_ratio", failed / attempted,
                                       "ratio", "%d/%d" % (failed,
                                                           attempted)))
    print("  uncorrected: ops_per_s %.6g, cpu_s %.6g; host slowdown %.3f"
          % (statistics.median(r.ops / t["timed"]
                               for r, t in zip(reps, times)),
             statistics.median(t["cpu"] for t in times),
             statistics.median(t["slowdown"] for t in times)))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer, rep, untraced_s, traced_s):
    """The per-layer metrics of one traced rep."""
    c = rep.counts
    self_s = tracer.layer_self_s()
    served, lax = c["served_ns"], c["lax_ns"]
    tlb = c["tlb_hits"] + c["tlb_misses"]
    fast = tracer.try_fast_calls
    faults = sorted(tracer.fault_sim_ns)
    values = {
        "sim.events": (c["events"], "count"),
        "sim.spawns": (tracer.counts("Simulator.spawn"), "count"),
        "kernel.access.calls": (tracer.counts("Kernel.access"), "count"),
        "kernel.consume.calls": (tracer.counts("CpuAccount.consume"),
                                 "count"),
        "kernel.faults_dispatched": (c["faults_dispatched"], "count"),
        "hw.mmu.calls": (tracer.counts("MMU.access"), "count"),
        "hw.tlb.hit_ratio": (c["tlb_hits"] / tlb if tlb else 0.0, "ratio"),
        "hw.disk.txns": (tracer.disk_txns, "count"),
        "hw.disk.busy_sim_s": (tracer.disk_busy_ns / 1e9, "s"),
        "mm.faults": (c["faults_resolved"] + c["fault_failures"], "count"),
        "mm.fault_failures": (c["fault_failures"], "count"),
        "mm.fast_hit_ratio": (tracer.try_fast_hits / fast if fast else 0.0,
                              "ratio"),
        "mm.fault_sim_us.p50": (_quantile(faults, 0.5) / 1e3, "us"),
        "mm.fault_sim_us.p99": (_quantile(faults, 0.99) / 1e3, "us"),
        "mm.translation.calls": (sum(
            calls for fn, calls in zip(tracer.names, tracer.calls)
            if fn.startswith("TranslationSystem.")), "count"),
        "mm.frames.grants": (c["frames_grants"], "count"),
        "mm.frames.revoked": (c["frames_revoked"], "count"),
        "mm.frames.revocation_rounds": (c["revocation_rounds"], "count"),
        "usd.txns": (tracer.counts("USDClient.submit"), "count"),
        "usd.retries": (c["usd_retries"], "count"),
        "usd.queue_sim_ms": (tracer.usd_queue_ns / 1e6, "ms"),
        "sched.served_sim_s": (served / 1e9, "s"),
        "sched.lax_sim_s": (lax / 1e9, "s"),
        "sched.useful_ratio": (served / (served + lax) if served + lax
                               else 0.0, "ratio"),
        "obs.observe.calls": (tracer.counts("Histogram.observe")
                              + tracer.counts("HistogramFamily.observe"),
                              "count"),
        "obs.inc.calls": (tracer.counts("Counter.inc")
                          + tracer.counts("CounterFamily.inc"), "count"),
        "obs.spans": (tracer.counts("SpanTracer.start"), "count"),
        "regimes.registry.lookups": (tracer.counts(
            "PagerRegistry.driver_for_sid"), "count"),
        "missions.legs": (tracer.counts("MissionRunner._execute_run"),
                          "count"),
        "missions.checks": (tracer.counts("MissionRunner._evaluate"),
                            "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.accounted_share": (sum(self_s.values()) / traced_s, "ratio"),
        "trace.spans": (tracer.spans_total, "count"),
    }
    for layer in layers.LAYERS:
        values["%s.self_s" % layer] = (self_s.get(layer, 0.0), "s")
    return {key: {"value": value, "unit": unit}
            for key, (value, unit) in values.items()}


def traced(name, workload, prepared, probe, checker):
    """One untraced and one traced rep; the per-layer metrics."""
    rep, host = run_rep(workload, prepared, probe)
    tracer = layers.Tracer()
    tracer.install()
    probe.tracer = tracer
    try:
        traced_rep, traced_host = run_rep(workload, prepared, probe)
    finally:
        probe.tracer = None
        tracer.uninstall()
    # The traced rep must match the untraced one exactly: tracing is inert.
    failed = sum(r.failed + (0 if checker.check(r) else r.ops)
                 for r in (rep, traced_rep))
    metrics = layer_metrics(tracer, traced_rep, host["total"],
                            traced_host["total"])
    index = sorted(workloads.WORKLOADS).index(name)
    path = os.path.join(OUT, "trace-%s.json" % name)
    layers.write_chrome(path, [tracer.chrome(name, index + 1)])
    print("%s: traced rep, %d spans (%d kept), trace written to %s"
          % (name, tracer.spans_total, len(tracer.starts),
             os.path.relpath(path, ROOT)))
    for key, entry in metrics.items():
        print("  %-28s %14.6g  %s" % (key, entry["value"], entry["unit"]))
    return {"correct": failed == 0, "attempted": 2 * rep.ops + 2 * rep.checks,
            "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traces = []
    for name in sorted(workloads.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = entry
        if args.trace:
            with open(os.path.join(OUT, "trace-%s.json" % name)) as fh:
                traces.append(json.load(fh))
    if traces:
        layers.write_chrome(os.path.join(OUT, "trace.json"), traces)
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no program to measure: %s/src/repro is missing" % ROOT,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = workloads.WORKLOADS[args.workload]
    prepared = workload.prepare(args.seed)
    checker = Checker(args.workload, args.seed)
    probe = layers.Probe()
    probe.install()
    try:
        if args.trace:
            result = traced(args.workload, workload, prepared, probe,
                            checker)
        else:
            result = timed(args.workload, workload, prepared, probe,
                           checker, args.seed, args.seconds)
    finally:
        probe.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
