"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Tracing must be inert: a traced rep produces the same simulated outputs
and the same program counters as an untraced one, so the wrappers
schedule nothing and reorder no same-timestamp ties. Two traced reps
must agree exactly on every layer call count and on the exact
end-to-end metrics (events per op, simulated bandwidth, share error).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from perfbench import layers, workloads  # noqa: E402
from perfbench.run import HostSpeed, plain, run_rep  # noqa: E402


class _ShortMissions(workloads.Missions):
    """The missions workload with a shorter measurement window for the
    regimes mission, its slow one. (The other mission's bandwidth
    retention checks need its full window.)"""

    def rep(self, seed, probe):
        from repro.missions import validate

        original = validate.load_mission

        def shortened(path):
            mission = original(path)
            if mission["mission"]["name"] == "regimes-multipager-sfs":
                mission["phases"]["measure_sec"] = 0.5
            return mission

        validate.load_mission = shortened
        try:
            return super().rep(seed, probe)
        finally:
            validate.load_mission = original


# The benchmark's workloads, the two slowest with shorter measurement
# windows: whether tracing is inert does not depend on how long a rep
# measures.
CASES = {
    "paging_read": workloads.Paging("read-loop", settle_sec=1.0,
                                    measure_sec=0.5),
    "paging_write": workloads.WORKLOADS["paging_write"],
    "inmem_loop": workloads.WORKLOADS["inmem_loop"],
    "missions": _ShortMissions(),
}


def _traced(workload, prepared, probe):
    tracer = layers.Tracer()
    tracer.install()
    probe.tracer = tracer
    try:
        rep, _ = run_rep(workload, prepared, probe)
    finally:
        probe.tracer = None
        tracer.uninstall()
    return rep, tracer


def _exact(rep):
    return (rep.counts["events"] / rep.ops, rep.sim_mbit, rep.ratio_err)


@pytest.mark.parametrize("name", sorted(CASES))
def test_tracing_is_inert_and_counts_repeat(name):
    workload = CASES[name]
    prepared = workload.prepare(7)
    probe = layers.Probe()
    probe.install()
    try:
        plain_rep, _ = run_rep(workload, prepared, probe)
        first, tracer_a = _traced(workload, prepared, probe)
        second, tracer_b = _traced(workload, prepared, probe)
    finally:
        probe.uninstall()
    assert plain_rep.ops > 0 and plain_rep.failed == 0
    for rep in (first, second):
        assert plain(rep.outputs) == plain(plain_rep.outputs)
        assert plain(rep.counts) == plain(plain_rep.counts)
        assert _exact(rep) == _exact(plain_rep)
    assert tracer_a.names == tracer_b.names
    assert tracer_a.calls == tracer_b.calls
    assert tracer_a.fault_sim_ns == tracer_b.fault_sim_ns
    assert (tracer_a.disk_busy_ns, tracer_a.usd_queue_ns,
            tracer_a.try_fast_calls, tracer_a.try_fast_hits) == \
        (tracer_b.disk_busy_ns, tracer_b.usd_queue_ns,
         tracer_b.try_fast_calls, tracer_b.try_fast_hits)
    assert tracer_a.counts("Simulator.run") \
        + tracer_a.counts("Simulator.run_until_triggered") > 0


def test_wrappers_are_removed_after_a_traced_rep():
    from repro.kernel.kernel import Kernel
    from repro.sim.core import Simulator

    before = (Kernel.__dict__["access"], Simulator.__dict__["run"])
    tracer = layers.Tracer()
    tracer.install()
    assert Kernel.__dict__["access"] is not before[0]
    tracer.uninstall()
    assert (Kernel.__dict__["access"], Simulator.__dict__["run"]) == before


def test_generator_wrapper_passes_values_and_exceptions_through():
    tracer = layers.Tracer()

    def body():
        received = yield 1
        try:
            yield received + 1
        except KeyError as exc:
            return "caught %s" % exc.args[0]

    traced = tracer.wrap(body, "body", "apps")
    gen = traced()
    assert gen.__name__ == "body"
    assert next(gen) == 1
    assert gen.send(10) == 11
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "caught x"
    assert tracer.calls == [1] and tracer.spans_total == 3
    assert len(tracer._stack) == 0


def test_self_times_add_up_to_the_outermost_spans():
    tracer = layers.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner", "hw")
    outer = tracer.wrap(lambda: [inner() for _ in range(20)], "outer",
                        "kernel")
    outer()
    total = tracer.ends[0] - tracer.starts[0]
    assert sum(tracer.self_s) == pytest.approx(total, abs=1e-9)
    assert all(parent == 0 for parent in tracer.span_parent[1:])


def test_chrome_export_is_valid_trace_event_json(tmp_path):
    tracer = layers.Tracer()
    work = tracer.wrap(lambda: None, "work", "sim")
    for _ in range(3):
        work()
    path = str(tmp_path / "trace.json")
    layers.write_chrome(path, [tracer.chrome("inmem_loop", 3),
                               tracer.chrome("missions", 4)])
    with open(path) as fh:
        data = json.load(fh)
    spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 6
    assert {e["pid"] for e in spans} == {3, 4}
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in spans)
    names = [e for e in data["traceEvents"] if e["name"] == "thread_name"]
    assert {e["args"]["name"] for e in names} == {"sim"}
    assert len(data["otherData"]["runs"]) == 2


def test_host_speed_samples_while_running_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        assert speed.slowdown() == 1.0          # no samples yet
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        assert len(speed.samples) >= 5
        assert speed.slowdown() > 0
        assert speed.samples == []
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inmem_loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
