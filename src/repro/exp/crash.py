"""The ``crash`` subcommand: component crashes under supervision.

The paper's accountability argument (§4) prices every cost of paging
to the domain that incurs it. This experiment asks what happens when a
component simply *dies*: a self-paging domain's driver, the central
MemoryBalancer loop, the system USD driver domain, and one USBS
volume's driver are each crashed mid-run by the deterministic crash
plane (:mod:`repro.faults.crash`) while the supervision tree
(:mod:`repro.supervise`) watches. The gates mirror the revocation
ladder's philosophy — graduated response, never collective punishment:

* every crashed component **recovers** within its budget (watchdog
  detection + backoff + state reconstruction, each window bounded);
* **bystanders keep their bandwidth**: through every recovery window,
  domains that do not share the dead component retain >= 95% of the
  baseline run's bandwidth over the identical simulated windows;
* **no cross-domain kill**: the kill set stays exactly empty in both
  runs — restarts tear down and re-admit, they never punish;
* the volume crash *storm* (three kills in one budget window) walks
  the escalation ladder to the end: restart, restart, degrade, drain
  onto the healthy volume, retire — and the system outlives it;
* the storm run is **reproducible byte-for-byte**: it is re-executed
  and the two payloads compared.

Each victim gets its own run against the shared baseline: retention
is a delta comparison over identical simulated windows, so the two
runs must share a byte-identical prefix up to the crash — a single
run with sequential crashes would phase-shift every later window
into noise.

The scenario is a thin wrapper over the mission plane: it builds the
``crash-recovery`` mission from its config, hands execution to
:mod:`repro.missions.runner`, prints the verdicts and writes the full
canonical report to ``crash.json`` (CI uploads it).

Run it with ``python -m repro.exp crash`` or ``make crash``.
Expected runtime: ~1 minute including the drain wait and the
reproducibility re-run.
"""

import sys
from dataclasses import dataclass

from repro.exp import report
from repro.missions import MISSION_SCHEMA_VERSION, run_mission, validate_mission

#: The crash schedule: (run name, component, start_sec, max_crashes,
#: bystander domains). One kill per restartable component, each in
#: its own run so the pre-crash prefix matches baseline exactly; a
#: three-kill storm on volume 0 to exhaust the restart budget
#: (max_restarts=2) and force the escalation ladder. Bystanders are
#: the domains that do not share the victim: the fsclient rides the
#: system USD, the pagers ride the USBS volumes.
SCHEDULE = (
    ("crash-pager", "pager:pager-a", 3.0, 1, ("fsclient", "pager-b")),
    ("crash-balancer", "balancer", 3.0, 1,
     ("fsclient", "pager-a", "pager-b")),
    ("crash-usd", "usd", 3.0, 1, ("pager-a", "pager-b")),
    ("crash-volume", "volume:0", 2.5, 3, ("fsclient",)),
)


@dataclass(frozen=True)
class CrashConfig:
    """Knobs for the crash scenario: workload, budgets, floors."""

    seed: int = 42
    settle_sec: float = 2.0
    measure_sec: float = 6.0
    volumes: int = 2                 # pager swap striped across these
    heartbeat_ms: int = 100
    max_restarts: int = 2            # per 5 s sliding window
    max_recovery_ms: int = 1000      # detect + backoff + reconstruct
    retention_floor: float = 0.95    # bystanders, per recovery window
    drain_limit_sec: float = 45.0    # volume evacuation budget


@dataclass
class CrashResult:
    """The mission report plus the pieces the verdict table prints."""

    config: CrashConfig
    report: dict                     # the full canonical mission report

    @property
    def victims(self):
        """[(run, component, supervision summary)] per schedule entry."""
        return [(run, component,
                 self.report["runs"][run]["supervision"][component])
                for run, component, _, _, _ in SCHEDULE]

    @property
    def invariants(self):
        return self.report["invariants"]

    @property
    def reproducible(self):
        return self.report["reproducible"]

    @property
    def passed(self):
        """Overall verdict: the mission's own PASS (all invariants,
        the injection audit, and the determinism re-run)."""
        return self.report["passed"]


def build_mission(config):
    """The crash scenario as a normalised mission dict.

    Figure-9's cast under supervision: the file-system client holds
    50% of the *system* disk while two self-paging domains (20% each)
    page through a striped multi-volume backing store — so the system
    USD, the volumes, the balancer and each pager are all separately
    crashable, and for every victim somebody else qualifies as an
    unaffected bystander.
    """
    domains = [
        {"kind": "fsclient", "name": "fsclient", "period_ms": 250,
         "slice_ms": 125.0, "laxity_ms": 2, "depth": 16},
    ]
    for name in ("pager-a", "pager-b"):
        domains.append({
            "kind": "pager", "name": name, "period_ms": 250,
            "slice_ms": 50.0, "laxity_ms": 10, "mode": "write-loop",
            "stretch_kb": 384, "driver_frames": 24, "swap_kb": 512,
            "store": "usbs",
        })
    runs = [{"name": "baseline"}]
    expect = [{"check": "kill_set", "exactly": {}}]
    for run, component, start, kills, bystanders in SCHEDULE:
        runs.append({"name": run,
                     "crashes": [{"component": component,
                                  "start_sec": start,
                                  "max_crashes": kills, "rate": 1.0}]})
        if component == "volume:0":
            # The storm-hit volume walks the ladder to retirement.
            expect.append({"check": "restart_budget", "run": run,
                           "component": component,
                           "max": config.max_restarts,
                           "final": "retired"})
        else:
            # Restartable components come back within budget.
            expect.append({"check": "recovered", "run": run,
                           "component": component,
                           "max_recovery_ms": config.max_recovery_ms})
        # Bystanders hold their bandwidth through every recovery
        # window of a component they do not depend on...
        expect.append({"check": "bystander_retention_during_crash",
                       "run": run, "baseline": "baseline",
                       "components": [component],
                       "domains": list(bystanders),
                       "floor": config.retention_floor})
        # ...and everybody makes progress despite the crash.
        expect.append({"check": "progress", "run": run,
                       "domains": ["fsclient", "pager-a", "pager-b"]})
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "crash-recovery", "family": "crash-recovery",
                    "seed": config.seed},
        "topology": {"volumes": config.volumes, "balancer": True},
        "workload": {"domains": domains},
        "supervision": {"enabled": True,
                        "heartbeat_ms": config.heartbeat_ms,
                        "max_restarts": config.max_restarts},
        "phases": {"settle_sec": config.settle_sec,
                   "measure_sec": config.measure_sec,
                   "wait_drains": 2,
                   "drain_limit_sec": config.drain_limit_sec},
        "runs": runs,
        "determinism": {"repeat": "crash-volume"},
        "expect": expect,
    })


def run(config=CrashConfig()):
    """Execute the crash mission (baseline, one run per victim, then
    the volume storm again for the determinism comparison); returns a
    :class:`CrashResult`."""
    mission = build_mission(config)
    return CrashResult(config=config, report=run_mission(mission))


def format_result(result):
    """Render a :class:`CrashResult` as the printed verdict tables."""
    rows = []
    for run, cid, record in result.victims:
        worst_ms = max((end - start for start, end in record["windows"]),
                       default=0) / 1e6
        rows.append((run, cid, len(record["crashes"]), record["restarts"],
                     record["escalations"], "%.0f" % worst_ms,
                     record["state"]))
    lines = [report.table(
        ["run", "victim", "crashes", "restarts", "escalations",
         "worst recovery ms", "final state"],
        rows, title="Crash plane — supervised recovery")]
    for inv in result.invariants:
        verdict = "ok" if inv["passed"] else "FAIL"
        detail = ""
        if inv["check"] == "bystander_retention_during_crash":
            detail = " %s during %s" % (inv["observed"]["retention"],
                                        "/".join(inv["components"]))
        lines.append("  [%s] %s%s" % (verdict, inv["check"], detail))
    audit = result.report["audit"]
    lines.append("crash rules all fired: %s"
                 % ("yes" if audit["passed"]
                    else "NO (%s)" % "; ".join(audit["vacuous"])))
    lines.append("volume storm reproducible (seed %d): %s"
                 % (result.config.seed,
                    "yes" if result.reproducible else "NO"))
    return "\n".join(lines)


def main(argv=None):
    """CLI: run the scenario, print the verdicts, write ``crash.json``;
    exits non-zero if the mission fails."""
    argv = list(sys.argv[1:] if argv is None else argv)
    out_dir = report.pop_out_dir(argv)
    if out_dir is None:
        return 1
    if argv:
        print("usage: python -m repro.exp crash [--out DIR]")
        return 1
    result = run()
    print(format_result(result))
    path = report.write_json(out_dir, "crash", result.report)
    print("full report: %s" % path)
    if not result.passed:
        print("crash: recovery/containment check FAILED")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
