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

The scenario is the committed mission file
``missions/crash-recovery.toml`` (it also says why each victim gets
its own run against the shared baseline): this module loads it, hands
execution to :mod:`repro.missions.runner`, prints the verdicts and
writes the full canonical report to ``crash.json`` (CI uploads it).

Run it with ``python -m repro.exp crash`` or ``make crash``.
Expected runtime: ~1.5 s including the drain wait and the
reproducibility re-run.
"""

import sys
from dataclasses import dataclass

from repro.exp import report
from repro.missions import run_mission

#: The committed mission this scenario runs, under ``missions/``.
MISSION = "crash-recovery"


@dataclass
class CrashResult:
    """The mission and its report, plus the pieces the verdict table
    prints."""

    mission: dict                    # the loaded, normalised mission
    report: dict                     # the full canonical mission report

    @property
    def victims(self):
        """[(run, component, supervision summary)] per crash rule, in
        the mission's run order."""
        return [(run["name"], rule["component"],
                 self.report["runs"][run["name"]]["supervision"]
                 [rule["component"]])
                for run in self.mission["runs"] for rule in run["crashes"]]

    @property
    def passed(self):
        """Overall verdict: the mission's own PASS (all invariants,
        the injection audit, and the determinism re-run)."""
        return self.report["passed"]


def run():
    """Execute the crash mission (baseline, one run per victim, then
    the volume storm again for the determinism comparison); returns a
    :class:`CrashResult`."""
    mission = report.load_scenario(MISSION)
    return CrashResult(mission=mission, report=run_mission(mission))


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
    for inv in result.report["invariants"]:
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
                 % (result.report["mission"]["seed"],
                    "yes" if result.report["reproducible"] else "NO"))
    return "\n".join(lines)


def main(argv=None):
    """CLI: run the scenario, print the verdicts, write ``crash.json``;
    exits non-zero if the mission fails."""
    return report.mission_main("crash", argv, run, format_result,
                               "recovery/containment")


if __name__ == "__main__":
    sys.exit(main())
