"""Chaos: the Figure-9 workload under a deterministic fault storm.

Figure 9 shows that a heavily paging application cannot steal disk
bandwidth from a file-system client. This scenario asks the harder
question: can a heavily paging application *whose disk is failing*?
The storm scopes a transient-error rate (>= 10%) plus a bad block to
one pager's swap extent. Every retry, backoff and remap that recovery
costs is charged to that pager, so the verdict mirrors Figure 9's:

* the file-system client and the other pager stay within tolerance
  (5%, declared in the mission file) of their fault-free bandwidth;
* the whole storm is reproducible byte-for-byte given the same seed —
  the run is re-executed and the two result payloads compared.

The scenario is the committed mission file ``missions/chaos-fig9.toml``:
this module loads it, hands execution to :mod:`repro.missions.runner`
and prints the verdict table (the equivalence tests hold it to the
pre-mission numbers).

Run it with ``python -m repro.exp chaos`` or ``make chaos``.
Expected runtime: ~1 s including the reproducibility re-run.
"""

from dataclasses import dataclass

from repro.exp import report
from repro.missions import run_mission, verdicts

#: The committed mission this scenario runs, under ``missions/``.
MISSION = "chaos-fig9"


@dataclass
class ChaosResult:
    """Fault-free vs under-storm bandwidth plus the isolation verdict."""

    seed: int
    tolerance: float    # the bystanders' allowed retention shortfall
    baseline: dict      # domain -> Mbit/s, fault-free run
    storm: dict         # domain -> Mbit/s, under the storm
    stats: dict         # recovery counters from the storm run
    victim: str
    reproducible: bool
    isolated: bool      # both non-faulty domains within tolerance
    passed: bool        # the mission's own verdict: every check, the
                        # injection audit and the determinism re-run

    def retention(self, name):
        """Under-storm bandwidth as a fraction of fault-free bandwidth."""
        if not self.baseline[name]:
            return 0.0
        return self.storm[name] / self.baseline[name]

    @property
    def bystanders(self):
        """Every domain except the one whose disk extent is faulty."""
        return [name for name in self.baseline if name != self.victim]


def run():
    """Execute the chaos mission: baseline run, storm run, then the
    storm again for the determinism comparison."""
    mission = report.load_scenario(MISSION)
    mission_report = run_mission(mission)
    baseline = mission_report["runs"]["baseline"]
    storm = mission_report["runs"]["storm"]
    # The storm's rules all scope one pager's extent: "extent:<victim>".
    victim, = {rule["scope"].partition(":")[2]
               for run in mission["runs"] for rule in run["faults"]}
    victim_stats = storm["domains"][victim]
    stats = {
        "faults_injected": storm["stats"]["faults_injected"],
        "usd_retries": victim_stats["usd_retries"],
        "usd_failures": victim_stats["usd_failures"],
        "sfs_remaps": victim_stats["sfs_remaps"],
        "pages_lost": victim_stats["pages_lost"],
        "watchdog_kills": victim_stats["watchdog_kills"],
    }
    retention = verdicts(mission_report)["bandwidth_retention"]
    return ChaosResult(seed=mission["mission"]["seed"],
                       tolerance=retention["tolerance"],
                       baseline=baseline["mbit"], storm=storm["mbit"],
                       stats=stats, victim=victim,
                       reproducible=mission_report["reproducible"],
                       isolated=retention["passed"],
                       passed=mission_report["passed"])


def format_result(result):
    """Render a :class:`ChaosResult` as the printed verdict table."""
    rows = []
    for name in result.baseline:
        note = "<- fault storm" if name == result.victim else ""
        rows.append((name, "%.2f" % result.baseline[name],
                     "%.2f" % result.storm[name],
                     "%.1f%%" % (100 * result.retention(name)), note))
    lines = [report.table(
        ["domain", "clean Mbit/s", "storm Mbit/s", "retention", ""],
        rows, title="Chaos — Figure-9 workload under a fault storm")]
    stats = ", ".join("%s=%s" % kv for kv in sorted(result.stats.items()))
    lines.append("recovery: %s" % stats)
    lines.append("bystanders within %.0f%%: %s"
                 % (100 * result.tolerance,
                    "yes" if result.isolated else "NO"))
    lines.append("storm reproducible (seed %d): %s"
                 % (result.seed,
                    "yes" if result.reproducible else "NO"))
    return "\n".join(lines)


def main():
    """Run the chaos scenario; exit non-zero if the verdict fails."""
    result = run()
    print(format_result(result))
    if not result.passed:
        raise SystemExit("chaos: fault-storm mission check FAILED")


if __name__ == "__main__":
    main()
