"""Chaos: the Figure-9 workload under a deterministic fault storm.

Figure 9 shows that a heavily paging application cannot steal disk
bandwidth from a file-system client. This scenario asks the harder
question: can a heavily paging application *whose disk is failing*?
The storm scopes a transient-error rate (>= 10%) plus a bad block to
one pager's swap extent. Every retry, backoff and remap that recovery
costs is charged to that pager, so the verdict mirrors Figure 9's:

* the file-system client and the other pager stay within tolerance
  (default 5%) of their fault-free bandwidth;
* the whole storm is reproducible byte-for-byte given the same seed —
  the run is re-executed and the two result payloads compared.

Since the mission plane landed this module is a thin wrapper: it
builds the ``chaos-fig9`` mission from its config and hands execution
to :mod:`repro.missions.runner` (the committed corpus file
``missions/chaos-fig9.toml`` is the same mission in TOML, and the
equivalence tests hold both to the pre-mission numbers).

Run it with ``python -m repro.exp chaos`` or ``make chaos``.
Expected runtime: ~2 s including the reproducibility re-run.
"""

from dataclasses import dataclass

from repro.exp import report
from repro.exp.fig9 import Fig9Config
from repro.missions import (MISSION_SCHEMA_VERSION, run_mission,
                            validate_mission, verdicts)


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for the fault storm: rates, scope, and pass tolerance."""

    fig9: Fig9Config = Fig9Config(settle_sec=3.0, measure_sec=10.0)
    seed: int = 42
    transient_rate: float = 0.15    # the scenario's floor is 10%
    bad_blocks: int = 1
    tolerance: float = 0.05


@dataclass
class ChaosResult:
    """Fault-free vs under-storm bandwidth plus the isolation verdict."""

    config: ChaosConfig
    baseline: dict      # domain -> Mbit/s, fault-free run
    storm: dict         # domain -> Mbit/s, under the storm
    stats: dict         # recovery counters from the storm run
    victim: str
    reproducible: bool
    isolated: bool      # both non-faulty domains within tolerance

    def retention(self, name):
        """Under-storm bandwidth as a fraction of fault-free bandwidth."""
        if not self.baseline[name]:
            return 0.0
        return self.storm[name] / self.baseline[name]

    @property
    def bystanders(self):
        """Every domain except the one whose disk extent is faulty."""
        return [name for name in self.baseline if name != self.victim]

    @property
    def passed(self):
        """Overall verdict: isolation held and the run reproduced."""
        return self.isolated and self.reproducible


def build_mission(config):
    """The chaos scenario as a normalised mission dict.

    The fsclient takes 50% of the disk, the pagers take their
    Figure-9 shares, and the storm (transient rate + bad blocks)
    lands on the last — smallest-guarantee — pager's swap extent.
    The isolation verdict is its one ``bandwidth_retention`` check.
    """
    fig9 = config.fig9
    domains = [{
        "kind": "fsclient", "name": "fsclient",
        "period_ms": fig9.period_ms, "slice_ms": float(fig9.fs_slice_ms),
        "laxity_ms": fig9.fs_laxity_ms, "depth": fig9.fs_depth,
    }]
    for slice_ms in fig9.pager_slices_ms:
        share = 100 * slice_ms // fig9.period_ms
        domains.append({
            "kind": "pager", "name": "pager-%d%%" % share,
            "period_ms": fig9.period_ms, "slice_ms": float(slice_ms),
            "laxity_ms": fig9.pager_laxity_ms, "mode": "write-loop",
            "stretch_kb": fig9.stretch_bytes // 1024,
            "driver_frames": fig9.driver_frames,
            "swap_kb": fig9.swap_bytes // 1024,
        })
    victim = domains[-1]["name"]     # smallest guarantee hosts the storm
    faults = []
    if config.transient_rate > 0.0:
        faults.append({"kind": "transient", "rate": config.transient_rate,
                       "scope": "extent:%s" % victim})
    if config.bad_blocks:
        faults.append({"kind": "bad_block", "blocks": config.bad_blocks,
                       "scope": "extent:%s" % victim})
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "chaos-fig9", "family": "chaos",
                    "seed": config.seed},
        "topology": {"backing": fig9.backing},
        "workload": {"domains": domains},
        "phases": {"settle_sec": fig9.settle_sec,
                   "measure_sec": fig9.measure_sec},
        "runs": [{"name": "baseline"},
                 {"name": "storm", "faults": faults}],
        "determinism": {"repeat": "storm"},
        "expect": [{"check": "bandwidth_retention", "run": "storm",
                    "baseline": "baseline",
                    "domains": [d["name"] for d in domains[:-1]],
                    "tolerance": config.tolerance}],
    })


def run(config=ChaosConfig()):
    """Execute the chaos mission: baseline run, storm run, then the
    storm again for the determinism comparison."""
    mission = build_mission(config)
    mission_report = run_mission(mission)
    baseline = mission_report["runs"]["baseline"]
    storm = mission_report["runs"]["storm"]
    victim = mission["workload"]["domains"][-1]["name"]
    victim_stats = storm["domains"][victim]
    stats = {
        "faults_injected": storm["stats"]["faults_injected"],
        "usd_retries": victim_stats["usd_retries"],
        "usd_failures": victim_stats["usd_failures"],
        "sfs_remaps": victim_stats["sfs_remaps"],
        "pages_lost": victim_stats["pages_lost"],
        "watchdog_kills": victim_stats["watchdog_kills"],
    }
    return ChaosResult(config=config, baseline=baseline["mbit"],
                       storm=storm["mbit"], stats=stats, victim=victim,
                       reproducible=mission_report["reproducible"],
                       isolated=verdicts(mission_report)
                       ["bandwidth_retention"]["passed"])


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
                 % (100 * result.config.tolerance,
                    "yes" if result.isolated else "NO"))
    lines.append("storm reproducible (seed %d): %s"
                 % (result.config.seed,
                    "yes" if result.reproducible else "NO"))
    return "\n".join(lines)


def main():
    """Run the chaos scenario; exit non-zero if the verdict fails."""
    result = run()
    print(format_result(result))
    if not result.passed:
        raise SystemExit("chaos: isolation/reproducibility check FAILED")


if __name__ == "__main__":
    main()
