"""The ``integrity`` subcommand: silent corruption, accountably repaired.

The paper's accountability argument (§4) prices every cost of paging
to the domain that incurs it. This experiment extends that pricing to
the cost of *distrust*: the deterministic corruption plane
(:mod:`repro.faults.corrupt`) silently rots data under a victim's swap
— reads complete ``ok`` with wrong bytes — while the end-to-end
checksummed swap (:mod:`repro.integrity`) detects, quarantines,
repairs or honestly declares each loss, and a background scrubber
sweeps cold bloks on the owner's own guarantee. Three storms run
against a shared baseline, one per corruption kind:

* **flips** — transient ``bit_flip``: every detection is followed by
  one repair re-read through the owner's stream, and most heal;
* **torn** — persistent ``torn_write``: the repair re-read returns
  the same rotten version, so the blok is declared lost and the PR-2
  containment path (retire the blok, kill only the faulting thread)
  takes over;
* **misdirect** — a ``misdirected_write`` burst against the victim's
  shard of one USBS volume, driving unrepairable losses past the
  detect threshold so the volume is handed to the PR-5 drain ladder:
  degrade, evacuate (each rescued blok re-verified in flight), retire.

The gates:

* **zero undetected corruptions** in every run: injections minus
  payloads the wrappers intercepted is exactly zero — nothing rotten
  ever reached a consumer;
* **repair is charged to the suffering account**: the victim's
  per-volume charged share stays within the ``share_error`` check's
  ``max`` of its contract during the flip storm (repairs ride the victim's own
  slice, they never borrow a bystander's), and the detection ledger
  balances (``detected == repaired + lost``);
* **bystanders keep their bandwidth**: the file-system client on the
  disjoint system disk retains >= 95% of baseline through every
  storm, and the co-tenant pager on the *same* striped store retains
  its own floor;
* the misdirect run is **reproducible byte-for-byte**: it is
  re-executed and the two payloads compared.

The scenario is the committed mission file
``missions/integrity-accountability.toml`` (one run per corruption
kind against a shared baseline): this module loads it, hands
execution to :mod:`repro.missions.runner`, prints the verdicts and
writes the full canonical report to ``integrity.json`` (CI uploads
it).

Run it with ``python -m repro.exp integrity`` or ``make integrity``.
Expected runtime: ~5 s including the drain wait and the
reproducibility re-run.
"""

import sys
from dataclasses import dataclass

from repro.exp import report
from repro.missions import run_mission

#: The committed mission this scenario runs, under ``missions/``.
MISSION = "integrity-accountability"


@dataclass
class IntegrityResult:
    """The mission and its report, plus the pieces the verdict table
    prints."""

    mission: dict                    # the loaded, normalised mission
    report: dict                     # the full canonical mission report

    @property
    def storms(self):
        """[(run, kind, integrity payload)] per corruption rule, in the
        mission's run order."""
        return [(run["name"], rule["kind"],
                 self.report["runs"][run["name"]]["integrity"])
                for run in self.mission["runs"]
                for rule in run["corruptions"]]

    @property
    def passed(self):
        """Overall verdict: the mission's own PASS (all invariants,
        the injection audit, and the determinism re-run)."""
        return self.report["passed"]


def run():
    """Execute the integrity mission (baseline, one run per corruption
    kind, then the misdirect storm again for the determinism
    comparison); returns an :class:`IntegrityResult`."""
    mission = report.load_scenario(MISSION)
    return IntegrityResult(mission=mission, report=run_mission(mission))


def format_result(result):
    """Render an :class:`IntegrityResult` as the printed verdicts."""
    rows = []
    for run, kind, ledger in result.storms:
        scrubbed = sum(entry["scanned"]
                       for entry in ledger["scrub"].values())
        rows.append((run, kind, ledger["injected"], ledger["detected"],
                     ledger["repaired"], ledger["lost"],
                     ledger["undetected"], scrubbed,
                     ",".join(str(v) for v in
                              ledger["escalated_volumes"]) or "-"))
    lines = [report.table(
        ["run", "kind", "injected", "detected", "repaired", "lost",
         "undetected", "scrubbed", "escalated"],
        rows, title="Integrity plane — detect, repair, declare")]
    for inv in result.report["invariants"]:
        verdict = "ok" if inv["passed"] else "FAIL"
        detail = ""
        if inv["check"] == "scrub_overhead":
            detail = " %s during %s" % (inv["observed"]["retention"],
                                        inv["run"])
        elif inv["check"] == "repaired":
            detail = " %s during %s" % (inv["observed"], inv["run"])
        elif inv["check"] == "share_error":
            detail = " worst %.4f" % inv["observed"]["worst_share_error"]
        lines.append("  [%s] %s%s" % (verdict, inv["check"], detail))
    audit = result.report["audit"]
    lines.append("corruption rules all fired: %s"
                 % ("yes" if audit["passed"]
                    else "NO (%s)" % "; ".join(audit["vacuous"])))
    lines.append("misdirect storm reproducible (seed %d): %s"
                 % (result.report["mission"]["seed"],
                    "yes" if result.report["reproducible"] else "NO"))
    return "\n".join(lines)


def main(argv=None):
    """CLI: run the scenario, print the verdicts, write
    ``integrity.json``; exits non-zero if the mission fails."""
    return report.mission_main("integrity", argv, run, format_result,
                               "corruption containment")


if __name__ == "__main__":
    sys.exit(main())
