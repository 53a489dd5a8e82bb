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
  per-volume charged share stays within ``share_error_max`` of its
  contract during the flip storm (repairs ride the victim's own
  slice, they never borrow a bystander's), and the detection ledger
  balances (``detected == repaired + lost``);
* **bystanders keep their bandwidth**: the file-system client on the
  disjoint system disk retains >= 95% of baseline through every
  storm, and the co-tenant pager on the *same* striped store retains
  its own floor;
* the misdirect run is **reproducible byte-for-byte**: it is
  re-executed and the two payloads compared.

The scenario is a thin wrapper over the mission plane: it builds the
``integrity-accountability`` mission from its config, hands execution
to :mod:`repro.missions.runner`, prints the verdicts and writes the
full canonical report to ``integrity.json`` (CI uploads it).

Run it with ``python -m repro.exp integrity`` or ``make integrity``.
Expected runtime: ~1 minute including the drain wait and the
reproducibility re-run.
"""

import sys
from dataclasses import dataclass

from repro.exp import report
from repro.missions import MISSION_SCHEMA_VERSION, run_mission, validate_mission

#: The storm schedule: (run name, corruption kind, rate, scope,
#: injection window, min repairs). One run per kind so each verdict
#: reads cleanly against the shared baseline. The flip storm starts
#: immediately (transients heal; min one repair proves the ladder's
#: happy path); the misdirect burst waits for ``measure`` so the
#: victim's working set is fully checksummed before the medium turns
#: hostile — that is what pushes losses past the drain threshold.
STORMS = (
    ("flips", "bit_flip", 0.15, "volume_of:pager-a", "start", 1),
    ("torn", "torn_write", 0.1, "volume_of:pager-a", "start", 0),
    ("misdirect", "misdirected_write", 0.8, "volume_of:pager-a",
     "measure", 0),
)


@dataclass(frozen=True)
class IntegrityConfig:
    """Knobs for the integrity scenario: workload, rates, floors."""

    seed: int = 300
    settle_sec: float = 3.0
    measure_sec: float = 3.0
    volumes: int = 4                 # pager swap striped across these
    scrub_interval_ms: int = 10      # scrubber pace, one blok per tick
    detect_threshold: int = 6        # unrepairable losses before drain
    fs_floor: float = 0.95           # fsclient (disjoint system disk)
    pager_floor: float = 0.9         # co-tenant pager, flip/torn storms
    drain_floor: float = 0.8         # co-tenant pager through the drain
    share_error_max: float = 0.35    # victim charged-vs-contract, flips
    drain_limit_sec: float = 30.0    # volume evacuation budget


@dataclass
class IntegrityResult:
    """The mission report plus the pieces the verdict table prints."""

    config: IntegrityConfig
    report: dict                     # the full canonical mission report

    @property
    def storms(self):
        """[(run, kind, integrity payload)] per schedule entry."""
        return [(run, kind, self.report["runs"][run]["integrity"])
                for run, kind, _, _, _, _ in STORMS]

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
    """The integrity scenario as a normalised mission dict.

    Figure-9's cast with a rotting backing store: the file-system
    client holds 50% of the *system* disk — a spindle the corruption
    never touches, so its retention isolates the scrub/repair cost —
    while two self-paging read-loop domains (30% each) page through a
    striped multi-volume store. ``pager-a`` is always the victim;
    ``pager-b`` shares every volume with it and is the close-quarters
    bystander.
    """
    domains = [
        {"kind": "fsclient", "name": "fsclient", "period_ms": 250,
         "slice_ms": 125.0, "laxity_ms": 2, "depth": 16},
    ]
    for name in ("pager-a", "pager-b"):
        domains.append({
            "kind": "pager", "name": name, "period_ms": 50,
            "slice_ms": 15.0, "mode": "read-loop", "stretch_kb": 256,
            "driver_frames": 24, "guaranteed_frames": 24,
            "extra_frames": 24, "swap_kb": 1024, "store": "usbs",
        })
    runs = [{"name": "baseline"}]
    expect = [{"check": "undetected_corruptions", "max": 0}]
    for run, kind, rate, scope, during, min_repaired in STORMS:
        runs.append({"name": run,
                     "corruptions": [{"kind": kind, "rate": rate,
                                      "scope": scope,
                                      "during": during}]})
        # The detection ledger balances: everything detected is
        # either repaired or honestly declared lost, never dropped.
        expect.append({"check": "repaired", "run": run,
                       "min_detected": 1,
                       "min_repaired": min_repaired})
        # The clean-spindle bystander holds the paper's 95% bar; the
        # co-tenant pager holds its own floor (lower through the
        # drain, which copies the victim's shard through the shared
        # volumes).
        expect.append({"check": "scrub_overhead", "run": run,
                       "baseline": "baseline", "domains": ["fsclient"],
                       "floor": config.fs_floor})
        expect.append({"check": "scrub_overhead", "run": run,
                       "baseline": "baseline", "domains": ["pager-b"],
                       "floor": (config.drain_floor
                                 if run == "misdirect"
                                 else config.pager_floor)})
        expect.append({"check": "progress", "run": run,
                       "domains": ["fsclient", "pager-b"]})
    # Repairs ride the victim's own stream: through the flip storm
    # every per-volume charged share stays within share_error_max of
    # its contract — the §4 "charged to the right account" evidence.
    expect.append({"check": "share_error", "run": "flips",
                   "max": config.share_error_max})
    # The misdirect burst walks the ladder to the end: the poisoned
    # volume is degraded, its shards evacuated, and every rescued
    # blok re-verified on the way out.
    expect.append({"check": "drained", "run": "misdirect",
                   "victim_of": "pager-a"})
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "integrity-accountability",
                    "family": "corruption", "seed": config.seed},
        "topology": {"machine_mb": 8, "volumes": config.volumes},
        "workload": {"domains": domains},
        "integrity": {"enabled": True, "scrub": True,
                      "scrub_interval_ms": config.scrub_interval_ms,
                      "detect_threshold": config.detect_threshold},
        "phases": {"settle_sec": config.settle_sec,
                   "measure_sec": config.measure_sec,
                   "wait_drains": 1,
                   "drain_limit_sec": config.drain_limit_sec},
        "runs": runs,
        "determinism": {"repeat": "misdirect"},
        "expect": expect,
    })


def run(config=IntegrityConfig()):
    """Execute the integrity mission (baseline, one run per corruption
    kind, then the misdirect storm again for the determinism
    comparison); returns an :class:`IntegrityResult`."""
    mission = build_mission(config)
    return IntegrityResult(config=config, report=run_mission(mission))


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
    for inv in result.invariants:
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
                 % (result.config.seed,
                    "yes" if result.reproducible else "NO"))
    return "\n".join(lines)


def main(argv=None):
    """CLI: run the scenario, print the verdicts, write
    ``integrity.json``; exits non-zero if the mission fails."""
    argv = list(sys.argv[1:] if argv is None else argv)
    out_dir = report.pop_out_dir(argv)
    if out_dir is None:
        return 1
    if argv:
        print("usage: python -m repro.exp integrity [--out DIR]")
        return 1
    result = run()
    print(format_result(result))
    path = report.write_json(out_dir, "integrity", result.report)
    print("full report: %s" % path)
    if not result.passed:
        print("integrity: corruption containment check FAILED")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
