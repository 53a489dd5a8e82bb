"""Pressure chaos: revocation under memory pressure with a hostile domain.

The Figure 4 escalation story, end to end, on an overcommitted machine:

* main memory is deliberately small; two *cooperative* dirty-heavy
  pagers (write-loop, so every resident page is dirty) hold optimistic
  frames above their guarantees, and a *hostile* domain has mapped every
  remaining free frame;
* the hostile domain is scripted (via a :class:`~repro.faults.BehaviorPlan`)
  to go **silent** under revocation — it never answers a notification;
* a claimant then asks for frames *within its guarantee*. Self-paging
  promises that request succeeds: the allocator escalates through the
  intrusive protocol, the hostile domain burns its strikes, and is
  killed — the only kill in the whole run;
* transfer waves then revoke optimistic frames from the cooperating
  pagers while a transient-error storm rages on their swap extents:
  each wave forces clean-before-release through the victim's own USD
  stream, with retries charged to the victim.

The verdict checks the paper's contract under all that pressure:

* the cooperative domains never drop below their guaranteed frames;
* they keep >= 95% of their fault-free bandwidth;
* only the hostile domain is killed;
* the whole run is byte-for-byte reproducible given the same seed
  (the storm run is executed twice and the payloads — including a
  digest of the frames-allocator event trace — compared).

The scenario is the committed mission file
``missions/pressure-revocation.toml``: this module loads it, hands
execution to :mod:`repro.missions.runner` and prints the verdict
table (the equivalence tests hold it, including the frames-trace
digests, to the pre-mission numbers).

Run it with ``python -m repro.exp chaos --pressure`` or
``make chaos-pressure``.
Expected runtime: ~1 s including the reproducibility re-run.
"""

from dataclasses import dataclass

from repro.exp import report
from repro.missions import run_mission, verdicts

#: The committed mission this scenario runs, under ``missions/``.
MISSION = "pressure-revocation"


@dataclass
class PressureResult:
    """Payloads from both runs plus the scenario's pass/fail verdict:
    the four invariants are the mission's verdicts (:data:`_VERDICTS`)."""

    seed: int
    retention_floor: float  # the coops' bandwidth floor under the storm
    baseline: dict      # full payload, fault-free disk
    storm: dict         # full payload, transient storm on coop swap
    reproducible: bool
    guarantees_held: bool
    hostile_killed_only: bool
    claim_satisfied: bool
    bandwidth_held: bool
    passed: bool        # the mission's own verdict: every check, the
                        # injection audit and the determinism re-run

    def retention(self, name):
        """Under-storm bandwidth as a fraction of fault-free bandwidth."""
        if not self.baseline["mbit"][name]:
            return 0.0
        return self.storm["mbit"][name] / self.baseline["mbit"][name]

    @property
    def coops(self):
        """Names of the cooperative domains, sorted."""
        return sorted(self.baseline["mbit"])


#: The result's verdict attributes -> the check kind deciding each (in
#: both runs: no coop dipped below its guarantee, only the hostile
#: domain was killed, the within-guarantee claim was granted in full;
#: under the storm: every coop kept >= the retention floor).
_VERDICTS = {"guarantees_held": "min_frames",
             "hostile_killed_only": "kill_set",
             "claim_satisfied": "claim_granted",
             "bandwidth_held": "bandwidth_retention"}


def _payload(mission_payload):
    """Mission run payload -> this scenario's historical payload shape
    (what :class:`PressureResult` and its tests consume)."""
    per_domain = mission_payload["domains"]
    return {
        "mbit": mission_payload["mbit"],
        "min_allocated": mission_payload["min_allocated"],
        "kills": mission_payload["kills"],
        "claim_granted": mission_payload["claim_granted"],
        "transfers": mission_payload["transfers"],
        "hostile_grabbed": mission_payload["hostile_grabbed"]["hostile"],
        "stats": {
            "revocation_rounds": mission_payload["stats"]
                                                ["revocation_rounds"],
            "revocation_cleans": mission_payload["stats"]
                                                ["revocation_cleans"],
            "behavior_faults": mission_payload["stats"]["behavior_faults"],
            "pageouts": sum(d["pageouts"] for d in per_domain.values()),
            "usd_retries": sum(d["usd_retries"]
                               for d in per_domain.values()),
        },
        "trace_digest": mission_payload["trace_digest"],
    }


def run():
    """Execute the pressure mission: fault-free baseline, the storm,
    then the storm again (determinism)."""
    mission = report.load_scenario(MISSION)
    mission_report = run_mission(mission)
    checks = verdicts(mission_report)
    return PressureResult(
        seed=mission["mission"]["seed"],
        retention_floor=checks["bandwidth_retention"]["floor"],
        baseline=_payload(mission_report["runs"]["baseline"]),
        storm=_payload(mission_report["runs"]["storm"]),
        reproducible=mission_report["reproducible"],
        passed=mission_report["passed"],
        **{name: checks[kind]["passed"] for name, kind in _VERDICTS.items()})


def format_result(result):
    """Render a :class:`PressureResult` as the printed verdict table."""
    rows = []
    for name in result.coops:
        rows.append((
            name,
            "%.2f" % result.baseline["mbit"][name],
            "%.2f" % result.storm["mbit"][name],
            "%.1f%%" % (100 * result.retention(name)),
            "%d" % result.storm["min_allocated"][name]))
    lines = [report.table(
        ["domain", "clean Mbit/s", "storm Mbit/s", "retention",
         "min frames"],
        rows, title="Pressure — revocation under memory pressure")]
    stats = ", ".join("%s=%s" % kv
                      for kv in sorted(result.storm["stats"].items()))
    lines.append("recovery: %s" % stats)
    lines.append("kills: %s (hostile only: %s)"
                 % (result.storm["kills"] or "{}",
                    "yes" if result.hostile_killed_only else "NO"))
    lines.append("within-guarantee claim satisfied: %s"
                 % ("yes" if result.claim_satisfied else "NO"))
    lines.append("guarantees held throughout: %s"
                 % ("yes" if result.guarantees_held else "NO"))
    lines.append("bandwidth retention >= %.0f%%: %s"
                 % (100 * result.retention_floor,
                    "yes" if result.bandwidth_held else "NO"))
    lines.append("storm reproducible (seed %d): %s"
                 % (result.seed,
                    "yes" if result.reproducible else "NO"))
    return "\n".join(lines)


def main():
    """Run the pressure scenario; exit non-zero if the verdict fails."""
    result = run()
    print(format_result(result))
    if not result.passed:
        raise SystemExit("pressure: revocation-under-pressure mission check FAILED")


if __name__ == "__main__":
    main()
