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

Since the mission plane landed this module is a thin wrapper: it
builds the ``pressure-revocation`` mission from its config and hands
execution to :mod:`repro.missions.runner` (the committed corpus file
``missions/pressure-revocation.toml`` is the same mission in TOML,
and the equivalence tests hold both — including the frames-trace
digests — to the pre-mission numbers).

Run it with ``python -m repro.exp chaos --pressure`` or
``make chaos-pressure``.

Expected runtime: ~1 s including the reproducibility re-run
(`python -m repro.exp chaos --pressure` or `make chaos-pressure`).
"""

from dataclasses import dataclass

from repro.exp import report
from repro.missions import (MISSION_SCHEMA_VERSION, run_mission,
                            validate_mission, verdicts)

#: The paper platform's page size in KB (an EB164's 8 KB pages); the
#: mission format sizes stretches in KB, the config in pages.
_PAGE_KB = 8


@dataclass(frozen=True)
class PressureConfig:
    """Knobs for the pressure scenario: sizes, timing, pass thresholds."""

    seed: int = 7
    transient_rate: float = 0.03
    machine_mb: int = 4               # 512 frames of 8 KB: easy to overcommit
    coop_guaranteed: int = 24
    coop_extra: int = 24
    coop_driver_frames: int = 48      # guaranteed + extra, all dirty in use
    coop_stretch_pages: int = 64
    claim_frames: int = 24            # within the claimant's guarantee
    claim_guaranteed: int = 32
    wave_frames: int = 8
    waves_per_donor: int = 3          # drains each donor's optimistic share
    claim_at_sec: float = 1.0
    settle_sec: float = 2.0
    measure_sec: float = 4.0
    wave_period_sec: float = 0.3
    retention_floor: float = 0.95
    revocation_timeout_ms: int = 100
    max_rounds: int = 3


@dataclass
class PressureResult:
    """Payloads from both runs plus the scenario's pass/fail verdict:
    the four invariants are the mission's verdicts (:data:`_VERDICTS`)."""

    config: PressureConfig
    baseline: dict      # full payload, fault-free disk
    storm: dict         # full payload, transient storm on coop swap
    reproducible: bool
    guarantees_held: bool
    hostile_killed_only: bool
    claim_satisfied: bool
    bandwidth_held: bool

    def retention(self, name):
        """Under-storm bandwidth as a fraction of fault-free bandwidth."""
        if not self.baseline["mbit"][name]:
            return 0.0
        return self.storm["mbit"][name] / self.baseline["mbit"][name]

    @property
    def coops(self):
        """Names of the cooperative domains, sorted."""
        return sorted(self.baseline["mbit"])

    @property
    def passed(self):
        """Overall verdict: all four invariants plus reproducibility."""
        return (self.guarantees_held and self.hostile_killed_only
                and self.claim_satisfied and self.bandwidth_held
                and self.reproducible)


_COOPS = ("coop-a", "coop-b")

#: The result's verdict attributes -> the check kind deciding each (in
#: both runs: no coop dipped below its guarantee, only the hostile
#: domain was killed, the within-guarantee claim was granted in full;
#: under the storm: every coop kept >= the retention floor).
_VERDICTS = {"guarantees_held": "min_frames",
             "hostile_killed_only": "kill_set",
             "claim_satisfied": "claim_granted",
             "bandwidth_held": "bandwidth_retention"}


def build_mission(config):
    """The pressure scenario as a normalised mission dict, its four
    invariants declared as checks (see :data:`_VERDICTS`)."""
    stretch_kb = config.coop_stretch_pages * _PAGE_KB
    domains = [{
        "kind": "pager", "name": name, "period_ms": 250, "slice_ms": 50.0,
        "mode": "write-loop", "stretch_kb": stretch_kb,
        "driver_frames": config.coop_driver_frames,
        "swap_kb": 2 * stretch_kb,
        "guaranteed_frames": config.coop_guaranteed,
        "extra_frames": config.coop_extra,
    } for name in _COOPS]
    domains.append({"kind": "claimant", "name": "claimant",
                    "guaranteed_frames": config.claim_guaranteed,
                    "extra_frames": config.wave_frames * 2})
    # The hostile domain: a tiny guarantee, a huge optimistic ceiling
    # (extra_frames=-1: the whole machine), every free frame mapped.
    domains.append({"kind": "hostile_hog", "name": "hostile"})
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "pressure-revocation", "family": "pressure",
                    "seed": config.seed},
        "topology": {"machine_mb": config.machine_mb,
                     "revocation_timeout_ms": config.revocation_timeout_ms,
                     "max_revocation_rounds": config.max_rounds},
        "workload": {"domains": domains},
        "drivers": [
            {"kind": "sample_min_alloc", "domains": list(_COOPS)},
            {"kind": "claim", "client": "claimant",
             "frames": config.claim_frames, "at_sec": config.claim_at_sec},
            {"kind": "waves", "donors": list(_COOPS),
             "claimant": "claimant", "frames": config.wave_frames,
             "per_donor": config.waves_per_donor,
             "start_sec": config.settle_sec + 0.2,
             "period_sec": config.wave_period_sec},
        ],
        "behaviors": [{"kind": "revoke_silent", "domain": "hostile"}],
        "phases": {"settle_sec": config.settle_sec,
                   "measure_sec": config.measure_sec},
        "runs": [
            {"name": "baseline"},
            {"name": "storm", "faults": [
                {"kind": "transient", "rate": config.transient_rate,
                 "scope": "extent:%s" % name} for name in _COOPS]},
        ],
        "determinism": {"repeat": "storm"},
        "expect": [
            {"check": "min_frames", "domains": list(_COOPS),
             "floor": config.coop_guaranteed},
            {"check": "kill_set", "exactly": {"hostile": 1}},
            {"check": "claim_granted", "frames": config.claim_frames},
            {"check": "bandwidth_retention", "run": "storm",
             "baseline": "baseline", "domains": list(_COOPS),
             "floor": config.retention_floor},
        ],
    })


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


def run(config=PressureConfig()):
    """Execute the pressure mission: fault-free baseline, the storm,
    then the storm again (determinism)."""
    mission_report = run_mission(build_mission(config))
    checks = verdicts(mission_report)
    return PressureResult(
        config=config,
        baseline=_payload(mission_report["runs"]["baseline"]),
        storm=_payload(mission_report["runs"]["storm"]),
        reproducible=mission_report["reproducible"],
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
                 % (100 * result.config.retention_floor,
                    "yes" if result.bandwidth_held else "NO"))
    lines.append("storm reproducible (seed %d): %s"
                 % (result.config.seed,
                    "yes" if result.reproducible else "NO"))
    return "\n".join(lines)


def main():
    """Run the pressure scenario; exit non-zero if the verdict fails."""
    result = run()
    print(format_result(result))
    if not result.passed:
        raise SystemExit("pressure: revocation-under-pressure check FAILED")


if __name__ == "__main__":
    main()
