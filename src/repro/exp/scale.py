"""The ``scale`` subcommand: the multi-volume USBS scale-out experiment.

Not a figure from the paper: §5.2 describes a *single* User-Safe Disk
backing the swap filesystem. This experiment asks the question the
multi-volume backing store exists to answer — does aggregate paging
bandwidth scale with spindles while each client's per-volume QoS
contract is still honoured, and does one failing spindle stay one
spindle's problem?

Three legs, all deterministic under the placement seed:

Leg A (baseline)
    Three self-paging domains (10/20/40% of a 25 ms period) stream
    through 1 MB stretches against a **one-volume** backing store.
    Aggregate bandwidth here is a single disk arm's worth.

Leg B (scale-out)
    The identical workload against **four volumes, striped**: every
    backing is sharded blok-round-robin across all spindles, and every
    shard carries the client's full guarantee on its volume. Gates:

    * aggregate bandwidth >= ``min_scaling`` x leg A (default 3x), and
    * on every volume, every client's *charged* share — (served +
      laxity-burned) time over the measurement window, the honest
      number Atropos accounts — within ``share_tolerance`` (default
      5%) of its contracted slice/period.

Leg C (failure containment)
    The workload placed **pinned** (whole backings on single volumes,
    chosen by a deterministic seeded draw): the 20%-share domain lands
    alone on one volume, the bystanders share another. A whole-disk
    transient storm hits the victim volume mid-run. Gates:

    * injected faults appear on the victim volume *only*,
    * the health monitor degrades the victim and the drain re-places
      its extents on a healthy volume (no shard stranded),
    * any bloks lost during the drain belong to the victim's backing
      *only*, and
    * bystander bandwidth during the storm window holds at
      >= ``retention_floor`` (default 95%) of the clean pinned run.

Since the mission plane landed this module is a thin wrapper: legs A/B
are the ``scale-scaling`` mission and leg C the ``scale-failover``
mission, both built from the config here and executed by
:mod:`repro.missions.runner` (the committed corpus file
``missions/scale-scaleout.toml`` is the same workload in TOML at
corpus scale; the equivalence tests hold the wrapper to the
pre-mission numbers).

Run it with ``python -m repro.exp scale`` (~4 minutes: five full
system builds, each populating 384 pages of swap at contracted rates)
or ``python -m repro.exp scale --smoke`` (reduced stretches and
windows, ~1 minute, used by CI; smoke reports the same numbers but
does not enforce the gates — the reduced windows are too short to be
statistically meaningful). Writes ``scale.json`` to ``--out`` (default
``results/``); exits non-zero if any gate fails.
"""

import sys
from dataclasses import dataclass

from repro.exp import report
from repro.missions import (MISSION_SCHEMA_VERSION, run_mission,
                            validate_mission, verdicts)

MB = 1024 * 1024

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScaleConfig:
    """Everything the three legs share; one object so the report can
    record exactly what produced the numbers."""

    shares: tuple = (10, 20, 40)     # % of the period, one domain each
    period_ms: int = 25
    laxity_ms: int = 2
    stretch_bytes: int = 1 * MB
    swap_bytes: int = 2 * MB
    frames: int = 24
    prefetch_depth: int = 16
    volumes: int = 4
    seed: int = 1999
    populate_limit_sec: float = 120.0
    settle_sec: float = 3.0
    measure_sec: float = 10.0
    # Leg C: the storm and its gates.
    storm_rate: float = 0.35
    storm_sec: float = 2.0
    drain_limit_sec: float = 60.0
    # Gates.
    min_scaling: float = 3.0
    share_tolerance: float = 0.05
    retention_floor: float = 0.95
    smoke: bool = False


def smoke_config():
    """The CI-sized variant: same shape, ~4x less simulated time."""
    return ScaleConfig(stretch_bytes=MB // 2, swap_bytes=1 * MB,
                       populate_limit_sec=90.0, settle_sec=1.0,
                       measure_sec=3.0, storm_sec=1.5,
                       drain_limit_sec=40.0, smoke=True)


# ---------------------------------------------------------------------------
# Mission construction
# ---------------------------------------------------------------------------

def _domains(config):
    """The three streaming self-pagers as mission workload entries."""
    return [{
        "kind": "pager", "name": "scale-%d" % share,
        "period_ms": config.period_ms,
        "slice_ms": share * config.period_ms / 100,
        "laxity_ms": config.laxity_ms, "mode": "read-loop",
        "stretch_kb": config.stretch_bytes // 1024,
        "driver_frames": config.frames,
        "swap_kb": config.swap_bytes // 1024,
        "driver_kind": "stream", "store": "usbs",
        "prefetch_depth": config.prefetch_depth,
    } for share in config.shares]


def _phases(config, wait_drains):
    """The shared phase timeline (populate -> settle -> measure)."""
    return {"settle_sec": config.settle_sec,
            "measure_sec": config.measure_sec,
            "populate": True,
            "populate_limit_sec": config.populate_limit_sec,
            "wait_drains": 1 if wait_drains else 0,
            "drain_limit_sec": config.drain_limit_sec}


def build_scaling_mission(config):
    """Legs A + B (one volume vs striped) as a normalised mission; the
    ``scaling`` and ``share_error`` checks are leg B's two gates."""
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "scale-scaling", "family": "scale",
                    "seed": config.seed},
        "topology": {"volumes": config.volumes},
        "workload": {"domains": _domains(config)},
        "phases": _phases(config, wait_drains=False),
        "runs": [{"name": "one_volume", "topology": {"volumes": 1}},
                 {"name": "striped"}],
        "expect": [
            {"check": "scaling", "run": "striped", "baseline": "one_volume",
             "min": config.min_scaling},
            {"check": "share_error", "run": "striped",
             "max": config.share_tolerance},
        ],
    })


def build_failover_mission(config):
    """Leg C (pinned placement, clean vs volume storm) as a mission;
    its four checks are leg C's gates (see :data:`_FAILOVER_GATES`)."""
    domains = _domains(config)
    victim = "scale-%d" % config.shares[1]
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "scale-failover", "family": "scale",
                    "seed": config.seed},
        "topology": {"volumes": config.volumes,
                     "volume_placement": "pinned"},
        "workload": {"domains": domains},
        "phases": _phases(config, wait_drains=True),
        "runs": [
            {"name": "pinned"},
            {"name": "pinned_storm", "faults": [
                {"kind": "transient", "rate": config.storm_rate,
                 "scope": "volume_of:%s" % victim, "during": "measure",
                 "duration_sec": config.storm_sec}]},
        ],
        "expect": [
            {"check": kind, "run": "pinned_storm", "victim_of": victim}
            for kind in ("exposure_contained", "drained",
                         "losses_contained")
        ] + [
            {"check": "bandwidth_retention", "run": "pinned_storm",
             "baseline": "pinned",
             "domains": [d["name"] for d in domains if d["name"] != victim],
             "floor": config.retention_floor},
        ],
    })


#: Leg C's gates -> the check kind deciding each.
_FAILOVER_GATES = {"exposure_contained": "exposure_contained",
                   "degraded_and_drained": "drained",
                   "losses_contained": "losses_contained",
                   "bystanders_retained": "bandwidth_retention"}


def _leg(payload):
    """Mission run payload -> one measurement-leg dict (the
    historical shape ``scale.json`` consumers read)."""
    return {
        "bandwidth_mbit": {name: round(value, 2)
                           for name, value in payload["mbit"].items()},
        "aggregate_mbit": payload["aggregate_mbit"],
        "volume_shares": payload["volume_shares"],
        "threads_alive": {name: domain["alive"]
                          for name, domain in payload["domains"].items()},
    }


# ---------------------------------------------------------------------------
# Legs A + B: scale-out
# ---------------------------------------------------------------------------

def run_scaling(config):
    """Leg A (one volume) vs leg B (striped across all volumes)."""
    mission_report = run_mission(build_scaling_mission(config))
    checks = verdicts(mission_report)
    legs = {}
    for name, volumes in (("one_volume", 1), ("striped", config.volumes)):
        payload = mission_report["runs"][name]
        leg = _leg(payload)
        leg["volumes"] = volumes
        leg["placement"] = "striped"
        leg["populate_sec"] = payload["populate_sec"]
        legs[name] = leg
    return {
        "one_volume": legs["one_volume"],
        "striped": legs["striped"],
        "scaling": checks["scaling"]["observed"]["scaling"],
        "worst_share_error": checks["share_error"]["observed"]
                                   ["worst_share_error"],
        "gates": {
            "scaling": checks["scaling"]["passed"],
            "qos_shares": checks["share_error"]["passed"],
        },
    }


# ---------------------------------------------------------------------------
# Leg C: pinned placement under a disk storm
# ---------------------------------------------------------------------------

def run_failover(config):
    """Clean pinned run, then the same run with a storm on the volume
    the seeded draw pinned the middle domain to."""
    mission_report = run_mission(build_failover_mission(config))
    checks = verdicts(mission_report)
    clean = _leg(mission_report["runs"]["pinned"])
    storm_payload = mission_report["runs"]["pinned_storm"]
    storm = _leg(storm_payload)
    volumes = storm_payload["volumes"]
    victim_domain = "scale-%d" % config.shares[1]
    victim = volumes["fault_volumes"]["volume_of:%s" % victim_domain]
    bystanders = [name for name in storm_payload["mbit"]
                  if name != victim_domain]
    # Containment is only a meaningful claim if the seeded placement
    # draw put the bystanders somewhere else.
    assert all(volumes["initial"][name][0] != victim
               for name in bystanders), \
        "placement draw put a bystander on the victim volume"
    retention = {}
    for name in bystanders:
        before = clean["bandwidth_mbit"][name]
        during = storm["bandwidth_mbit"][name]
        retention[name] = round(during / before, 4) if before else 0.0
    return {
        "victim_volume": victim,
        "clean": clean,
        "storm": storm,
        "exposure_by_volume": volumes["exposure"],
        "victim_state": volumes["states"][victim],
        "drains_done": volumes["drains_done"],
        "stranded": volumes["stranded"],
        "relocated_to": volumes["final"][victim_domain][0],
        "victim_bloks_lost": len(
            storm_payload["domains"][victim_domain]["lost_bloks"]),
        "bystander_retention": retention,
        "gates": {gate: checks[kind]["passed"]
                  for gate, kind in _FAILOVER_GATES.items()},
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def run(config):
    """All three legs; returns the schema-versioned payload."""
    scaling = run_scaling(config)
    failover = run_failover(config)
    gates = {}
    gates.update(scaling["gates"])
    gates.update(failover["gates"])
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "shares": list(config.shares),
            "period_ms": config.period_ms,
            "stretch_bytes": config.stretch_bytes,
            "volumes": config.volumes,
            "seed": config.seed,
            "measure_sec": config.measure_sec,
            "storm_rate": config.storm_rate,
            "scale": "smoke" if config.smoke else "full",
        },
        "scaling": scaling,
        "failover": failover,
        "gates": gates,
        "passed": all(gates.values()),
    }


def format_result(payload, config):
    """Human-readable tables for one payload."""
    scaling = payload["scaling"]
    rows = []
    for key, label in (("one_volume", "A: 1 volume"),
                       ("striped", "B: %d volumes striped"
                        % config.volumes)):
        leg = scaling[key]
        rows.append((label, "%.2f" % leg["aggregate_mbit"],
                     " ".join("%s=%.2f" % (name, mbit) for name, mbit
                              in sorted(leg["bandwidth_mbit"].items()))))
    lines = [report.table(
        ["leg", "aggregate Mbit/s", "per domain"], rows,
        title="Scale-out: aggregate paging bandwidth")]
    lines.append("")
    lines.append("scaling %.2fx (gate >= %.1fx)  worst per-volume share "
                 "error %.1f%% (gate <= %.0f%%)"
                 % (scaling["scaling"], config.min_scaling,
                    scaling["worst_share_error"] * 100,
                    config.share_tolerance * 100))
    failover = payload["failover"]
    rows = [(name,
             "%.2f" % failover["clean"]["bandwidth_mbit"][name],
             "%.2f" % failover["storm"]["bandwidth_mbit"][name],
             "%.1f%%" % (ratio * 100))
            for name, ratio in sorted(
                failover["bystander_retention"].items())]
    lines.append("")
    lines.append(report.table(
        ["bystander", "clean Mbit/s", "storm Mbit/s", "retention"],
        rows,
        title="Failure containment: storm on %s (victim of %s)"
        % (failover["victim_volume"], "scale-%d" % config.shares[1])))
    lines.append("")
    lines.append("victim %s -> %s, state %s, drains %d, bloks lost %d, "
                 "exposure %s"
                 % (failover["victim_volume"], failover["relocated_to"],
                    failover["victim_state"], failover["drains_done"],
                    failover["victim_bloks_lost"],
                    failover["exposure_by_volume"]))
    lines.append("")
    gate_line = "  ".join("%s=%s" % (name, "PASS" if ok else "FAIL")
                          for name, ok in sorted(payload["gates"].items()))
    if config.smoke:
        lines.append("gates (reported, not enforced at smoke scale): "
                     + gate_line)
    else:
        lines.append("gates: " + gate_line)
    return "\n".join(lines)


def main(argv=None):
    """CLI: run the legs, print the tables, write ``scale.json``."""
    return report.scenario_main("scale", argv, ScaleConfig, smoke_config,
                                run, format_result)


if __name__ == "__main__":
    sys.exit(main())
