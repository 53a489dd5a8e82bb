"""Goldens for the mission check kinds: verdicts and rejections.

Two byte-for-byte pins on the ``[[expect]]`` plane, both recorded
before the per-kind code moved into one registry:

* **Verdicts** (``tests/golden/check_verdicts.json``): synthetic run
  payloads fed through :meth:`MissionRunner._evaluate` for every check
  kind — passing, failing and the edge branches (zero-bandwidth
  baseline, floor vs tolerance, a component that was never supervised,
  no recovery windows, a missing storm volume, ``max_lost = -1``).
* **Rejections** (``tests/golden/expect_rejections.json``): one
  single-defect mission per ``[[expect]]`` validation error path,
  recording the :class:`MissionError` ``(path, message)`` pair.

A new check kind adds its cases here; an existing kind's verdict or
error text changing is a reviewed golden diff, never a silent drift.
"""

import copy
import json
import os

import pytest

from repro.missions import MissionError, MissionRunner, validate_mission

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
VERDICTS = os.path.join(GOLDEN, "check_verdicts.json")
REJECTIONS = os.path.join(GOLDEN, "expect_rejections.json")

# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

#: The synthetic mission's runs; ``runs = []`` checks target both.
RUNS = ("base", "storm")


def _payload(**overrides):
    """One synthetic run payload carrying every key an evaluator reads."""
    payload = {
        "mbit": {"fs": 8.0, "pa": 4.0, "pb": 2.0, "hog": 1.0},
        "aggregate_mbit": 14.0,
        "kills": {},
        "claim_granted": 4,
        "min_allocated": {"pa": 12, "pb": 9},
        "domains": {
            "pa": {"pages_lost": 0, "lost_bloks": []},
            "pb": {"pages_lost": 0, "lost_bloks": []},
        },
        "volume_shares": [{"relative_error": 0.01},
                          {"relative_error": 0.03}],
        "volumes": {
            "exposure": {"usbs0": 0, "usbs1": 7},
            "states": {"usbs0": "healthy", "usbs1": "degraded"},
            "drains_done": 1,
            "stranded": [],
            "final": {"pa": ["usbs0"], "pb": ["usbs0"]},
            "fault_volumes": {"volume_of:pb": "usbs1"},
        },
        "supervision": {
            "pager:pa": {"restarts": 1, "state": "running",
                         "escalations": 0,
                         "windows": [[100, 300], [250, 400]]},
            "usd": {"restarts": 0, "state": "running", "escalations": 0,
                    "windows": []},
            "volume:1": {"restarts": 3, "state": "retired",
                         "escalations": 2, "windows": [[600, 800]]},
        },
        "progress_samples": [[0, {"fs": 0, "pa": 0}],
                             [200, {"fs": 100, "pa": 40}],
                             [400, {"fs": 200, "pa": 90}],
                             [800, {"fs": 400, "pa": 100}]],
        "integrity": {"detected": 5, "repaired": 4, "lost": 1,
                      "undetected": 0},
        "core_of": {"fs": 0, "pa": 0, "pb": 1, "hog": 1},
    }
    payload.update(overrides)
    return payload


def _runs(base=None, storm=None):
    return {"base": _payload(**(base or {})),
            "storm": _payload(**(storm or {}))}


def _retention(**fields):
    check = {"check": "bandwidth_retention", "run": "storm",
             "baseline": "base", "domains": ["fs", "pa"], "floor": -1.0,
             "tolerance": -1.0}
    check.update(fields)
    return check


def _recovered(**fields):
    check = {"check": "recovered", "run": "storm", "component": "pager:pa",
             "max_recovery_ms": 1, "min_restarts": 1}
    check.update(fields)
    return check


def _budget(**fields):
    check = {"check": "restart_budget", "run": "storm",
             "component": "volume:1", "max": 3, "final": "retired"}
    check.update(fields)
    return check


def _bystander(**fields):
    check = {"check": "bystander_retention_during_crash", "run": "storm",
             "baseline": "base", "domains": ["fs", "pa"],
             "components": [], "floor": 0.9}
    check.update(fields)
    return check


def _repaired(**fields):
    check = {"check": "repaired", "run": "storm", "min_detected": 1,
             "min_repaired": 0, "max_lost": -1}
    check.update(fields)
    return check


def _crosstalk(**fields):
    check = {"check": "crosstalk_contained", "run": "storm",
             "baseline": "base", "hog": "hog", "domains": ["fs"],
             "floor": 0.95}
    check.update(fields)
    return check


_SLOWER = {"mbit": {"fs": 7.8, "pa": 3.0, "pb": 2.0, "hog": 1.0}}
_HALF_SAMPLES = {"progress_samples": [[0, {"fs": 0, "pa": 0}],
                                     [400, {"fs": 100, "pa": 80}],
                                     [800, {"fs": 200, "pa": 100}]]}

#: (label, check, payloads) — every kind, pass and fail, plus the
#: edge branches named in the module docstring.
VERDICT_CASES = [
    ("retention-floor-pass", _retention(floor=0.7), _runs(storm=_SLOWER)),
    ("retention-floor-fail", _retention(floor=0.8), _runs(storm=_SLOWER)),
    ("retention-tolerance-pass", _retention(tolerance=0.3),
     _runs(storm=_SLOWER)),
    ("retention-tolerance-fail", _retention(tolerance=0.1),
     _runs(storm=_SLOWER)),
    ("retention-zero-baseline", _retention(floor=0.0),
     _runs(base={"mbit": {"fs": 0.0, "pa": 4.0}})),
    ("progress-pass",
     {"check": "progress", "run": "storm", "domains": ["fs", "pa"],
      "min_mbit": 3.5}, _runs()),
    ("progress-below-min",
     {"check": "progress", "run": "storm", "domains": ["fs", "pa"],
      "min_mbit": 5.0}, _runs()),
    ("progress-stalled",
     {"check": "progress", "run": "storm", "domains": ["fs"],
      "min_mbit": 0.0}, _runs(storm={"mbit": {"fs": 0.0}})),
    ("kill-set-all-runs-pass",
     {"check": "kill_set", "runs": [], "exactly": {"hog": 1}},
     _runs(base={"kills": {"hog": 1}}, storm={"kills": {"hog": 1}})),
    ("kill-set-all-runs-fail",
     {"check": "kill_set", "runs": [], "exactly": {"hog": 1}},
     _runs(base={"kills": {"hog": 1}}, storm={"kills": {"hog": 1, "pa": 1}})),
    ("kill-set-named-run",
     {"check": "kill_set", "runs": ["base"], "exactly": {}},
     _runs(storm={"kills": {"pa": 1}})),
    ("claim-granted-pass",
     {"check": "claim_granted", "runs": [], "frames": 4}, _runs()),
    ("claim-granted-never-claimed",
     {"check": "claim_granted", "runs": ["storm"], "frames": 4},
     _runs(storm={"claim_granted": None})),
    ("min-frames-pass",
     {"check": "min_frames", "runs": [], "domains": ["pa", "pb"],
      "floor": 9}, _runs()),
    ("min-frames-fail",
     {"check": "min_frames", "runs": [], "domains": ["pa", "pb"],
      "floor": 10}, _runs()),
    ("pages-lost-pass",
     {"check": "pages_lost", "run": "storm", "domains": ["pa"], "max": 0},
     _runs()),
    ("pages-lost-fail",
     {"check": "pages_lost", "run": "storm", "domains": ["pa", "pb"],
      "max": 2},
     _runs(storm={"domains": {"pa": {"pages_lost": 1, "lost_bloks": []},
                              "pb": {"pages_lost": 3,
                                     "lost_bloks": []}}})),
    ("scaling-pass",
     {"check": "scaling", "run": "storm", "baseline": "base", "min": 2.0},
     _runs(base={"aggregate_mbit": 6.0})),
    ("scaling-fail",
     {"check": "scaling", "run": "storm", "baseline": "base", "min": 3.0},
     _runs(base={"aggregate_mbit": 6.0})),
    ("scaling-zero-baseline",
     {"check": "scaling", "run": "storm", "baseline": "base", "min": 0.0},
     _runs(base={"aggregate_mbit": 0.0})),
    ("share-error-pass",
     {"check": "share_error", "run": "storm", "max": 0.05}, _runs()),
    ("share-error-fail",
     {"check": "share_error", "run": "storm", "max": 0.02}, _runs()),
    ("share-error-no-shares",
     {"check": "share_error", "run": "storm", "max": 0.0},
     _runs(storm={"volume_shares": []})),
    ("exposure-contained-pass",
     {"check": "exposure_contained", "run": "storm", "victim_of": "pb"},
     _runs()),
    ("exposure-leaked",
     {"check": "exposure_contained", "run": "storm", "victim_of": "pb"},
     _runs(storm={"volumes": dict(_payload()["volumes"],
                                  exposure={"usbs0": 2, "usbs1": 7})})),
    ("exposure-missing-storm-volume",
     {"check": "exposure_contained", "run": "storm", "victim_of": "pa"},
     _runs()),
    ("drained-pass",
     {"check": "drained", "run": "storm", "victim_of": "pb",
      "min_drains": 1}, _runs()),
    ("drained-stranded",
     {"check": "drained", "run": "storm", "victim_of": "pb",
      "min_drains": 1},
     _runs(storm={"volumes": dict(_payload()["volumes"],
                                  stranded=[["pb", "usbs1"]])})),
    ("drained-missing-storm-volume",
     {"check": "drained", "run": "storm", "victim_of": "pa",
      "min_drains": 1}, _runs()),
    ("losses-contained-pass",
     {"check": "losses_contained", "run": "storm", "victim_of": "pb"},
     _runs(storm={"domains": {"pa": {"pages_lost": 0, "lost_bloks": []},
                              "pb": {"pages_lost": 2,
                                     "lost_bloks": [5, 6]}}})),
    ("losses-leaked",
     {"check": "losses_contained", "run": "storm", "victim_of": "pb"},
     _runs(storm={"domains": {"pa": {"pages_lost": 1, "lost_bloks": [9]},
                              "pb": {"pages_lost": 0,
                                     "lost_bloks": []}}})),
    ("recovered-pass", _recovered(), _runs()),
    ("recovered-slow", _recovered(),
     _runs(storm={"supervision": {"pager:pa": {
         "restarts": 1, "state": "running", "escalations": 0,
         "windows": [[0, 2000000]]}}})),
    ("recovered-not-running", _recovered(component="volume:1"), _runs()),
    ("recovered-no-windows", _recovered(component="usd", min_restarts=1),
     _runs()),
    ("recovered-never-supervised", _recovered(component="balancer"),
     _runs()),
    ("restart-budget-pass", _budget(), _runs()),
    ("restart-budget-over", _budget(max=2), _runs()),
    ("restart-budget-wrong-state", _budget(final="running"), _runs()),
    ("restart-budget-never-supervised", _budget(component="cpu:0"),
     _runs()),
    ("bystander-pass", _bystander(floor=0.5),
     _runs(storm=_HALF_SAMPLES)),
    ("bystander-fail", _bystander(), _runs(storm=_HALF_SAMPLES)),
    ("bystander-named-components",
     _bystander(components=["volume:1", "balancer"]),
     _runs(storm=_HALF_SAMPLES)),
    ("bystander-no-windows", _bystander(components=["usd"]),
     _runs(storm=_HALF_SAMPLES)),
    ("bystander-idle-baseline", _bystander(domains=["pb"]),
     _runs(storm=_HALF_SAMPLES)),
    ("undetected-pass",
     {"check": "undetected_corruptions", "runs": [], "max": 0}, _runs()),
    ("undetected-fail",
     {"check": "undetected_corruptions", "runs": ["storm"], "max": 1},
     _runs(storm={"integrity": {"detected": 0, "repaired": 0, "lost": 0,
                                "undetected": 3}})),
    ("undetected-no-integrity-payload",
     {"check": "undetected_corruptions", "runs": [], "max": 0},
     _runs(base={"integrity": None})),
    ("repaired-any-loss", _repaired(), _runs()),
    ("repaired-max-lost-exceeded", _repaired(max_lost=0), _runs()),
    ("repaired-too-few", _repaired(min_detected=6), _runs()),
    ("repaired-unaccounted", _repaired(),
     _runs(storm={"integrity": {"detected": 5, "repaired": 3, "lost": 1,
                                "undetected": 0}})),
    ("scrub-overhead-pass",
     {"check": "scrub_overhead", "run": "storm", "baseline": "base",
      "domains": ["fs", "pa"], "floor": 0.7}, _runs(storm=_SLOWER)),
    ("scrub-overhead-fail",
     {"check": "scrub_overhead", "run": "storm", "baseline": "base",
      "domains": ["fs", "pa"], "floor": 0.8}, _runs(storm=_SLOWER)),
    ("scrub-overhead-zero-baseline",
     {"check": "scrub_overhead", "run": "storm", "baseline": "base",
      "domains": ["fs"], "floor": 0.0},
     _runs(base={"mbit": {"fs": 0.0}})),
    ("crosstalk-pass", _crosstalk(), _runs()),
    ("crosstalk-same-core", _crosstalk(domains=["fs", "pb"]), _runs()),
    ("crosstalk-retention-fail", _crosstalk(floor=0.98),
     _runs(storm=_SLOWER)),
    ("crosstalk-not-smp", _crosstalk(),
     {"base": _payload(),
      "storm": {key: value for key, value in _payload().items()
                if key != "core_of"}}),
]


def verdicts():
    """Every verdict case evaluated: [{"case", "verdict"}, ...]."""
    runner = MissionRunner({"runs": [{"name": name} for name in RUNS]})
    return [{"case": label,
             "verdict": runner._evaluate(check, copy.deepcopy(payloads))}
            for label, check, payloads in VERDICT_CASES]


# ---------------------------------------------------------------------------
# Rejections
# ---------------------------------------------------------------------------


def base_mission():
    """A valid mission every check kind can be declared against: an
    fsclient, an sfs and a usbs pager, a compute hog and a claimant,
    two volumes and two cores, supervision and integrity enabled, a
    claim driver and a min-frames sampler, and a corrupted run."""
    def pager(name, store):
        return {"kind": "pager", "name": name, "period_ms": 25,
                "slice_ms": 2.5, "stretch_kb": 64, "driver_frames": 8,
                "swap_kb": 128, "store": store}
    return {
        "schema": 1,
        "mission": {"name": "expect-golden", "family": "matrix", "seed": 1},
        "topology": {"volumes": 2, "cpus": 2},
        "workload": {"domains": [
            {"kind": "fsclient", "name": "fs", "period_ms": 25,
             "slice_ms": 5.0},
            pager("ps", "sfs"),
            pager("pu", "usbs"),
            {"kind": "compute", "name": "hog", "period_ms": 10,
             "slice_ms": 5.0},
            {"kind": "claimant", "name": "cl", "guaranteed_frames": 8},
        ]},
        "drivers": [
            {"kind": "sample_min_alloc", "domains": ["ps"]},
            {"kind": "claim", "client": "cl", "frames": 4, "at_sec": 0.5},
        ],
        "supervision": {"enabled": True},
        "integrity": {"enabled": True},
        "phases": {"settle_sec": 0.5, "measure_sec": 1.0},
        "runs": [{"name": "base"},
                 {"name": "storm", "corruptions": [
                     {"kind": "bit_flip", "scope": "extent:ps"}]}],
    }


#: One valid entry per check kind against :func:`base_mission`.
VALID_ENTRIES = [
    {"check": "bandwidth_retention", "run": "storm", "baseline": "base",
     "domains": ["fs"], "floor": 0.9},
    {"check": "progress", "run": "storm", "domains": ["fs", "hog"]},
    {"check": "kill_set"},
    {"check": "claim_granted", "frames": 4},
    {"check": "min_frames", "domains": ["ps"], "floor": 1},
    {"check": "pages_lost", "run": "storm", "domains": ["ps"]},
    {"check": "scaling", "run": "storm", "baseline": "base", "min": 1.0},
    {"check": "share_error", "run": "storm", "max": 0.1},
    {"check": "exposure_contained", "run": "storm", "victim_of": "pu"},
    {"check": "drained", "run": "storm", "victim_of": "pu"},
    {"check": "losses_contained", "run": "storm", "victim_of": "pu"},
    {"check": "recovered", "run": "storm", "component": "pager:ps",
     "max_recovery_ms": 100},
    {"check": "restart_budget", "run": "storm", "component": "usd",
     "max": 2},
    {"check": "bystander_retention_during_crash", "run": "storm",
     "baseline": "base", "domains": ["fs"], "components": ["volume:1"],
     "floor": 0.9},
    {"check": "undetected_corruptions"},
    {"check": "repaired", "run": "storm"},
    {"check": "scrub_overhead", "run": "storm", "baseline": "base",
     "domains": ["fs"], "floor": 0.9},
    {"check": "crosstalk_contained", "run": "storm", "baseline": "base",
     "hog": "hog", "domains": ["fs"]},
]


def _with(**sections):
    """Mutation: update fields of the base mission's sections."""
    def mutate(raw):
        for key, fields in sections.items():
            raw[key].update(fields)
    return mutate


def _no_claim_driver(raw):
    raw["drivers"] = raw["drivers"][:1]


def _all_sfs(raw):
    raw["workload"]["domains"][2]["store"] = "sfs"
    raw["topology"]["volumes"] = 0


#: (label, mutation of the base mission or None, the ``expect`` value).
REJECTION_CASES = [
    ("expect-not-array", None, {"check": "progress"}),
    ("entry-not-table", None, ["progress"]),
    ("unknown-kind", None, [{"check": "nosuch"}]),
    ("kind-missing", None, [{"run": "storm"}]),
    ("unknown-field", None,
     [{"check": "progress", "run": "storm", "domains": ["fs"],
       "bogus": 1}]),
    ("required-missing", None, [{"check": "progress", "run": "storm"}]),
    ("field-type", None,
     [{"check": "progress", "run": "storm", "domains": ["fs"],
       "min_mbit": "fast"}]),
    ("field-bound", None,
     [{"check": "bandwidth_retention", "run": "storm", "baseline": "base",
       "domains": ["fs"], "floor": 11.0}]),
    ("field-choice", None,
     [{"check": "restart_budget", "run": "storm", "component": "usd",
       "max": 1, "final": "zombie"}]),
    ("list-type", None,
     [{"check": "progress", "run": "storm", "domains": "fs"}]),
    ("table-value", None,
     [{"check": "kill_set", "exactly": {"hog": -1}}]),
    ("run-dangling", None,
     [{"check": "progress", "run": "nosuch", "domains": ["fs"]}]),
    ("baseline-dangling", None,
     [{"check": "scaling", "run": "storm", "baseline": "nosuch",
       "min": 1.0}]),
    ("runs-dangling", None,
     [{"check": "kill_set", "runs": ["base", "nosuch"]}]),
    ("undetected-runs-dangling", None,
     [{"check": "undetected_corruptions", "runs": ["nosuch"]}]),
    ("domains-empty", None,
     [{"check": "progress", "run": "storm", "domains": []}]),
    ("domain-dangling", None,
     [{"check": "progress", "run": "storm", "domains": ["fs", "nosuch"]}]),
    ("domain-not-measured", None,
     [{"check": "bandwidth_retention", "run": "storm", "baseline": "base",
       "domains": ["cl"], "floor": 0.9}]),
    ("floor-and-tolerance", None,
     [{"check": "bandwidth_retention", "run": "storm", "baseline": "base",
       "domains": ["fs"], "floor": 0.9, "tolerance": 0.1}]),
    ("neither-floor-nor-tolerance", None,
     [{"check": "bandwidth_retention", "run": "storm", "baseline": "base",
       "domains": ["fs"]}]),
    ("claim-without-driver", _no_claim_driver,
     [{"check": "claim_granted", "frames": 4}]),
    ("min-frames-not-pager", None,
     [{"check": "min_frames", "domains": ["fs"], "floor": 1}]),
    ("min-frames-unsampled", None,
     [{"check": "min_frames", "domains": ["ps", "pu"], "floor": 1}]),
    ("kill-set-dangling", None,
     [{"check": "kill_set", "exactly": {"hog": 1, "nosuch": 1}}]),
    ("pages-lost-not-pager", None,
     [{"check": "pages_lost", "run": "storm", "domains": ["hog"]}]),
    ("share-error-no-volumes", _all_sfs,
     [{"check": "share_error", "run": "storm", "max": 0.1}]),
    ("recovered-unsupervised", _with(supervision={"enabled": False}),
     [{"check": "recovered", "run": "storm", "component": "usd",
       "max_recovery_ms": 100}]),
    ("recovered-wildcard", None,
     [{"check": "recovered", "run": "storm", "component": "",
       "max_recovery_ms": 100}]),
    ("recovered-pager-dangling", None,
     [{"check": "recovered", "run": "storm", "component": "pager:fs",
       "max_recovery_ms": 100}]),
    ("recovered-balancer-off", None,
     [{"check": "recovered", "run": "storm", "component": "balancer",
       "max_recovery_ms": 100}]),
    ("recovered-volume-index", None,
     [{"check": "recovered", "run": "storm", "component": "volume:2",
       "max_recovery_ms": 100}]),
    ("recovered-cpu-index", None,
     [{"check": "recovered", "run": "storm", "component": "cpu:x",
       "max_recovery_ms": 100}]),
    ("recovered-unknown-component", None,
     [{"check": "recovered", "run": "storm", "component": "disk",
       "max_recovery_ms": 100}]),
    ("restart-budget-unsupervised", _with(supervision={"enabled": False}),
     [{"check": "restart_budget", "run": "storm", "component": "usd",
       "max": 1}]),
    ("restart-budget-wildcard", None,
     [{"check": "restart_budget", "run": "storm", "component": "",
       "max": 1}]),
    ("bystander-unsupervised", _with(supervision={"enabled": False}),
     [{"check": "bystander_retention_during_crash", "run": "storm",
       "baseline": "base", "domains": ["fs"], "floor": 0.9}]),
    ("bystander-component", None,
     [{"check": "bystander_retention_during_crash", "run": "storm",
       "baseline": "base", "domains": ["fs"],
       "components": ["usd", "pager:nosuch"], "floor": 0.9}]),
    ("repaired-no-integrity", _with(integrity={"enabled": False}),
     [{"check": "repaired", "run": "storm"}]),
    ("repaired-clean-run", None, [{"check": "repaired", "run": "base"}]),
    ("scrub-overhead-no-scrub", _with(integrity={"scrub": False}),
     [{"check": "scrub_overhead", "run": "storm", "baseline": "base",
       "domains": ["fs"], "floor": 0.9}]),
    ("crosstalk-hog-dangling", None,
     [{"check": "crosstalk_contained", "run": "storm", "baseline": "base",
       "hog": "nosuch", "domains": ["fs"]}]),
    ("crosstalk-hog-not-compute", None,
     [{"check": "crosstalk_contained", "run": "storm", "baseline": "base",
       "hog": "ps", "domains": ["fs"]}]),
    ("crosstalk-hog-bystander", None,
     [{"check": "crosstalk_contained", "run": "storm", "baseline": "base",
       "hog": "hog", "domains": ["fs", "hog"]}]),
    ("crosstalk-one-cpu", _with(topology={"cpus": 1}),
     [{"check": "crosstalk_contained", "run": "storm", "baseline": "base",
       "hog": "hog", "domains": ["fs"]}]),
    ("victim-dangling", None,
     [{"check": "exposure_contained", "run": "storm",
       "victim_of": "nosuch"}]),
    ("victim-not-pager", None,
     [{"check": "losses_contained", "run": "storm", "victim_of": "fs"}]),
    ("victim-not-usbs", None,
     [{"check": "drained", "run": "storm", "victim_of": "ps"}]),
    ("drained-one-volume", _with(topology={"volumes": 1}),
     [{"check": "drained", "run": "storm", "victim_of": "pu"}]),
    ("later-entry-path", None,
     [{"check": "kill_set"},
      {"check": "scaling", "run": "storm", "baseline": "base"}]),
]


def rejections():
    """Every rejection case validated: [{"case", "path", "message"}]."""
    out = []
    for label, mutate, expect in REJECTION_CASES:
        raw = base_mission()
        if mutate is not None:
            mutate(raw)
        raw["expect"] = expect
        try:
            validate_mission(raw)
        except MissionError as exc:
            out.append({"case": label, "path": exc.path,
                        "message": exc.message})
        else:
            raise AssertionError("%s: defective mission accepted" % label)
    return out


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _golden(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestVerdictGolden:
    def test_every_kind_covered(self):
        kinds = {check["check"] for _, check, _ in VERDICT_CASES}
        assert kinds == {entry["check"] for entry in VALID_ENTRIES}
        assert len(kinds) == 18

    def test_verdicts_match_golden(self):
        assert _dumps(verdicts()) == _golden(VERDICTS)


class TestRejectionGolden:
    def test_base_mission_accepts_every_kind(self):
        """The base is valid with one entry of every kind, so each
        rejection case's single defect is what fails it."""
        raw = base_mission()
        raw["expect"] = copy.deepcopy(VALID_ENTRIES)
        mission = validate_mission(raw)
        assert len(mission["expect"]) == 18

    @pytest.mark.parametrize("label,mutate", [
        (label, mutate) for label, mutate, _ in REJECTION_CASES
        if mutate is not None])
    def test_mutated_base_stays_valid(self, label, mutate):
        """Each mutation alone leaves a valid mission (the defect is
        the ``[[expect]]`` entry, not the mutation)."""
        raw = base_mission()
        mutate(raw)
        validate_mission(raw)

    def test_rejections_match_golden(self):
        assert _dumps(rejections()) == _golden(REJECTIONS)
