"""The ``[[expect]]`` registry: every mission check kind, declared once.

A *check* is one verdict over a mission's run payloads — a Figure-7/8
progress ratio, Figure-9 bystander retention, a §4 guarantee or
revocation outcome. :data:`CHECKS` maps each kind to one
:class:`Check`, and that declaration is all there is of the kind: the
validator (:mod:`repro.missions.validate`) walks it, the runner
(:mod:`repro.missions.runner`) calls its evaluator, and the scenario
wrappers in :mod:`repro.exp` declare their gates as entries and read
the verdicts back. Fields named ``run`` or ``baseline`` always name
one run and ``runs`` a list of them (``[]``: every run).

Adding a check kind is one :class:`Check` entry here plus its cases
in ``tests/test_missions_checks.py``.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.missions.schema import _f
from repro.sim.units import MS

#: Domain kinds that produce a bandwidth series (and so can appear in
#: retention/progress checks).
MEASURED = ("fsclient", "pager", "compute")

#: What a check may need enabled: name -> (test on the validation
#: context, what the kind's error says it needs).
NEEDS = {
    "claim": (lambda ctx: any(driver["kind"] == "claim"
                              for driver in ctx.drivers),
              "a claim driver"),
    "supervision": (lambda ctx: ctx.supervision["enabled"],
                    "supervision.enabled = true"),
    "integrity": (lambda ctx: ctx.integrity["enabled"],
                  "integrity.enabled = true (nothing would detect)"),
    "scrub": (lambda ctx: ctx.integrity["enabled"]
              and ctx.integrity["scrub"],
              "integrity.enabled and integrity.scrub"),
}


@dataclass(frozen=True)
class Check:
    """One check kind: ``fields`` after ``check`` in TOML key order;
    ``domains``, ``((field, allowed domain kinds), ...)``;
    ``components``, fields naming supervised components of ``run``;
    ``needs``, a :data:`NEEDS` key; ``topology``, a ``(key, minimum)``
    ``run`` must meet; ``rule``, an extra validation ``(check, ctx) ->
    None | (field, message)``; ``evaluate``, ``(check, payloads,
    targets) -> (passed, observed)`` with ``targets`` the ``runs``
    field or else every run."""

    fields: Tuple
    evaluate: Callable
    domains: Tuple = ()
    components: Tuple = ()
    needs: str = ""
    topology: Optional[Tuple] = None
    rule: Optional[Callable] = None


# ---------------------------------------------------------------------------
# Extra validation rules
# ---------------------------------------------------------------------------


def _floor_or_tolerance(check, ctx):
    if (check["floor"] >= 0.0) == (check["tolerance"] >= 0.0):
        return "floor", "set exactly one of floor/tolerance"
    return None


def _sampled(check, ctx):
    sampled = {name for driver in ctx.drivers
               if driver["kind"] == "sample_min_alloc"
               for name in driver["domains"]}
    missing = [name for name in check["domains"] if name not in sampled]
    if missing:
        return ("domains", "%s not covered by a sample_min_alloc driver"
                % ", ".join(missing))
    return None


def _kills_named(check, ctx):
    for name in check["exactly"]:
        if name not in ctx.domains:
            return "exactly", "names no workload domain: %r" % (name,)
    return None


def _corrupted_run(check, ctx):
    if not ctx.runs[check["run"]]["corruptions"]:
        return "run", "repaired needs a run with corruption rules"
    return None


def _hog_apart(check, ctx):
    if check["hog"] in check["domains"]:
        return "domains", "the hog cannot be its own bystander"
    return None


def _victim_on_usbs(check, ctx):
    if ctx.domains[check["victim_of"]]["store"] != "usbs":
        return ("victim_of", "%r must page through store='usbs'"
                % check["victim_of"])
    return None


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------


def _retention(check, payloads):
    """Each of ``domains``' bandwidth in ``run`` over ``baseline``
    (0.0 where the baseline made none)."""
    base = payloads[check["baseline"]]["mbit"]
    cur = payloads[check["run"]]["mbit"]
    return {name: (cur[name] / base[name] if base[name] else 0.0)
            for name in check["domains"]}


def _rounded(values):
    return {name: round(value, 4) for name, value in values.items()}


def _bandwidth_retention(check, payloads, targets):
    retention = _retention(check, payloads)
    if check["floor"] >= 0.0:
        passed = all(value >= check["floor"] for value in retention.values())
    else:
        passed = all(abs(value - 1.0) <= check["tolerance"]
                     for value in retention.values())
    return passed, {"retention": _rounded(retention)}


def _progress(check, payloads, targets):
    mbit = payloads[check["run"]]["mbit"]
    observed = {name: round(mbit[name], 4) for name in check["domains"]}
    passed = all(value > 0.0 and value >= check["min_mbit"]
                 for value in observed.values())
    return passed, {"mbit": observed}


def _kill_set(check, payloads, targets):
    observed = {name: payloads[name]["kills"] for name in targets}
    passed = all(kills == check["exactly"] for kills in observed.values())
    return passed, {"kills": observed}


def _claim_granted(check, payloads, targets):
    observed = {name: payloads[name]["claim_granted"] for name in targets}
    passed = all(value == check["frames"] for value in observed.values())
    return passed, {"granted": observed}


def _min_frames(check, payloads, targets):
    observed = {name: {domain: payloads[name]["min_allocated"][domain]
                       for domain in check["domains"]}
                for name in targets}
    passed = all(value >= check["floor"] for per_run in observed.values()
                 for value in per_run.values())
    return passed, {"min_allocated": observed}


def _pages_lost(check, payloads, targets):
    domains = payloads[check["run"]]["domains"]
    observed = {name: domains[name]["pages_lost"]
                for name in check["domains"]}
    return (all(value <= check["max"] for value in observed.values()),
            {"pages_lost": observed})


def _scaling(check, payloads, targets):
    base = payloads[check["baseline"]]["aggregate_mbit"]
    cur = payloads[check["run"]]["aggregate_mbit"]
    scaling = cur / base if base else 0.0
    return scaling >= check["min"], {
        "scaling": round(scaling, 2),
        "aggregate": {check["baseline"]: base, check["run"]: cur}}


def _share_error(check, payloads, targets):
    shares = payloads[check["run"]]["volume_shares"]
    worst = max((row["relative_error"] for row in shares), default=0.0)
    return worst <= check["max"], {"worst_share_error": worst}


def _crosstalk_contained(check, payloads, targets):
    """The Figure-7 argument across cores: every bystander sits on a
    different core from the hog AND kept >= floor of its hog-free
    baseline bandwidth."""
    core_of = payloads[check["run"]].get("core_of", {})
    hog_core = core_of.get(check["hog"])
    separated = hog_core is not None and all(
        core_of.get(name) is not None and core_of[name] != hog_core
        for name in check["domains"])
    retention = _retention(check, payloads)
    passed = separated and all(value >= check["floor"]
                               for value in retention.values())
    return passed, {
        "hog_core": hog_core,
        "cores": {name: core_of.get(name)
                  for name in sorted(check["domains"])},
        "retention": _rounded(retention)}


_NEVER_SUPERVISED = {"error": "component was never supervised"}


def _recovered(check, payloads, targets):
    record = payloads[check["run"]]["supervision"].get(check["component"])
    if record is None:
        return False, dict(_NEVER_SUPERVISED)
    worst_ns = max((end - start for start, end in record["windows"]),
                   default=0)
    passed = (record["restarts"] >= check["min_restarts"]
              and record["state"] == "running"
              and worst_ns <= check["max_recovery_ms"] * MS)
    return passed, {"restarts": record["restarts"],
                    "state": record["state"],
                    "worst_recovery_ms": round(worst_ns / MS, 3)}


def _restart_budget(check, payloads, targets):
    record = payloads[check["run"]]["supervision"].get(check["component"])
    if record is None:
        return False, dict(_NEVER_SUPERVISED)
    passed = (record["restarts"] <= check["max"]
              and record["state"] == check["final"])
    return passed, {"restarts": record["restarts"],
                    "escalations": record["escalations"],
                    "state": record["state"]}


def _merge_windows(windows):
    """Overlapping/adjacent (start, end) spans merged, sorted."""
    merged = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _interp_progress(samples, name, t):
    """Piecewise-linear progress of ``name`` at simulated time ``t``
    from ``[ns, {name: bytes}]`` samples (clamped to the sampled
    range)."""
    if not samples:
        return 0.0
    if t <= samples[0][0]:
        return float(samples[0][1].get(name, 0))
    if t >= samples[-1][0]:
        return float(samples[-1][1].get(name, 0))
    lo, hi = 0, len(samples) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if samples[mid][0] <= t:
            lo = mid
        else:
            hi = mid
    t0, v0 = samples[lo][0], samples[lo][1].get(name, 0)
    t1, v1 = samples[hi][0], samples[hi][1].get(name, 0)
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _progress_delta(samples, name, start, end):
    """Bytes of progress ``name`` made across one (start, end) span."""
    return (_interp_progress(samples, name, end)
            - _interp_progress(samples, name, start))


def _bystander_retention(check, payloads, targets):
    """Over the merged recovery windows of ``components`` (empty: all
    supervised), each bystander's progress against the baseline run's
    over the same windows."""
    payload = payloads[check["run"]]
    baseline = payloads[check["baseline"]]
    supervision = payload["supervision"]
    windows = []
    for cid in check["components"] or sorted(supervision):
        record = supervision.get(cid)
        if record is not None:
            windows.extend((start, end) for start, end in record["windows"])
    merged = _merge_windows(windows)
    retention = {}
    for name in check["domains"]:
        crashed = sum(_progress_delta(payload["progress_samples"], name,
                                      start, end)
                      for start, end in merged)
        clean = sum(_progress_delta(baseline["progress_samples"], name,
                                    start, end)
                    for start, end in merged)
        # A bystander whose baseline made no progress in the windows
        # had nothing to lose during them.
        retention[name] = crashed / clean if clean else 1.0
    # No recovery windows -> trivially true; the injection audit is
    # what catches a storm that never happened.
    passed = all(value >= check["floor"] for value in retention.values())
    return passed, {"windows": [list(window) for window in merged],
                    "retention": _rounded(retention)}


def _undetected_corruptions(check, payloads, targets):
    observed = {}
    for name in targets:
        integrity = payloads[name].get("integrity")
        observed[name] = integrity["undetected"] if integrity else 0
    return (all(value <= check["max"] for value in observed.values()),
            {"undetected": observed})


def _repaired(check, payloads, targets):
    integrity = payloads[check["run"]]["integrity"]
    detected = integrity["detected"]
    repaired = integrity["repaired"]
    lost = integrity["lost"]
    passed = (detected >= check["min_detected"]
              and repaired >= check["min_repaired"]
              and detected == repaired + lost
              and (check["max_lost"] == -1 or lost <= check["max_lost"]))
    return passed, {"detected": detected, "repaired": repaired,
                    "lost": lost, "accounted": detected == repaired + lost}


def _storm_volume(check, payloads):
    """The USBS containment family's (run volumes payload, the volume
    the run's ``volume_of:<victim_of>`` storm hit or None)."""
    volumes = payloads[check["run"]]["volumes"]
    scope = "volume_of:%s" % check["victim_of"]
    return volumes, volumes.get("fault_volumes", {}).get(scope)


def _exposure_contained(check, payloads, targets):
    volumes, storm_volume = _storm_volume(check, payloads)
    exposure = volumes["exposure"]
    leaked = {name: count for name, count in exposure.items()
              if name != storm_volume and count}
    return (storm_volume is not None and not leaked,
            {"storm_volume": storm_volume, "exposure": exposure})


def _drained(check, payloads, targets):
    volumes, storm_volume = _storm_volume(check, payloads)
    final = volumes["final"].get(check["victim_of"], [])
    passed = (storm_volume is not None
              and volumes["drains_done"] >= check["min_drains"]
              and not volumes["stranded"]
              and volumes["states"].get(storm_volume) != "healthy"
              and bool(final) and storm_volume not in final)
    return passed, {"storm_volume": storm_volume,
                    "state": volumes["states"].get(storm_volume),
                    "drains_done": volumes["drains_done"],
                    "stranded": volumes["stranded"],
                    "relocated_to": final}


def _losses_contained(check, payloads, targets):
    observed = {name: len(data["lost_bloks"])
                for name, data in payloads[check["run"]]["domains"].items()
                if name != check["victim_of"] and data["lost_bloks"]}
    return not observed, {"lost_elsewhere": observed}


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_RETENTION_FLOOR = _f("floor", "float", min=0.0, max=10.0)

#: The USBS containment family: the storm hit ``victim_of``'s volume.
_VICTIM = (("victim_of", ("pager",)),)

#: Every check kind, in the order the mission format documents them.
CHECKS = {
    # Exactly one of floor/tolerance is set (the other left at -1).
    "bandwidth_retention": Check(
        fields=(_f("run", "str"), _f("baseline", "str"),
                _f("domains", "str_list"),
                _f("floor", "float", default=-1.0, min=-1.0, max=10.0),
                _f("tolerance", "float", default=-1.0, min=-1.0, max=10.0)),
        domains=(("domains", MEASURED),), rule=_floor_or_tolerance,
        evaluate=_bandwidth_retention),
    "progress": Check(
        fields=(_f("run", "str"), _f("domains", "str_list"),
                _f("min_mbit", "float", default=0.0, min=0.0)),
        domains=(("domains", MEASURED),), evaluate=_progress),
    "kill_set": Check(
        fields=(_f("runs", "str_list", default=()),
                _f("exactly", "int_table", default=())),
        rule=_kills_named, evaluate=_kill_set),
    "claim_granted": Check(
        fields=(_f("runs", "str_list", default=()),
                _f("frames", "int", min=1)),
        needs="claim", evaluate=_claim_granted),
    "min_frames": Check(
        fields=(_f("runs", "str_list", default=()),
                _f("domains", "str_list"), _f("floor", "int", min=0)),
        domains=(("domains", ("pager",)),), rule=_sampled,
        evaluate=_min_frames),
    "pages_lost": Check(
        fields=(_f("run", "str"), _f("domains", "str_list"),
                _f("max", "int", default=0, min=0)),
        domains=(("domains", ("pager",)),), evaluate=_pages_lost),
    "scaling": Check(
        fields=(_f("run", "str"), _f("baseline", "str"),
                _f("min", "float", min=0.0)),
        evaluate=_scaling),
    "share_error": Check(
        fields=(_f("run", "str"), _f("max", "float", min=0.0)),
        topology=("volumes", 1), evaluate=_share_error),
    "exposure_contained": Check(
        fields=(_f("run", "str"), _f("victim_of", "str")),
        domains=_VICTIM, rule=_victim_on_usbs, topology=("volumes", 1),
        evaluate=_exposure_contained),
    "drained": Check(
        fields=(_f("run", "str"), _f("victim_of", "str"),
                _f("min_drains", "int", default=1, min=1)),
        domains=_VICTIM, rule=_victim_on_usbs, topology=("volumes", 2),
        evaluate=_drained),
    "losses_contained": Check(
        fields=(_f("run", "str"), _f("victim_of", "str")),
        domains=_VICTIM, rule=_victim_on_usbs, topology=("volumes", 1),
        evaluate=_losses_contained),
    # The supervision family: ``recovered`` — the component crashed
    # and every recovery completed within ``max_recovery_ms``, ending
    # back in service; ``restart_budget`` — its restarts stayed within
    # ``max`` and it ended in ``final`` state (the escalation ladder's
    # verdict); ``bystander_retention_during_crash`` — over the
    # recovery windows of ``components`` (empty: all), each bystander
    # in ``domains`` retained at least ``floor`` of its baseline-run
    # bandwidth across the same windows.
    "recovered": Check(
        fields=(_f("run", "str"), _f("component", "str"),
                _f("max_recovery_ms", "int", min=1),
                _f("min_restarts", "int", default=1, min=1)),
        components=("component",), needs="supervision",
        evaluate=_recovered),
    "restart_budget": Check(
        fields=(_f("run", "str"), _f("component", "str"),
                _f("max", "int", min=0),
                _f("final", "str", default="running",
                   choices=("running", "degraded", "retired"))),
        components=("component",), needs="supervision",
        evaluate=_restart_budget),
    "bystander_retention_during_crash": Check(
        fields=(_f("run", "str"), _f("baseline", "str"),
                _f("domains", "str_list"),
                _f("components", "str_list", default=()),
                _RETENTION_FLOOR),
        domains=(("domains", MEASURED),), components=("components",),
        needs="supervision", evaluate=_bystander_retention),
    # The integrity family: ``undetected_corruptions`` — at most ``max``
    # injected corruptions were delivered unverified across the named
    # runs (all, if empty); ``repaired`` — the run detected at least
    # ``min_detected`` corruptions, repaired at least ``min_repaired``
    # and declared at most ``max_lost`` lost (``-1``: any), with every
    # detection accounted repaired-or-lost; ``scrub_overhead`` — each
    # named domain in the scrubbed/corrupted run kept at least
    # ``floor`` of its bandwidth in the clean ``baseline`` run (scrub
    # I/O charged to the owner, never to bystanders).
    "undetected_corruptions": Check(
        fields=(_f("runs", "str_list", default=()),
                _f("max", "int", default=0, min=0)),
        evaluate=_undetected_corruptions),
    "repaired": Check(
        fields=(_f("run", "str"),
                _f("min_detected", "int", default=1, min=0),
                _f("min_repaired", "int", default=0, min=0),
                _f("max_lost", "int", default=-1, min=-1)),
        needs="integrity", rule=_corrupted_run, evaluate=_repaired),
    "scrub_overhead": Check(
        fields=(_f("run", "str"), _f("baseline", "str"),
                _f("domains", "str_list"), _RETENTION_FLOOR),
        domains=(("domains", MEASURED),), needs="scrub",
        # Its floor is never -1: bandwidth_retention's floor verdict.
        evaluate=_bandwidth_retention),
    # The SMP family: the baseline is typically the same topology with
    # the hog idle via ``active_runs``.
    "crosstalk_contained": Check(
        fields=(_f("run", "str"), _f("baseline", "str"), _f("hog", "str"),
                _f("domains", "str_list"),
                _f("floor", "float", default=0.95, min=0.0, max=10.0)),
        domains=(("hog", ("compute",)), ("domains", MEASURED)),
        rule=_hog_apart, topology=("cpus", 2),
        evaluate=_crosstalk_contained),
}
