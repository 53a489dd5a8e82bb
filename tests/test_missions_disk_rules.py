"""Table-driven rejections of the two disk-rule planes.

``[[runs.faults]]`` (loud storage faults) and ``[[runs.corruptions]]``
(silent corruption) share one scope/window/LBA grammar. Every rejection
below is asserted for both planes with its exact field path and a
message fragment, so the two planes cannot drift apart.
"""

import copy

import pytest

from repro.missions import MissionError, validate_mission

#: plane -> the kind a rule of that plane takes when the case does not
#: care about it.
_PLANES = {"faults": "transient", "corruptions": "bit_flip"}

#: plane -> a kind that may carry explicit ``blocks``.
_BLOCK_KINDS = {"faults": "bad_block", "corruptions": "torn_write"}


def _pager(name, **extra):
    pager = {"kind": "pager", "name": name, "period_ms": 25,
             "slice_ms": 2.5, "mode": "write-loop", "stretch_kb": 128,
             "driver_frames": 8, "swap_kb": 512}
    pager.update(extra)
    return pager


def _rule(plane, rule):
    """``rule`` for ``plane``; a ``kind`` given as a plane -> kind
    table (the default is :data:`_PLANES`) picks this plane's kind."""
    rule = dict(rule)
    kind = rule.setdefault("kind", _PLANES)
    if isinstance(kind, dict):
        rule["kind"] = kind[plane]
    return rule


def _mission(plane, rules, run_topology=None):
    """A raw mission whose second run carries ``rules`` on ``plane``.

    Pagers: ``flat`` (paged, sfs), ``seg`` (seg regime, sfs) and
    ``vol`` (paged, usbs over two volumes)."""
    storm = {"name": "storm", plane: [_rule(plane, rule) for rule in rules]}
    if run_topology is not None:
        storm["topology"] = run_topology
    return {
        "schema": 1,
        "mission": {"name": "disk-rules", "family": "chaos", "seed": 3},
        "topology": {"machine_mb": 4, "volumes": 2},
        "workload": {"domains": [
            _pager("flat"),
            _pager("seg", driver_kind="seg"),
            _pager("vol", store="usbs"),
        ]},
        "phases": {"settle_sec": 0.2, "measure_sec": 0.5},
        "runs": [{"name": "baseline"}, storm],
    }


#: (case id, rules, run topology override, field suffix, fragment).
#: The field suffix is appended to ``runs[1].<plane>``; a suffix that
#: starts with ``!`` is a whole path (the rejection is not on the rule).
_REJECTIONS = [
    ("junk-scope", [{"scope": "junk"}], None, "[0].scope",
     "must be 'disk', 'extent:<domain>' or 'volume_of:<domain>', "
     "got 'junk'"),
    ("unknown-pager", [{"scope": "extent:nosuch"}], None, "[0].scope",
     "names no pager domain: 'nosuch'"),
    ("extent-on-seg", [{"scope": "extent:seg"}], None, "[0].scope",
     "the seg regime has no swap extent to scope a rule to"),
    ("extent-off-sfs", [{"scope": "extent:vol"}], None, "[0].scope",
     "extent scope needs 'vol' on the single-disk store (store='sfs')"),
    ("volume-of-off-usbs", [{"scope": "volume_of:flat"}], None,
     "[0].scope", "volume_of scope needs 'flat' on store='usbs'"),
    # A usbs pager already needs volumes >= 1 in every run, so a
    # volume_of scope in a zero-volume run is refused at the topology.
    ("volume-of-no-volumes", [{"scope": "volume_of:vol"}],
     {"volumes": 0}, "!runs[1].topology.volumes",
     "workload uses store='usbs' but this run has no volumes"),
    ("blocks-without-extent",
     [{"kind": _BLOCK_KINDS, "scope": "disk", "blocks": 2}], None,
     "[0].blocks", "blocks count needs an extent scope"),
    ("measure-with-window",
     [{"during": "measure", "start_sec": 0.5}], None, "[0].during",
     "during='measure' computes its own window; leave start_sec/end_sec "
     "unset"),
    ("measure-zero-duration",
     [{"during": "measure", "duration_sec": 0.0}], None,
     "[0].duration_sec", "must be > 0 (or -1 for 'to end of run')"),
    ("duration-on-start", [{"duration_sec": 1.0}], None,
     "[0].duration_sec", "only valid with during='measure'"),
    ("empty-window", [{"start_sec": 1.0, "end_sec": 1.0}], None,
     "[0].end_sec", "must be after start_sec (or -1)"),
    ("empty-lba-range", [{"lba_start": 10, "lba_end": 10}], None,
     "[0].lba_end", "must be after lba_start (or -1)"),
    ("lba-off-disk", [{"scope": "extent:flat", "lba_start": 5}], None,
     "[0].lba_start", "explicit LBA bounds are only for scope='disk'"),
    ("mixed-during", [{}, {"during": "measure"}], None, "[1].during",
     "all rules on the same disk must share one 'during' (one plan per "
     "disk)"),
]


def _expect_rejection(mission, path, fragment):
    with pytest.raises(MissionError) as info:
        validate_mission(mission)
    assert info.value.path == path
    assert fragment in info.value.message


@pytest.mark.parametrize("plane", sorted(_PLANES))
@pytest.mark.parametrize(
    "rules,run_topology,suffix,fragment",
    [case[1:] for case in _REJECTIONS], ids=[case[0] for case in _REJECTIONS])
def test_disk_rule_rejected(plane, rules, run_topology, suffix, fragment):
    """Each malformed disk rule is refused on both planes, at the same
    field path and with the same message."""
    if suffix.startswith("!"):
        path = suffix[1:]
    else:
        path = "runs[1].%s%s" % (plane, suffix)
    _expect_rejection(_mission(plane, copy.deepcopy(rules), run_topology),
                      path, fragment)


def test_fault_blocks_only_on_bad_block():
    """Explicit fault blocks are persistent bad LBAs, so only
    ``bad_block`` takes them."""
    _expect_rejection(
        _mission("faults", [{"scope": "extent:flat", "blocks": 2}]),
        "runs[1].faults[0].blocks",
        "explicit blocks are only for kind='bad_block'")


@pytest.mark.parametrize("kind",
                         ["bit_flip", "torn_write", "misdirected_write"])
def test_corruption_blocks_on_every_kind(kind):
    """Every corruption kind may name explicit blocks on an extent."""
    mission = validate_mission(_mission(
        "corruptions", [{"kind": kind, "scope": "extent:flat",
                         "blocks": 2}]))
    assert mission["runs"][1]["corruptions"][0]["blocks"] == 2


def test_valid_scopes_accepted_on_both_planes():
    """The fixture itself is valid: every rejection above is caused by
    the one field each case breaks."""
    for plane in _PLANES:
        mission = validate_mission(_mission(plane, [
            {"scope": "extent:flat"}, {"scope": "volume_of:vol"},
            {"scope": "disk", "lba_start": 4, "lba_end": 8}]))
        assert len(mission["runs"][1][plane]) == 3
