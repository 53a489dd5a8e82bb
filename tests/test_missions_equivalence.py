"""Equivalence: mission-backed wrappers == the bespoke runners.

When chaos/pressure/scale became thin wrappers over the mission plane,
their outputs were captured first (``tests/golden/
bespoke_equivalence.json`` holds the pre-refactor numbers, byte for
byte).  These tests hold the wrappers — and the committed corpus
missions behind them — to exact equality with that capture on the same
seeds: floats, counters, kill sets, and the frames-allocator trace
digests all match or the port regressed.

The chaos and pressure wrapper runs ride their scenario markers (they
re-execute the full storms); the structural corpus checks and the
tiny-scale ``scale`` equivalence are cheap enough for tier 1.
"""

import json
import os

import pytest

from repro.exp import chaos, pressure, scale
from repro.missions import load_mission

FIXTURE = os.path.join(os.path.dirname(__file__), "golden",
                       "bespoke_equivalence.json")

#: The tiny configuration the scale capture was taken at — small
#: stretches and windows so the equivalence run stays in tier-1 time.
TINY_SCALE = scale.ScaleConfig(
    stretch_bytes=16 * 8192, swap_bytes=32 * 8192, frames=8,
    prefetch_depth=4, populate_limit_sec=60.0, settle_sec=0.5,
    measure_sec=1.0, storm_rate=1.0, storm_sec=1.0,
    drain_limit_sec=20.0, smoke=True)


def _fixture(key):
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)[key]


class TestCorpusMatchesWrappers:
    """The committed corpus files are the wrappers' missions (each
    wrapper loads and runs its file; there is no second copy)."""

    def test_corpus_declares_invariants(self):
        """The corpus versions are not vacuous ports: each declares
        the invariant checks its bespoke verdict used to compute."""
        chaos_checks = [e["check"] for e in
                        load_mission("missions/chaos-fig9.toml")["expect"]]
        assert "bandwidth_retention" in chaos_checks
        pressure_checks = [
            e["check"] for e in
            load_mission("missions/pressure-revocation.toml")["expect"]]
        for check in ("min_frames", "kill_set", "claim_granted",
                      "bandwidth_retention"):
            assert check in pressure_checks


@pytest.mark.chaos
class TestChaosEquivalence:
    """chaos.run() reproduces the bespoke runner's capture exactly."""

    def test_wrapper_matches_bespoke_capture(self):
        expected = _fixture("chaos")
        result = chaos.run()
        assert result.baseline == expected["baseline"]
        assert result.storm == expected["storm"]
        assert result.stats == expected["stats"]
        assert result.victim == expected["victim"]
        assert result.reproducible == expected["reproducible"]
        assert result.passed


@pytest.mark.pressure
class TestPressureEquivalence:
    """pressure.run() reproduces the bespoke runner's capture exactly,
    including the frames-allocator trace digests."""

    def test_wrapper_matches_bespoke_capture(self):
        expected = _fixture("pressure")
        result = pressure.run()
        assert result.baseline == expected["baseline"]
        assert result.storm == expected["storm"]
        assert result.reproducible == expected["reproducible"]
        assert (result.storm["trace_digest"]
                == expected["storm"]["trace_digest"])
        assert result.passed


class TestScaleEquivalence:
    """scale.run() at the tiny capture scale reproduces the bespoke
    payload exactly — every leg, share table, and containment gate."""

    def test_tiny_payload_matches_bespoke_capture(self):
        expected = _fixture("scale_tiny")
        payload = scale.run(TINY_SCALE)
        assert payload == expected
