"""The memory-pressure chaos scenario as a pytest (marked ``pressure``).

Deselected by default (see ``addopts`` in pyproject.toml); run with
``make chaos-pressure`` or ``pytest -m pressure``.
"""

import pytest

from repro.exp import pressure


@pytest.mark.pressure
def test_pressure_scenario_passes():
    result = pressure.run()
    # Every acceptance property individually, for a readable failure.
    assert result.guarantees_held, (
        "a cooperative domain dipped below its guarantee: baseline=%r "
        "storm=%r" % (result.baseline["min_allocated"],
                      result.storm["min_allocated"]))
    assert result.hostile_killed_only, (
        "kills were not exactly the hostile domain: baseline=%r storm=%r"
        % (result.baseline["kills"], result.storm["kills"]))
    assert result.claim_satisfied
    for name in result.coops:
        assert result.retention(name) >= result.retention_floor, (
            "%s retained only %.1f%% of fault-free bandwidth"
            % (name, 100 * result.retention(name)))
    assert result.reproducible, "same-seed storm runs diverged"
    assert result.passed
