"""The declarative mission plane.

A *mission* is a TOML file (topology + workload + fault/behaviour
plan + expected invariants) under ``missions/``; this package holds
its schema (:mod:`repro.missions.schema`), the check registry
(:mod:`repro.missions.checks`), the validating loader and
canonical serialiser (:mod:`repro.missions.validate`), the headless
deterministic runner (:mod:`repro.missions.runner`) and the matrix
generator (:mod:`repro.missions.matrix`). ``python -m repro.exp
sweep`` executes a mission corpus across parallel workers.
"""

from repro.missions.runner import (MissionRunError, MissionRunner,
                                   canonical, report_json, run_mission,
                                   verdicts)
from repro.missions.schema import (MISSION_SCHEMA_VERSION,
                                   REPORT_SCHEMA_VERSION)
from repro.missions.validate import (MissionError, MissionValidator,
                                     load_mission, loads_mission,
                                     serialize_mission, validate_mission)

__all__ = [
    "MISSION_SCHEMA_VERSION", "REPORT_SCHEMA_VERSION", "MissionError",
    "MissionRunError", "MissionRunner", "MissionValidator", "canonical",
    "load_mission", "loads_mission", "report_json", "run_mission",
    "serialize_mission", "validate_mission", "verdicts",
]
