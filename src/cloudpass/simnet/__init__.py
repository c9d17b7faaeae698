"""Scenario tooling: virtual clock, seeded streams, the scenario
language, the execution engine, and the report writer."""

from .clock import SCENARIO_EPOCH, VirtualClock, render_iso
from .engine import TravelerState, World, run
from .events import EventLog, ScenarioEvent, emit_report, event_line, outcome_counts
from .rng import ScenarioRng
from .scenario import (FaultKind, Scenario, ScenarioCommand, load_scenario,
                       parse_duration, parse_fault)

__all__ = [
    "SCENARIO_EPOCH", "VirtualClock", "render_iso", "TravelerState", "World",
    "run", "EventLog", "ScenarioEvent", "emit_report", "event_line",
    "outcome_counts", "ScenarioRng", "FaultKind", "Scenario",
    "ScenarioCommand", "load_scenario", "parse_duration", "parse_fault",
]
