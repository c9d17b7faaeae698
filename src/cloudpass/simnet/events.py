"""Append-only run log and its line-oriented JSON report form.

Every line of a report is one JSON object with keys in a fixed order
(seq, ts, actor, event, details); the last line is a summary with the
outcome counts. Re-emitting the same log yields byte-identical output.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .clock import render_iso

__all__ = ["ScenarioEvent", "EventLog", "event_line", "emit_report",
           "outcome_counts"]

_OUTCOME_KEYS = ("PERMIT", "ISOLATE", "LOCK_AND_ALERT")


@dataclass(frozen=True)
class ScenarioEvent:
    seq: int
    ts: int
    actor: str
    event: str
    details: dict = field(default_factory=dict)


class EventLog:
    def __init__(self):
        self.events: list[ScenarioEvent] = []

    def emit(self, ts: int, actor: str, event: str, **details) -> ScenarioEvent:
        ev = ScenarioEvent(len(self.events), ts, actor, event, details)
        self.events.append(ev)
        return ev


# Same settings as json.dumps(record, separators=(", ", ": ")), built once.
_ENCODER = json.JSONEncoder(separators=(", ", ": "))


def _line(seq: int, iso: str, actor: str, event: str, details: dict) -> str:
    # The fixed keys are written directly; strings go through the quoting
    # function the encoder itself uses under ensure_ascii=True, and the
    # rendered timestamp is plain ASCII that needs no escaping.
    return (f'{{"seq": {seq}, "ts": "{iso}", '
            f'"actor": {encode_basestring_ascii(actor)}, '
            f'"event": {encode_basestring_ascii(event)}, '
            f'"details": {_ENCODER.encode(details)}}}')


def event_line(event: ScenarioEvent) -> str:
    return _line(event.seq, render_iso(event.ts), event.actor, event.event,
                 event.details)


def outcome_counts(events: list[ScenarioEvent]) -> dict[str, int]:
    counts = {key: 0 for key in _OUTCOME_KEYS}
    for event in events:
        if event.event == "check-outcome":
            counts[event.details["outcome"]] += 1
    return counts


def emit_report(events: list[ScenarioEvent], target) -> None:
    """Write the log as JSON lines plus the trailing summary line.

    ``target`` is a path or a text stream. N events produce N + 1 lines;
    an empty log still produces its summary line with all counts zero.
    """
    lines = []
    last_ts, iso = 0, render_iso(0)
    for e in events:
        if e.ts != last_ts:     # runs of events share one rendered second
            last_ts, iso = e.ts, render_iso(e.ts)
        lines.append(_line(e.seq, iso, e.actor, e.event, e.details))
    counts = outcome_counts(events)
    lines.append(_line(len(events), iso, "world", "summary",
                       {"events": len(events),
                        **{key.lower(): counts[key] for key in _OUTCOME_KEYS}}))
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, os.PathLike)):
        with io.open(target, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
    else:
        target.write(text)
