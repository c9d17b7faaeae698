"""Append-only run log and its line-oriented JSON report form.

Every line of a report is one JSON object with keys in a fixed order
(seq, ts, actor, event, details); the last line is a summary with the
outcome counts. Re-emitting the same log yields byte-identical output.
"""

from __future__ import annotations

import io
import json
import os
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

from .clock import render_iso

__all__ = ["ScenarioEvent", "EventLog", "event_line", "emit_report",
           "outcome_counts"]

_OUTCOME_KEYS = ("PERMIT", "ISOLATE", "LOCK_AND_ALERT")


class ScenarioEvent(NamedTuple):
    """One log entry; a tuple, so the report path unpacks it by position."""

    seq: int
    ts: int
    actor: str
    event: str
    details: dict


class EventLog:
    def __init__(self):
        self.events: list[ScenarioEvent] = []

    def emit(self, ts: int, actor: str, event: str, **details) -> ScenarioEvent:
        ev = ScenarioEvent(len(self.events), ts, actor, event, details)
        self.events.append(ev)
        return ev


# Same settings as json.dumps(record, separators=(", ", ": ")).
_ENCODER = json.JSONEncoder(separators=(", ", ": "))


def _details_encoder():
    """The C encoder ``_ENCODER.encode`` would build for one call, built
    once for a whole report instead. Its markers dict is its own, so the
    circular-reference check stays and no state outlives the report."""
    e = _ENCODER
    return c_make_encoder({}, e.default, encode_basestring_ascii, e.indent,
                          e.key_separator, e.item_separator, e.sort_keys,
                          e.skipkeys, e.allow_nan)


def _line(encode, seq: int, iso: str, actor: str, event: str,
          details: dict) -> str:
    # The fixed keys are written directly; strings go through the quoting
    # function the encoder itself uses under ensure_ascii=True, and the
    # rendered timestamp is plain ASCII that needs no escaping.
    return (f'{{"seq": {seq}, "ts": "{iso}", '
            f'"actor": {encode_basestring_ascii(actor)}, '
            f'"event": {encode_basestring_ascii(event)}, '
            f'"details": {"".join(encode(details, 0))}}}')


def event_line(event: ScenarioEvent) -> str:
    seq, ts, actor, name, details = event
    return _line(_details_encoder(), seq, render_iso(ts), actor, name, details)


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
    encode = _details_encoder()
    lines = []
    last_ts, iso = 0, render_iso(0)
    for seq, ts, actor, event, details in events:
        if ts != last_ts:       # runs of events share one rendered second
            last_ts, iso = ts, render_iso(ts)
        lines.append(_line(encode, seq, iso, actor, event, details))
    counts = outcome_counts(events)
    lines.append(_line(encode, len(events), iso, "world", "summary",
                       {"events": len(events),
                        **{key.lower(): counts[key] for key in _OUTCOME_KEYS}}))
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, os.PathLike)):
        with io.open(target, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
    else:
        target.write(text)
