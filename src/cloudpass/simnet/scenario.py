"""Line-oriented scenario grammar.

One command per line: ``verb subject [key=value]...``; a line ends at
a newline and nowhere else. Blank lines and ``#`` comments are skipped.
Durations take s, m, h or d suffixes (``2h`` is 7200 seconds; a bare
number is seconds). Every number, durations after their unit, must fit
a signed 64-bit integer, and ``image-bytes`` must lie in
[1, MAX_IMAGE_BYTES]. Everything is validated up front, before any
command runs, and a rejection names the line and column it tripped on.

    embassy IN
    airport BLR
    traveler alice offset-min=330
    apply-passport alice authority=IN
    advance-clock 2h
    depart alice BLR
    tamper-visa alice byte=17
"""

from __future__ import annotations

import re
import types
from typing import Mapping

from ..errors import ScenarioParseError
from ..model import (_INT_RE, _SIGNED_RE, FORMATS, I64_MAX, MAX_IMAGE_BYTES,
                     _Enum, _in_i64, record)

__all__ = ["Scenario", "ScenarioCommand", "FaultKind", "load_scenario",
           "parse_duration", "parse_fault"]

_TOKEN_RE = re.compile(r"\S+")
# Matched with fullmatch, like the model's formats.
_KEY_VALUE_RE = re.compile(r"([a-z][a-z0-9-]*)=(.*)")
_DURATION_RE = re.compile(r"([0-9]+)(s|m|h|d)?")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")

_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, None: 1}


# Scenario numbers become times, offsets and sizes held in i64 fields of
# the canonical encoding, so each must fit one, a duration in seconds.
def _duration(text: str) -> int | None:
    match = _DURATION_RE.fullmatch(text)
    unit = match and _DURATION_UNITS[match.group(2)]
    count = match and _in_i64(match.group(1), 0, I64_MAX // unit)
    return None if count is None else count * unit


def parse_duration(text: str) -> int:
    seconds = _duration(text)
    if seconds is None:
        raise ValueError(f"bad duration {text!r}")
    return seconds


# Each validator returns the value its text stands for, or None to refuse.
_VALIDATORS = {
    "word": lambda v: v or None,
    "name": lambda v: v if _NAME_RE.fullmatch(v) else None,
    "airport": lambda v: v if FORMATS["airport"][0].fullmatch(v) else None,
    "country": lambda v: v if FORMATS["country"][0].fullmatch(v) else None,
    "int": lambda v: _INT_RE.fullmatch(v) and _in_i64(v),
    "image-size": lambda v: (_INT_RE.fullmatch(v)
                             and _in_i64(v, 1, MAX_IMAGE_BYTES)),
    "signed-int": lambda v: _SIGNED_RE.fullmatch(v) and _in_i64(v),
    "duration": _duration,
}


@record
class _VerbSpec:
    """One verb's grammar: positionals, keys, required keys, defaults."""

    positionals: tuple[tuple[str, str], ...] = ()   # (arg name, validator)
    keys: Mapping[str, str] = types.MappingProxyType({})  # key -> validator
    required: tuple[str, ...] = ()
    defaults: Mapping[str, object] = types.MappingProxyType({})


class FaultKind(_Enum):
    TAMPER_VISA_BYTE = "TAMPER_VISA_BYTE"
    WRONG_IMAGE_ANSWER = "WRONG_IMAGE_ANSWER"
    WRONG_TIME = "WRONG_TIME"
    REPLAY_OTP = "REPLAY_OTP"
    SKIP_SYNC = "SKIP_SYNC"
    OVERSLEEP_SESSION = "OVERSLEEP_SESSION"


# Fault verbs: misbehavior armed from inside a scenario or injected with
# --fault. A fault is its row here plus its handler in engine._HANDLERS.
_FAULTS: dict[str, tuple[FaultKind, _VerbSpec]] = {
    "tamper-visa": (FaultKind.TAMPER_VISA_BYTE,
                    _VerbSpec((("name", "name"),), {"byte": "int"},
                              required=("byte",))),
    "wrong-time": (FaultKind.WRONG_TIME, _VerbSpec((("name", "name"),))),
    "wrong-image-answer": (FaultKind.WRONG_IMAGE_ANSWER,
                           _VerbSpec((("name", "name"),))),
    "replay-otp": (FaultKind.REPLAY_OTP, _VerbSpec((("name", "name"),))),
    "oversleep": (FaultKind.OVERSLEEP_SESSION,
                  _VerbSpec((("name", "name"),), {"wait": "duration"},
                            defaults={"wait": 601})),
    "skip-sync": (FaultKind.SKIP_SYNC, _VerbSpec()),
}

_VERBS: dict[str, _VerbSpec] = {
    "embassy": _VerbSpec((("authority", "country"),)),
    "airport": _VerbSpec((("code", "airport"),)),
    "traveler": _VerbSpec((("name", "name"),),
                          {"device": "word", "offset-min": "signed-int"}),
    "apply-passport": _VerbSpec((("name", "name"),), {"authority": "country"},
                                required=("authority",)),
    "approve-passport": _VerbSpec((("name", "name"),),
                                  {"passport-no": "word",
                                   "expire-in": "duration"},
                                  defaults={"expire-in": 3650 * 86400}),
    "install-app": _VerbSpec((("name", "name"),)),
    "apply-visa": _VerbSpec((("name", "name"),), {"authority": "country"},
                            required=("authority",)),
    "approve-visa": _VerbSpec((("name", "name"),),
                              {"visa-id": "word", "valid-for": "duration",
                               "image-bytes": "image-size"},
                              defaults={"valid-for": 180 * 86400,
                                        "image-bytes": 256}),
    "download-visa": _VerbSpec((("name", "name"),), {"page": "int"},
                               required=("page",)),
    "manifest": _VerbSpec((("name", "name"),),
                          {"airport": "airport", "date": "duration"},
                          required=("airport", "date")),
    "sync": _VerbSpec((("code", "airport"),),
                      {"from": "country", "date": "duration"},
                      required=("from",)),
    "advance-clock": _VerbSpec((("by", "duration"),)),
    "depart": _VerbSpec((("name", "name"), ("airport", "airport"))),
    "arrive": _VerbSpec((("name", "name"), ("airport", "airport"))),
    **{verb: grammar for verb, (_, grammar) in _FAULTS.items()},
}


@record
class ScenarioCommand:
    """One parsed line: verb, argument values, line number."""

    verb: str
    args: dict
    line_no: int


@record
class Scenario:
    """A parsed scenario: its seed and commands in file order."""

    seed: int
    commands: tuple[ScenarioCommand, ...]


def _fail(message: str, line_no: int, column: int):
    raise ScenarioParseError(message, line_no, column)


def _column(bare: str, index: int) -> int:
    """The 1-based column of token ``index`` of ``bare``. ``str.split()``
    and ``\\S+`` split at the same characters, so only a refusal pays
    for the regex scan."""
    return [match.start() + 1 for match in _TOKEN_RE.finditer(bare)][index]


def _parse_line(line: str, line_no: int) -> ScenarioCommand | None:
    bare = line.split("#", 1)[0]
    tokens = bare.split()
    if not tokens:
        return None
    verb = tokens[0]
    spec = _VERBS.get(verb)
    if spec is None:
        _fail(f"unknown verb {verb!r}", line_no, _column(bare, 0))

    args = dict(spec.defaults)
    positionals = spec.positionals
    taken = 0                       # positionals filled so far
    seen_key = False
    for index in range(1, len(tokens)):
        token = tokens[index]
        kv = "=" in token and _KEY_VALUE_RE.fullmatch(token)
        if kv:
            seen_key = True
            key, value = kv.group(1), kv.group(2)
            if key not in spec.keys:
                _fail(f"unknown key {key!r} for {verb}", line_no,
                      _column(bare, index))
            if not value:
                _fail(f"missing value for key {key!r}", line_no,
                      _column(bare, index) + len(key) + 1)
            parsed = _VALIDATORS[spec.keys[key]](value)
            if parsed is None:
                _fail(f"bad {spec.keys[key]} value {value!r} for {key!r}",
                      line_no, _column(bare, index) + len(key) + 1)
            args[key] = parsed
        else:
            if seen_key or taken == len(positionals):
                _fail(f"unexpected argument {token!r}", line_no,
                      _column(bare, index))
            name, validator = positionals[taken]
            taken += 1
            parsed = _VALIDATORS[validator](token)
            if parsed is None:
                _fail(f"bad {validator} value {token!r} for {name!r}",
                      line_no, _column(bare, index))
            args[name] = parsed
    if taken < len(positionals):
        _fail(f"{verb} needs {positionals[taken][0]!r}", line_no,
              _column(bare, 0))
    for key in spec.required:
        if key not in args:
            _fail(f"{verb} needs {key!r}=...", line_no, _column(bare, 0))
    return ScenarioCommand(verb, args, line_no)


def load_scenario(text: str, seed: int = 0) -> Scenario:
    """Parse and validate a whole scenario; nothing executes here."""
    commands = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        command = _parse_line(line, line_no)
        if command is not None:
            commands.append(command)
    return Scenario(seed, tuple(commands))


def parse_fault(text: str) -> ScenarioCommand:
    """One fault in command syntax, e.g. ``tamper-visa alice byte=17``:
    the command the grammar parsed, its verb's defaults filled in."""
    command = _parse_line(text.strip(), 1)
    if command is None or command.verb not in _FAULTS:
        _fail(f"not a fault command: {text.strip()!r}", 1, 1)
    return command
