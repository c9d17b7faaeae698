"""Expected desk-check outcomes, worked out without running the program.

The ledger reads the same scenario text the program gets, plus any
injected faults, and predicts the outcome of every desk check in order.
It models only what decides an outcome:

* ``tamper-visa`` XOR-flips one byte at ``byte % image size``, so two
  tampers at the same offset restore the original image;
* a failed sign-in (wrong picture answer, or a typed UTC time more than
  a minute off the device clock) ends in LOCK_AND_ALERT, and a locked
  device stays locked for every later check;
* a check whose visa the airport never replicated, or whose image was
  tampered, ends in ISOLATE;
* ``replay-otp`` and ``oversleep`` do not change the outcome: the stale
  code is rejected and the real one still redeems, and an overslept
  session is reopened once. (A replay only changes the outcome when the
  transaction's own fresh OTP happens to be ``000000``, one chance in a
  million per check, which the ledger does not model.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

DAY_S = 86400
SYNC_HORIZON_S = 2 * DAY_S
_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def _seconds(text: str) -> int:
    if text[-1] in _UNITS:
        return int(text[:-1]) * _UNITS[text[-1]]
    return int(text)


def _parse(line: str) -> tuple[str, list[str], dict[str, str]] | None:
    words = line.split("#", 1)[0].split()
    if not words:
        return None
    positional = [w for w in words[1:] if "=" not in w]
    keys = dict(w.split("=", 1) for w in words[1:] if "=" in w)
    return words[0], positional, keys


@dataclass
class _Traveler:
    offset_min: int
    visa_authority: str | None = None
    visa_issued: bool = False
    image_bytes: int = 256
    flipped: set = field(default_factory=set)
    locked: bool = False
    wrong_time: bool = False
    wrong_image: bool = False


@dataclass(frozen=True)
class Expected:
    traveler: str
    checkpoint: str      # "DEPARTURE" or "ARRIVAL"
    airport: str
    outcome: str         # "PERMIT", "ISOLATE" or "LOCK_AND_ALERT"


def _inject(commands: list, faults: list[str]) -> list:
    """Place faults as the engine does: skip-sync first, an actor fault
    right before that actor's first desk check (or last if it has none)."""
    out = list(commands)
    for fault in faults:
        parsed = _parse(fault)
        if parsed[0] == "skip-sync":
            out.insert(0, parsed)
            continue
        name = parsed[1][0]
        position = next((i for i, (verb, pos, _) in enumerate(out)
                         if verb in ("depart", "arrive") and pos[0] == name),
                        len(out))
        out.insert(position, parsed)
    return out


def _auth_fails(t: _Traveler) -> bool:
    if t.wrong_image:
        return True
    drift = t.offset_min % 1440
    return t.wrong_time and min(drift, 1440 - drift) > 1


def expected_checks(text: str, faults: list[str] = ()) -> list[Expected]:
    """The outcome of every desk check the scenario runs, in order."""
    commands = [c for c in map(_parse, text.splitlines()) if c is not None]
    travelers: dict[str, _Traveler] = {}
    manifest: list[tuple[str, str, int]] = []
    replicas: dict[str, set] = {}
    skip_sync = False
    now = 0
    out = []
    for verb, pos, keys in _inject(commands, list(faults)):
        if verb == "traveler":
            travelers[pos[0]] = _Traveler(int(keys.get("offset-min", "0")))
        elif verb == "airport":
            replicas[pos[0]] = set()
        elif verb == "apply-visa":
            travelers[pos[0]].visa_authority = keys["authority"]
        elif verb == "approve-visa":
            t = travelers[pos[0]]
            t.visa_issued = True
            t.image_bytes = int(keys.get("image-bytes", "256"))
        elif verb == "manifest":
            manifest.append((pos[0], keys["airport"], _seconds(keys["date"])))
        elif verb == "sync" and not skip_sync:
            date = _seconds(keys["date"]) if "date" in keys else now
            for name, airport, travel_date in manifest:
                t = travelers[name]
                if (airport == pos[0] and date <= travel_date <= date + SYNC_HORIZON_S
                        and t.visa_issued and t.visa_authority == keys["from"]):
                    replicas[airport].add(name)
        elif verb == "advance-clock":
            now += _seconds(pos[0])
        elif verb == "skip-sync":
            skip_sync = True
        elif verb == "tamper-visa":
            t = travelers[pos[0]]
            t.flipped ^= {int(keys["byte"]) % t.image_bytes}
        elif verb == "wrong-time":
            travelers[pos[0]].wrong_time = True
        elif verb == "wrong-image-answer":
            travelers[pos[0]].wrong_image = True
        elif verb in ("depart", "arrive"):
            name, airport = pos
            t = travelers[name]
            if t.locked or _auth_fails(t):
                t.locked = True
                outcome = "LOCK_AND_ALERT"
            elif name not in replicas[airport] or t.flipped:
                outcome = "ISOLATE"
            else:
                outcome = "PERMIT"
            checkpoint = "DEPARTURE" if verb == "depart" else "ARRIVAL"
            out.append(Expected(name, checkpoint, airport, outcome))
    return out
