"""Seeded input generators for the four benchmark workloads.

Every generator takes the benchmark seed and returns plain inputs: the
text of a ``.cps`` scenario, a list of fault runs, or a list of wire
request lines. The program under test sees only those inputs; the
expected outcomes come from ``ledger.py`` (scenario workloads) or are
attached to each wire line here.

Sizes are fixed per workload and the seed changes only names, clock
offsets, pages, countries and fault parameters, so every seed asks the
program for the same amount of work. Country codes are all two letters
and names all the same length for that reason: the QR cost of a link
token depends on its length.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

# The smaller of the two sizes ROADMAP item 1 names, and the size of its hand
# baseline: large enough that per-run fixed cost is spread thin and that a
# day's batched approvals give the notification scan a long list.
ENROLL_TRAVELERS = 200
BORDER_TRAVELERS = 3
BORDER_DAYS = 32
SWEEP_SEEDS_PER_CASE = 2
WIRE_RECORDS = 120
VISA_IMAGE_BYTES = 4096

# Faults exactly as the README lists them, by verb.
FAULT_VERBS = ("tamper-visa", "wrong-time", "wrong-image-answer",
               "replay-otp", "oversleep", "skip-sync")

_COUNTRIES = ("IN", "US", "GB", "FR", "DE", "JP", "BR", "ZA", "AU", "CA")
_AIRPORTS = ("BLR", "JFK", "LHR", "CDG", "FRA", "NRT", "GRU", "JNB", "SYD",
             "YYZ")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _rng(seed: int, workload: str) -> random.Random:
    digest = hashlib.sha256(f"cloudpass-bench:{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct traveler names, all 8 characters long."""
    return [f"t{i:03d}{''.join(rng.choice(_LETTERS) for _ in range(4))}"
            for i in range(count)]


def _world(rng: random.Random) -> tuple[list[str], list[str]]:
    return rng.sample(_COUNTRIES, 2), rng.sample(_AIRPORTS, 2)


def _issue(lines: list[str], rng: random.Random, names: list[str],
           embassies: list[str]) -> None:
    """Issue every traveler a passport and a 4 KiB visa, one batched phase
    per step (all applications, then all approvals, ...) like a day's
    queue at the embassy."""
    home = {n: rng.randrange(2) for n in names}

    def phase(fmt) -> None:
        order = list(names)
        rng.shuffle(order)
        lines.extend(fmt(n) for n in order)

    lines.extend(f"traveler {n} offset-min={rng.randint(-720, 840)}"
                 for n in names)
    phase(lambda n: f"apply-passport {n} authority={embassies[home[n]]}")
    phase(lambda n: f"approve-passport {n}")
    phase(lambda n: f"install-app {n}")
    phase(lambda n: f"apply-visa {n} authority={embassies[1 - home[n]]}")
    phase(lambda n: f"approve-visa {n} image-bytes={VISA_IMAGE_BYTES}")
    phase(lambda n: f"download-visa {n} page={rng.randint(1, 32)}")


def _header(embassies: list[str], airports: list[str]) -> list[str]:
    return ([f"embassy {e}" for e in embassies]
            + [f"airport {a}" for a in airports])


def _syncs(embassies: list[str], airports: list[str]) -> list[str]:
    return [f"sync {a} from={e}" for a in airports for e in embassies]


def enroll_scenario(seed: int) -> str:
    """ENROLL_TRAVELERS travelers across 2 embassies and 2 airports:
    issuance, QR download and one departure each."""
    rng = _rng(seed, "enroll")
    embassies, airports = _world(rng)
    names = _names(rng, ENROLL_TRAVELERS)
    lines = _header(embassies, airports)
    _issue(lines, rng, names, embassies)
    gate = {n: rng.choice(airports) for n in names}
    lines.extend(f"manifest {n} airport={gate[n]} date=1d" for n in names)
    lines.extend(_syncs(embassies, airports))
    lines.append("advance-clock 1d")
    order = list(names)
    rng.shuffle(order)
    lines.extend(f"depart {n} {gate[n]}" for n in order)
    return "\n".join(lines) + "\n"


def border_scenario(seed: int) -> str:
    """A few travelers shuttle between two airports for many days. Each
    day adds manifest rows, syncs both airports, checks everyone out and
    then everyone in, so arrival stamps and manifest rows pile up."""
    rng = _rng(seed, "border")
    embassies, airports = _world(rng)
    names = _names(rng, BORDER_TRAVELERS)
    lines = _header(embassies, airports)
    _issue(lines, rng, names, embassies)
    for day in range(1, BORDER_DAYS + 1):
        origin, dest = airports if day % 2 else airports[::-1]
        for airport in (origin, dest):
            lines.extend(f"manifest {n} airport={airport} date={day}d"
                         for n in names)
        lines.extend(_syncs(embassies, airports))
        lines.append("advance-clock 1d" if day == 1 else "advance-clock 22h")
        lines.extend(f"depart {n} {origin}" for n in names)
        lines.append("advance-clock 2h")
        lines.extend(f"arrive {n} {dest}" for n in names)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepRun:
    """One small independent run, as ``cloudpass run --fault`` makes it."""

    scenario: str        # file name under scenarios/
    text: str            # the scenario file's contents
    fault: str           # fault in command syntax
    seed: int            # world seed


def _scenario_facts(text: str) -> tuple[str, dict[str, int]]:
    """First traveler and the offsets of the scenario's own tamper lines."""
    traveler, tampers, size = None, [], 256
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "traveler" and traveler is None:
            traveler = words[1]
        for word in words[2:]:
            key, _, value = word.partition("=")
            if words[0] == "tamper-visa" and key == "byte":
                tampers.append(int(value))
            if words[0] == "approve-visa" and key == "image-bytes":
                size = int(value)
    return traveler, {"size": size, "tampers": tampers}


def _fault_text(verb: str, who: str, facts: dict, rng: random.Random) -> str:
    if verb == "skip-sync":
        return verb
    if verb == "tamper-visa":
        size = facts["size"]
        if facts["tampers"] and rng.random() < 0.5:
            # Same offset modulo the image size: the XOR flip undoes itself.
            byte = facts["tampers"][0] % size + size * rng.randrange(4)
        else:
            byte = rng.randrange(10_000)
        return f"tamper-visa {who} byte={byte}"
    if verb == "oversleep":
        return f"oversleep {who} wait={rng.randint(1, 7200)}s"
    return f"{verb} {who}"


def fault_sweep(seed: int, scenario_dir: Path) -> list[SweepRun]:
    """Every shipped scenario x every README fault x a few world seeds,
    with fault parameters drawn from the benchmark seed."""
    rng = _rng(seed, "fault_sweep")
    runs = []
    for path in sorted(scenario_dir.glob("*.cps")):
        text = path.read_text(encoding="utf-8")
        who, facts = _scenario_facts(text)
        for verb in FAULT_VERBS:
            for _ in range(SWEEP_SEEDS_PER_CASE):
                runs.append(SweepRun(path.name, text,
                                     _fault_text(verb, who, facts, rng),
                                     rng.getrandbits(32)))
    return runs


# ---------------------------------------------------------------------------
# Wire workload


@dataclass(frozen=True)
class WireLine:
    """One request, sent as the concatenation of ``parts``: a ``str`` as
    it is, an ``int`` N as the payload of the reply to request N (a
    tracking id or token the caller was handed, as a real client would
    use it), ``bytes`` as their hex. Images stay bytes until they are
    sent, so the inputs take half the memory of the request lines."""

    role: str            # "embassy" or "airport"
    parts: tuple
    status: str          # expected "OK" or "ERR"
    reply: str | bytes | None = None   # expected payload, where the generator
                                       # knows it; bytes stand for their hex

    @property
    def verb(self) -> str:
        return self.parts[0].partition(" ")[0]

    def text(self, payloads: dict[int, str]) -> str:
        return "".join(part if isinstance(part, str)
                       else payloads[part] if isinstance(part, int)
                       else part.hex() for part in self.parts)


WIRE_EMBASSY = "IN"
WIRE_AIRPORT = "BLR"
_SNAPSHOT_EVERY = 20
_MALFORMED_EVERY = 7


def _malformed(i: int, visa_id: str) -> WireLine:
    kinds = (
        ("embassy", "FROBNICATE now"),
        ("embassy", "SUBMIT onlyone"),
        ("embassy", f"BLOB {'0' * 64}"),
        ("embassy", "RESOLVE zz"),
        ("embassy", "APPROVE_VISA a b c d 0 1 nothex"),
        ("airport", f"COMPARE {visa_id} DEPARTED"),
        ("airport", "DESK_COPY V1 DEPARTURE xyz"),
        ("airport", ""),
    )
    role, text = kinds[i % len(kinds)]
    return WireLine(role, (text,), "ERR")


def wire_lines(seed: int) -> list[WireLine]:
    """Issue, replicate and compare WIRE_RECORDS visas over the line
    protocol, with a fixed share of SNAPSHOT and malformed lines."""
    rng = _rng(seed, "wire")
    lines: list[WireLine] = []

    def add(line: WireLine) -> int:
        lines.append(line)
        return len(lines) - 1

    for i in range(WIRE_RECORDS):
        who = f"app{i:04d}{''.join(rng.choice(_LETTERS) for _ in range(4))}"
        passport_no = f"P{i:07d}"
        visa_id = f"V{i:07d}"
        image = rng.randbytes(VISA_IMAGE_BYTES)
        digest = hashlib.sha256(image).hexdigest()
        dest = rng.choice(_COUNTRIES)
        p_track = add(WireLine("embassy", (f"SUBMIT {who} PASSPORT_APPLICATION",),
                               "OK"))
        add(WireLine("embassy", ("APPROVE_PASSPORT ", p_track,
                                 f" {passport_no} {who} {WIRE_EMBASSY} 0 315360000"),
                     "OK"))
        v_track = add(WireLine("embassy", (f"SUBMIT {who} VISA_APPLICATION",), "OK"))
        token = add(WireLine("embassy", ("APPROVE_VISA ", v_track,
                                         f" {visa_id} {passport_no} {dest} 0 15552000 ",
                                         image), "OK"))
        add(WireLine("embassy", ("RESOLVE ", token), "OK", f"VISA_IMAGE {visa_id}"))
        add(WireLine("embassy", (f"BLOB {digest}",), "OK", image))
        # One record in eight is never replicated (NOT_FOUND) and one in
        # eight reaches the desk with a flipped byte (MISMATCH). The mix is
        # fixed by position so every seed asks for the same work.
        fate = i % 8
        if fate != 0:
            add(WireLine("airport", (f"REPLICATE {visa_id} {passport_no} {digest}",),
                         "OK", ""))
        seen = image
        if fate == 1:
            flipped = bytearray(image)
            flipped[rng.randrange(len(flipped))] ^= 0xFF
            seen = bytes(flipped)
        checkpoint = rng.choice(("DEPARTURE", "ARRIVAL"))
        add(WireLine("airport", (f"DESK_COPY {visa_id} {checkpoint} ", seen), "OK",
                     hashlib.sha256(seen).hexdigest()))
        result = "NOT_FOUND" if fate == 0 else "MISMATCH" if fate == 1 else "MATCH"
        add(WireLine("airport", (f"COMPARE {visa_id} {checkpoint}",), "OK", result))
        if i % _SNAPSHOT_EVERY == _SNAPSHOT_EVERY - 1:
            role = ("embassy", "airport")[i // _SNAPSHOT_EVERY % 2]
            add(WireLine(role, ("SNAPSHOT",), "OK"))
        if i % _MALFORMED_EVERY == _MALFORMED_EVERY - 1:
            add(_malformed(i // _MALFORMED_EVERY, visa_id))
    return lines
