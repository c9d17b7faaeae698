"""Scenario execution: a fresh world per run, commands in order.

The engine owns every store (clouds, devices, OTPs) and the only
clock, and reports a police alert for each LOCK_AND_ALERT desk check. All
randomness flows from the scenario seed through one substream per
actor, so identical (scenario, seed, faults) runs produce byte-identical
event logs. Single-threaded by design; nothing here may spawn
concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import authflow, clouds, immigration
from ..clouds import (AirportCloud, Checkpoint, EmbassyCloud, ManifestEntry,
                      NotificationKind, TravelManifest)
from ..errors import CloudError, CloudPassError, ScenarioRuntimeError
from ..model import AUTH_IMAGE_COUNT, DeviceState, IdKind, VisaImage
from ..qrlink import token_from_payload, token_to_payload
from .clock import VirtualClock
from .events import EventLog, ScenarioEvent
from .rng import ScenarioRng
from .scenario import _FAULTS, FaultKind, Scenario, ScenarioCommand

__all__ = ["World", "TravelerState", "run"]

# The desk verbs and the checkpoint each one runs.
_DESK_VERBS = {"depart": Checkpoint.DEPARTURE, "arrive": Checkpoint.ARRIVAL}
# Event name each desk transcript phase is re-emitted under.
_DESK_EVENTS = {phase: f"desk-{phase}" for phase in immigration.PHASES}


@dataclass
class TravelerState:
    """What the engine knows about one traveler between commands."""

    name: str
    device: DeviceState
    script: immigration.AgentScript    # what they do at the desk, faults too
    home_authority: str | None = None
    visa_authority: str | None = None
    passport_tracking: str | None = None
    visa_tracking: str | None = None
    passport_no: str | None = None
    visa_id: str | None = None
    last_redeemed: str | None = None


class World:
    def __init__(self, seed: int):
        self.clock = VirtualClock()
        self.rng = ScenarioRng(seed)
        self.embassies: dict[str, EmbassyCloud] = {}
        self.airports: dict[str, AirportCloud] = {}
        self.travelers: dict[str, TravelerState] = {}
        self.credentials: dict[str, authflow.Credential] = {}
        self.manifest = TravelManifest()
        self.otp_store = authflow.OtpStore()
        self.log = EventLog()
        self.skip_sync = False
        self._desk_seq: dict[str, int] = {}

    @property
    def events(self) -> list[ScenarioEvent]:
        return self.log.events

    def emit(self, actor: str, event: str, **details) -> None:
        self.log.emit(self.clock.now, actor, event, details)

    def traveler(self, name: str) -> TravelerState:
        state = self.travelers.get(name)
        if state is None:
            raise CloudError("NO_SUCH_TRAVELER", name)
        return state

    def embassy(self, authority: str) -> EmbassyCloud:
        cloud = self.embassies.get(authority)
        if cloud is None:
            raise CloudError("NO_SUCH_AUTHORITY", authority)
        return cloud

    def next_desk(self, airport: str) -> str:
        self._desk_seq[airport] = self._desk_seq.get(airport, 0) + 1
        return f"{airport}-D{self._desk_seq[airport]}"


def _latest_notification(cloud: EmbassyCloud, recipient: str,
                         kind: NotificationKind):
    note = cloud.latest_notices.get((recipient, kind))
    if note is None:
        raise CloudError("NO_NOTIFICATION", f"{kind.value} for {recipient}")
    return note


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_embassy(world: World, cmd) -> None:
    authority = cmd.args["authority"]
    if authority in world.embassies:
        raise CloudError("DUPLICATE_AUTHORITY", authority)
    secret = world.rng.stream(f"authority:{authority}").randbytes(16)
    world.embassies[authority] = EmbassyCloud(authority, secret)
    world.emit(authority, "embassy-created")


def _cmd_airport(world: World, cmd) -> None:
    code = cmd.args["code"]
    if code in world.airports:
        raise CloudError("DUPLICATE_AIRPORT", code)
    world.airports[code] = AirportCloud(code)
    world.emit(code, "airport-created")


def _cmd_traveler(world: World, cmd) -> None:
    name = cmd.args["name"]
    if name in world.travelers:
        raise CloudError("DUPLICATE_TRAVELER", name)
    device_id = cmd.args.get("device", f"{name}-phone")
    offset = cmd.args.get("offset-min", 0)
    stream = world.rng.stream(f"traveler:{name}")
    answers = tuple(f"{name} keepsake {i}" for i in range(AUTH_IMAGE_COUNT))
    images = tuple(
        authflow.make_auth_image(i, stream.randbytes(48), answers[i])
        for i in range(AUTH_IMAGE_COUNT))
    password = f"pw-{stream.getrandbits(32):08x}"
    world.credentials[name] = authflow.make_credential(name, password, stream)
    device = DeviceState(device_id, offset, images)
    script = immigration.AgentScript(name, password, answers)
    world.travelers[name] = TravelerState(name, device, script)
    world.emit(name, "traveler-created", device=device_id, offset_min=offset)


def _cmd_apply_passport(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    authority = cmd.args["authority"]
    cloud = world.embassy(authority)
    stream = world.rng.stream(f"authority:{authority}")
    tracking = clouds.submit_application(cloud, traveler.name,
                                         IdKind.PASSPORT_APPLICATION, stream)
    traveler.home_authority = authority
    traveler.passport_tracking = tracking.value
    world.emit(traveler.name, "application-submitted", authority=authority,
               kind=tracking.kind.value, tracking=tracking.value)


def _cmd_approve_passport(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    if traveler.passport_tracking is None or traveler.home_authority is None:
        raise CloudError("NO_APPLICATION", traveler.name)
    cloud = world.embassy(traveler.home_authority)
    stream = world.rng.stream(f"authority:{traveler.home_authority}")
    passport_no = cmd.args.get("passport-no") or f"P{stream.getrandbits(28):07X}"
    note = clouds.approve_passport(
        cloud, traveler.passport_tracking, passport_no=passport_no,
        holder_name=traveler.name, nationality=traveler.home_authority,
        issue_date=world.clock.now,
        expiry_date=world.clock.now + cmd.args["expire-in"])
    traveler.passport_no = passport_no
    world.emit(traveler.home_authority, "passport-approved",
               tracking=traveler.passport_tracking, passport_no=passport_no)
    world.emit(traveler.home_authority, "notification-sent",
               recipient=note.recipient, kind=note.kind.value)


def _cmd_install_app(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    if traveler.home_authority is None:
        raise CloudError("NO_APPLICATION", traveler.name)
    cloud = world.embassy(traveler.home_authority)
    note = _latest_notification(cloud, traveler.name,
                                NotificationKind.PASSPORT_READY)
    passport = clouds.download_passport_app(cloud, note.payload,
                                            traveler.device)
    world.emit(traveler.name, "passport-installed",
               device=traveler.device.device_id,
               passport_no=passport.passport_no)


def _cmd_apply_visa(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    authority = cmd.args["authority"]
    cloud = world.embassy(authority)
    stream = world.rng.stream(f"authority:{authority}")
    tracking = clouds.submit_application(cloud, traveler.name,
                                         IdKind.VISA_APPLICATION, stream)
    traveler.visa_authority = authority
    traveler.visa_tracking = tracking.value
    world.emit(traveler.name, "application-submitted", authority=authority,
               kind=tracking.kind.value, tracking=tracking.value)


def _cmd_approve_visa(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    if traveler.visa_tracking is None or traveler.visa_authority is None:
        raise CloudError("NO_APPLICATION", traveler.name)
    if traveler.passport_no is None:
        raise CloudError("NO_PASSPORT", traveler.name)
    cloud = world.embassy(traveler.visa_authority)
    stream = world.rng.stream(f"authority:{traveler.visa_authority}")
    visa_id = cmd.args.get("visa-id") or f"V{stream.getrandbits(28):07X}"
    image_bytes = stream.randbytes(cmd.args["image-bytes"])
    clouds.approve_visa(
        cloud, traveler.visa_tracking, visa_id=visa_id,
        passport_no=traveler.passport_no,
        destination_country=traveler.visa_authority,
        valid_from=world.clock.now,
        valid_to=world.clock.now + cmd.args["valid-for"],
        image_bytes=image_bytes)
    traveler.visa_id = visa_id
    world.emit(traveler.visa_authority, "visa-approved",
               tracking=traveler.visa_tracking, visa_id=visa_id,
               image_hash=cloud.visas[visa_id].image_hash)


def _cmd_download_visa(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    if traveler.visa_authority is None:
        raise CloudError("NO_APPLICATION", traveler.name)
    cloud = world.embassy(traveler.visa_authority)
    note = _latest_notification(cloud, traveler.name, NotificationKind.VISA_READY)
    # The link rides a QR code: segment it, then scan its segments back.
    qr = token_to_payload(note.payload)
    token = token_from_payload(qr)
    page = cmd.args["page"]
    image = clouds.download_visa_image(cloud, token, traveler.device, page)
    world.emit(traveler.name, "visa-downloaded", visa_id=token.resource_id,
               page=page, qr_bits=qr.total_bits, image_hash=image.content_hash)


def _cmd_manifest(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    if traveler.passport_no is None or traveler.visa_id is None:
        raise CloudError("NO_VISA", traveler.name)
    entry = ManifestEntry(traveler.passport_no, traveler.visa_id,
                          cmd.args["airport"], cmd.args["date"])
    world.manifest.entries.append(entry)
    world.emit("world", "manifest-entry", passport_no=entry.passport_no,
               visa_id=entry.visa_id, airport=entry.airport,
               travel_date=entry.travel_date)


def _cmd_sync(world: World, cmd) -> None:
    code = cmd.args["code"]
    airport = world.airports.get(code)
    if airport is None:
        raise CloudError("NO_SUCH_AIRPORT", code)
    embassy = world.embassy(cmd.args["from"])
    if world.skip_sync:
        world.emit(code, "sync-skipped", source=embassy.authority_id)
        return
    date = cmd.args.get("date", world.clock.now)
    dangling: list[ManifestEntry] = []
    clouds.daily_sync(airport, embassy, world.manifest, date, dangling)
    for entry in dangling:
        world.emit(code, "manifest-dangling", visa_id=entry.visa_id,
                   travel_date=entry.travel_date)
    world.emit(code, "sync-completed", source=embassy.authority_id, date=date,
               replicated=len(airport.replicated), dangling=len(dangling))


def _cmd_advance_clock(world: World, cmd) -> None:
    seconds = cmd.args["by"]
    world.clock.advance(seconds)
    world.emit("world", "clock-advanced", seconds=seconds, now=world.clock.now)


def _run_desk_check(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    checkpoint, code = _DESK_VERBS[cmd.verb], cmd.args["airport"]
    desk = immigration.DeskCheck(checkpoint, code, world.next_desk(code),
                                 world.clock.now)
    transcript = immigration.run_check(
        desk, traveler.device, world.airports.get(code), traveler.script,
        world.clock, world.rng.stream(f"check:{traveler.name}"),
        credentials=world.credentials, otp_store=world.otp_store)
    emit, name = world.log.emit, traveler.name
    for ts, phase, detail in transcript.events:
        emit(ts, name, _DESK_EVENTS[phase], {"detail": detail})
    if transcript.outcome is immigration.Outcome.LOCK_AND_ALERT:
        world.emit(code, "police-alert", device=traveler.device.device_id,
                   reason=transcript.cause[1])
    world.emit(traveler.name, "check-outcome", checkpoint=checkpoint.value,
               airport=code, outcome=transcript.outcome.value)
    # The transaction's OTP is spent (or dead with its session); remember
    # the code so a replay fault can present it later.
    otp = world.otp_store.get(desk.transaction_id)
    if otp is not None:
        traveler.last_redeemed = otp.code
    # replay-otp and oversleep last one desk check.
    traveler.script.replay_otp = None
    traveler.script.oversleep_s = 0


def _cmd_tamper_visa(world: World, cmd) -> None:
    traveler = world.traveler(cmd.args["name"])
    if traveler.visa_id is None or traveler.visa_id not in traveler.device.visas:
        raise CloudError("NO_VISA", traveler.name)
    image = traveler.device.visas[traveler.visa_id]
    data = bytearray(image.data)
    index = cmd.args["byte"] % len(data)
    data[index] ^= 0xFF
    traveler.device.visas[traveler.visa_id] = VisaImage.of(bytes(data),
                                                           image.media_type)
    world.emit(traveler.name, "visa-tampered", offset=index)


def _cmd_arm_script(world: World, cmd) -> None:
    """Arm a fault on the traveler's desk script. wrong-time and
    wrong-image-answer stick for the rest of the run; replay-otp and
    oversleep are cleared after the next desk check."""
    traveler = world.traveler(cmd.args["name"])
    script, kind = traveler.script, _FAULTS[cmd.verb][0]
    details = {"kind": kind.value}
    if kind is FaultKind.WRONG_TIME:
        script.submit_utc_time = True
    elif kind is FaultKind.WRONG_IMAGE_ANSWER:
        script.wrong_image_answer = True
    elif kind is FaultKind.REPLAY_OTP:
        # Only a desk check moves last_redeemed, so this is the code the
        # next check would have read.
        script.replay_otp = traveler.last_redeemed or "000000"
    else:  # OVERSLEEP_SESSION
        script.oversleep_s = details["wait"] = cmd.args["wait"]
    world.emit(traveler.name, "fault-armed", **details)


def _cmd_skip_sync(world: World, cmd) -> None:
    world.skip_sync = True
    world.emit("world", "fault-armed", kind=FaultKind.SKIP_SYNC.value)


_HANDLERS = {
    "embassy": _cmd_embassy,
    "airport": _cmd_airport,
    "traveler": _cmd_traveler,
    "apply-passport": _cmd_apply_passport,
    "approve-passport": _cmd_approve_passport,
    "install-app": _cmd_install_app,
    "apply-visa": _cmd_apply_visa,
    "approve-visa": _cmd_approve_visa,
    "download-visa": _cmd_download_visa,
    "manifest": _cmd_manifest,
    "sync": _cmd_sync,
    "advance-clock": _cmd_advance_clock,
    "depart": _run_desk_check,
    "arrive": _run_desk_check,
    "tamper-visa": _cmd_tamper_visa,
    "wrong-time": _cmd_arm_script,
    "wrong-image-answer": _cmd_arm_script,
    "replay-otp": _cmd_arm_script,
    "oversleep": _cmd_arm_script,
    "skip-sync": _cmd_skip_sync,
}


def _inject_faults(commands: list, faults) -> list:
    """Splice fault commands into a parsed scenario: SKIP_SYNC up front,
    actor faults right before that actor's first desk check."""
    out = list(commands)
    for cmd in faults:
        if _FAULTS[cmd.verb][0] is FaultKind.SKIP_SYNC:
            out.insert(0, cmd)
            continue
        position = len(out)
        for i, existing in enumerate(out):
            if (existing.verb in _DESK_VERBS
                    and existing.args.get("name") == cmd.args.get("name")):
                position = i
                break
        out.insert(position, cmd)
    return out


def run(scenario: Scenario, faults: tuple[ScenarioCommand, ...] = ()) -> tuple[World, list[ScenarioEvent]]:
    """Execute a validated scenario against a fresh world, with the
    fault commands ``parse_fault`` built injected.

    Returns the final world and its ordered event log. A command failure
    surfaces as ScenarioRuntimeError carrying the failing index and naming
    the scenario line, or the fault by its place in ``faults`` counting
    from 1, with the partial world attached for inspection.
    """
    world = World(scenario.seed)
    commands = _inject_faults(list(scenario.commands), faults)
    for index, cmd in enumerate(commands):
        try:
            _HANDLERS[cmd.verb](world, cmd)
        except CloudPassError as exc:
            # parse_fault numbers every fault line 1, so a fault is known
            # by identity: the engine injects the very object it was given.
            number = next((n for n, fault in enumerate(faults, 1)
                           if fault is cmd), None)
            where = f"line {cmd.line_no}" if number is None else f"--fault {number}"
            error = ScenarioRuntimeError(index, exc, where)
            error.world = world
            raise error from exc
    return world, world.events
