"""The border desk: one check, one transcript, one outcome.

A check runs five phases in a fixed order: scripted sign-in on the
traveler's device, OTP redemption plus the NFC tap, forwarding the desk
copy to the airport cloud, comparison against the replica, then the
outcome. Departure and arrival share this code path; the only
difference is that an arrival that ends in PERMIT also stamps the visa
page before the outcome is recorded. Arrival never trusts departure:
the whole protocol runs again.

Outcome mapping: exhausted or timed-out authentication and any failure
at the NFC layer mean the traveler could not legitimately present the
visa, so the desk sends the device a lock command over NFC, opening a
channel first if none is open, and the police are alerted. A comparison
discrepancy (MISMATCH or a visa the airport never received) isolates
the traveler for manual handling instead. Only a byte-exact match
permits travel.

Every outcome but PERMIT has one cause, ``(phase, code)``: the phase
that decided and its code, such as ``("nfc", "HASH_MISMATCH")`` or
``("compare", "NOT_FOUND")``. The transcript holds it as data, and the
outcome line and the police-alert line are rendered from it in one
place; the engine reports the alert from the same cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import authflow
from .authflow import OtpStore
from .clouds import (AirportCloud, Checkpoint, CompareResult, compare_visa,
                     receive_desk_copy)
from .errors import AuthError, DeskError, NfcError, ValidationError
from .model import (_CREDENTIALS_PENDING, _EXPIRED, _PASSPORT_VISIBLE,
                    _TERMINATED, _TIME_AUTH_PENDING, _VISA_VISIBLE,
                    DeviceState, StampEntry, StampKind, _Enum, record)
from .nfc import NfcChannel, establish, send_lock, tap_check, tap_stamp

__all__ = [
    "Outcome",
    "DeskCheck",
    "TranscriptEvent",
    "CheckTranscript",
    "AgentScript",
    "PHASES",
    "run_check",
]

PHASE_AUTH = "auth"
PHASE_NFC = "nfc"
PHASE_DESK_COPY = "desk-copy"
PHASE_COMPARE = "compare"
PHASE_STAMP = "stamp"
PHASE_OUTCOME = "outcome"

# Protocol order; transcript events never move backwards through this list.
PHASES = (PHASE_AUTH, PHASE_NFC, PHASE_DESK_COPY, PHASE_COMPARE, PHASE_STAMP,
          PHASE_OUTCOME)

# Each phase's place in PHASES, looked up once per transcript line.
_PHASE_INDEX = {phase: index for index, phase in enumerate(PHASES)}

# Builds a record from its field tuple, as the NamedTuple's own __new__
# does, without that Python-level call.
_new_record = tuple.__new__

# Virtual seconds the agent spends on each auth action.
_STEP_S = 15
# How far from the reader the traveler holds the device, inside NFC range.
_TAP_DISTANCE_CM = 5.0


class Outcome(_Enum):
    PERMIT = "PERMIT"
    ISOLATE = "ISOLATE"
    LOCK_AND_ALERT = "LOCK_AND_ALERT"


# What decided an outcome: the phase and that phase's code.
Cause = tuple[str, str]

# Each outcome's transcript line, formatted with the fields of its cause.
_OUTCOME_LINES = {Outcome.PERMIT: "PERMIT", Outcome.ISOLATE: "ISOLATE {0}={1}",
                  Outcome.LOCK_AND_ALERT: "LOCK_AND_ALERT cause={1}"}


@record
class DeskCheck:
    """One desk at one airport, open for a departure or arrival check."""

    checkpoint: Checkpoint
    airport: str
    desk_id: str
    started_at: int

    @property
    def transaction_id(self) -> str:
        """The OTP transaction of this check: its desk and start time."""
        return f"{self.desk_id}@{self.started_at}"


class TranscriptEvent(NamedTuple):
    ts: int
    phase: str
    detail: str


@record
class CheckTranscript:
    """What happened at the desk, phase by phase, the outcome, and its
    cause ``(phase, code)``. A PERMIT has no cause and every other outcome
    has one; the outcome line is the rendering of the two."""

    events: tuple[TranscriptEvent, ...]
    outcome: Outcome
    cause: Cause | None = None

    def validate(self) -> None:
        try:
            order = [_PHASE_INDEX[e.phase] for e in self.events]
        except KeyError as exc:
            raise ValidationError("UNKNOWN_PHASE", exc.args[0]) from None
        if order != sorted(order):
            raise ValidationError("PHASES_OUT_OF_ORDER", str(order))
        finals = [e.detail for e in self.events if e.phase == PHASE_OUTCOME]
        if len(finals) != 1:
            raise ValidationError("BAD_OUTCOME_EVENT",
                                  f"{len(finals)} outcome events")
        # A line that names another outcome is refused before the cause
        # is read.
        if not finals[0].startswith(self.outcome.value):
            raise ValidationError("OUTCOME_DETAIL_MISMATCH", finals[0])
        if (self.cause is None) != (self.outcome is Outcome.PERMIT):
            raise ValidationError("CAUSE_OUTCOME_MISMATCH",
                                  f"{self.outcome.value} with cause {self.cause}")
        if finals[0] != _OUTCOME_LINES[self.outcome].format(*self.cause or ()):
            raise ValidationError("OUTCOME_DETAIL_MISMATCH", finals[0])


@dataclass
class AgentScript:
    """What the simulated traveler does at the desk.

    The honest traveler submits the time their device displays, answers
    the picture challenge from memory, and uses the OTP issued for this
    transaction. The flags switch in misbehavior for fault scenarios;
    every knob is deterministic.
    """

    username: str
    password: str
    image_answers: tuple[str, ...]
    submit_utc_time: bool = False       # type scenario UTC, not device time
    wrong_image_answer: bool = False    # always miss the picture challenge
    replay_otp: str | None = None       # present this stale code first
    oversleep_s: int = 0                # idle right after opening the session


def _drive_auth(device, script: AgentScript, clock, rng, credentials, log) -> None:
    """Walk the agent through both levels until the visa is visible, the
    session dies, or the agent runs out of road. Failures stay pending, so
    a stubborn wrong answer burns clock until the 600 s wall."""
    # The agent reopens an expired session once; only the first opening
    # is followed by the oversleep fault's idle time.
    for opening, idle_s in (("session-opened", script.oversleep_s),
                            ("session-reopened", 0)):
        try:
            session = authflow.open_session(device, clock.now, rng)
            log(PHASE_AUTH, f"{opening} id={session.session_id}")
        except AuthError as exc:
            log(PHASE_AUTH, f"session-refused {exc.code}")
            return
        if idle_s:
            clock.advance(idle_s)
            log(PHASE_AUTH, f"agent-idle {idle_s}s")
        while True:
            session = device.session
            state = session.state
            if state is _VISA_VISIBLE or state is _TERMINATED:
                return
            if state is _EXPIRED:
                break
            clock.advance(_STEP_S)
            try:
                if state is _TIME_AUTH_PENDING:
                    # UTC now is what the device, running clock_offset_min
                    # ahead of UTC, showed that many minutes ago.
                    shown_at = (clock.now - 60 * device.clock_offset_min
                                if script.submit_utc_time else clock.now)
                    submitted = device.displayed_time(shown_at)
                    authflow.verify_time_auth(device, submitted,
                                              session.pending_captcha.text,
                                              clock.now)
                    log(PHASE_AUTH, f"time-auth-ok submitted={submitted}")
                elif state is _CREDENTIALS_PENDING:
                    authflow.verify_credentials(device, script.username,
                                                script.password, credentials,
                                                clock.now)
                    log(PHASE_AUTH, "credentials-ok")
                elif state is _PASSPORT_VISIBLE:
                    _, index = authflow.begin_image_auth(device, rng, clock.now)
                    log(PHASE_AUTH, f"image-prompted index={index}")
                else:  # IMAGE_AUTH_PENDING
                    index = session.pending_image_index
                    answer = ("not the right caption" if script.wrong_image_answer
                              else script.image_answers[index])
                    authflow.verify_image_answer(device, answer, clock.now)
                    log(PHASE_AUTH, "image-auth-ok")
            except AuthError as exc:
                log(PHASE_AUTH, f"auth-rejected {exc.code}")


def run_check(desk: DeskCheck, device: DeviceState,
              airport_cloud: AirportCloud | None, script: AgentScript, clock,
              rng, *, credentials, otp_store: OtpStore) -> CheckTranscript:
    """Run one full desk check and return its transcript.

    ``credentials`` is the enrolled username -> Credential mapping.
    Identical inputs and seed produce an identical transcript.
    """
    if airport_cloud is None:
        raise DeskError("DESK_MISCONFIGURED", desk.desk_id)
    events: list[TranscriptEvent] = []

    def log(phase: str, detail: str) -> None:
        events.append(_new_record(TranscriptEvent, (clock.now, phase, detail)))

    def finish(outcome: Outcome, cause: Cause | None = None) -> CheckTranscript:
        if outcome is Outcome.LOCK_AND_ALERT:
            log(PHASE_NFC, f"police-alerted reason={cause[1]}")
        log(PHASE_OUTCOME, _OUTCOME_LINES[outcome].format(*cause or ()))
        return CheckTranscript(tuple(events), outcome, cause)

    def lock_and_alert(channel: NfcChannel | None, cause: Cause) -> CheckTranscript:
        try:
            if channel is None:
                channel = establish(device, _TAP_DISTANCE_CM)
                log(PHASE_NFC, f"channel-open distance={_TAP_DISTANCE_CM}")
        except NfcError as exc:
            if exc.code != "DEVICE_LOCKED":
                raise
            log(PHASE_NFC, "device-locked")
        else:
            send_lock(channel)
            log(PHASE_NFC, "lock-sent")
        return finish(Outcome.LOCK_AND_ALERT, cause)

    transaction_id = desk.transaction_id

    # Phase 1: the agent signs in on the device.
    otp = authflow.issue_otp(otp_store, transaction_id, rng)
    log(PHASE_AUTH, f"otp-issued transaction={transaction_id}")
    _drive_auth(device, script, clock, rng, credentials, log)

    # Phase 2: OTP redemption, then the tap.
    channel = None
    try:
        if script.replay_otp is not None:
            try:
                authflow.redeem_otp(otp_store, script.replay_otp, transaction_id)
                log(PHASE_NFC, "otp-redeemed stale")
            except AuthError as exc:
                log(PHASE_NFC, f"otp-rejected {exc.code}")
        authflow.redeem_otp(otp_store, otp.code, transaction_id)
        log(PHASE_NFC, "otp-redeemed")
        channel = establish(device, _TAP_DISTANCE_CM)
        log(PHASE_NFC, f"channel-open distance={_TAP_DISTANCE_CM}")
        summary, visa_id, image = tap_check(channel)
        log(PHASE_NFC, f"tap-check passport={summary.passport_no} visa={visa_id}")
    except (AuthError, NfcError, ValidationError) as exc:
        log(PHASE_NFC, f"nfc-failed {exc.code}")
        return lock_and_alert(channel, (PHASE_NFC, exc.code))

    # Phase 3: hand the airport cloud what the desk saw.
    digest = image.content_hash
    receive_desk_copy(airport_cloud, visa_id, digest, desk.checkpoint)
    log(PHASE_DESK_COPY, f"desk-copy-stored hash={digest[:16]}")

    # Phase 4: replica comparison.
    result = compare_visa(airport_cloud, visa_id, desk.checkpoint)
    log(PHASE_COMPARE, f"compare {result.value}")

    # Phase 5: outcome, stamping arrivals first.
    if result is not CompareResult.MATCH:
        return finish(Outcome.ISOLATE, (PHASE_COMPARE, result.value))
    if desk.checkpoint is Checkpoint.ARRIVAL:
        stamp = StampEntry(StampKind.ARRIVAL, desk.airport, clock.now)
        tap_stamp(channel, stamp)
        log(PHASE_STAMP, f"arrival-stamped at={stamp.stamped_at}")
    return finish(Outcome.PERMIT)
