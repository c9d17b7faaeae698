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
visa, so the device is locked and the police are alerted. A comparison
discrepancy (MISMATCH or a visa the airport never received) isolates
the traveler for manual handling instead. Only a byte-exact match
permits travel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import authflow
from .authflow import OtpStore, SessionState
from .clouds import (AirportCloud, Checkpoint, CompareResult, compare_visa,
                     receive_desk_copy)
from .errors import AuthError, DeskError, NfcError, ValidationError
from .model import DeviceState, StampEntry, StampKind
from .nfc import NfcChannel, establish, send_lock, tap_check, tap_stamp

__all__ = [
    "Outcome",
    "DeskCheck",
    "TranscriptEvent",
    "CheckTranscript",
    "PoliceAlert",
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

# Virtual seconds the agent spends on each auth action.
_STEP_S = 15


class Outcome(Enum):
    PERMIT = "PERMIT"
    ISOLATE = "ISOLATE"
    LOCK_AND_ALERT = "LOCK_AND_ALERT"


@dataclass(frozen=True)
class DeskCheck:
    checkpoint: Checkpoint
    airport: str
    desk_id: str
    started_at: int


class TranscriptEvent(NamedTuple):
    ts: int
    phase: str
    detail: str


@dataclass(frozen=True)
class CheckTranscript:
    events: tuple[TranscriptEvent, ...]
    outcome: Outcome

    def validate(self) -> None:
        order = [PHASES.index(e.phase) for e in self.events]
        if order != sorted(order):
            raise ValidationError("PHASES_OUT_OF_ORDER", str(order))
        finals = [e for e in self.events if e.phase == PHASE_OUTCOME]
        if len(finals) != 1:
            raise ValidationError("BAD_OUTCOME_EVENT",
                                  f"{len(finals)} outcome events")
        if not finals[0].detail.startswith(self.outcome.value):
            raise ValidationError("OUTCOME_DETAIL_MISMATCH", finals[0].detail)


@dataclass(frozen=True)
class PoliceAlert:
    airport: str
    device_id: str
    reason: str
    raised_at: int


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
    retry_after_expiry: bool = True     # reopen once if the session expires


def _utc_time(now: int) -> str:
    minutes = (now // 60) % 1440
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _drive_auth(device, script: AgentScript, clock, rng, credentials, log) -> None:
    """Walk the agent through both levels until the visa is visible, the
    session dies, or the agent runs out of road. Failures stay pending, so
    a stubborn wrong answer burns clock until the 600 s wall."""
    try:
        session = authflow.open_session(device, clock.now, rng)
        log(PHASE_AUTH, f"session-opened id={session.session_id}")
    except AuthError as exc:
        log(PHASE_AUTH, f"session-refused {exc.code}")
        return
    if script.oversleep_s:
        clock.advance(script.oversleep_s)
        log(PHASE_AUTH, f"agent-idle {script.oversleep_s}s")
    reopened = False
    while True:
        session = device.session
        state = session.state
        if state is SessionState.VISA_VISIBLE:
            return
        if state is SessionState.TERMINATED:
            return
        if state is SessionState.EXPIRED:
            if script.retry_after_expiry and not reopened:
                reopened = True
                try:
                    session = authflow.open_session(device, clock.now, rng)
                    log(PHASE_AUTH, f"session-reopened id={session.session_id}")
                except AuthError as exc:
                    log(PHASE_AUTH, f"session-refused {exc.code}")
                    return
                continue
            return
        clock.advance(_STEP_S)
        try:
            if state is SessionState.TIME_AUTH_PENDING:
                submitted = (_utc_time(clock.now) if script.submit_utc_time
                             else device.displayed_time(clock.now))
                authflow.verify_time_auth(device, submitted,
                                          session.pending_captcha.text,
                                          clock.now)
                log(PHASE_AUTH, f"time-auth-ok submitted={submitted}")
            elif state is SessionState.CREDENTIALS_PENDING:
                authflow.verify_credentials(device, script.username,
                                            script.password, credentials,
                                            clock.now)
                log(PHASE_AUTH, "credentials-ok")
            elif state is SessionState.PASSPORT_VISIBLE:
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
              rng, *, credentials, otp_store: OtpStore, alert_sink: list,
              tap_distance_cm: float = 5.0) -> CheckTranscript:
    """Run one full desk check and return its transcript.

    ``credentials`` is the enrolled username -> Credential mapping,
    ``alert_sink`` collects any PoliceAlert raised. Identical inputs and
    seed produce an identical transcript.
    """
    if airport_cloud is None:
        raise DeskError("DESK_MISCONFIGURED", desk.desk_id)
    events: list[TranscriptEvent] = []

    def log(phase: str, detail: str) -> None:
        events.append(TranscriptEvent(clock.now, phase, detail))

    def finish(outcome: Outcome, context: str = "") -> CheckTranscript:
        log(PHASE_OUTCOME, f"{outcome.value}{context}")
        transcript = CheckTranscript(tuple(events), outcome)
        transcript.validate()
        return transcript

    def lock_and_alert(channel: NfcChannel | None, reason: str) -> CheckTranscript:
        if channel is not None:
            send_lock(channel)
            log(PHASE_NFC, "lock-sent")
        else:
            device.locked = True
            log(PHASE_NFC, "device-locked")
        alert_sink.append(PoliceAlert(desk.airport, device.device_id, reason,
                                      clock.now))
        log(PHASE_NFC, f"police-alerted reason={reason}")
        return finish(Outcome.LOCK_AND_ALERT, f" cause={reason}")

    transaction_id = f"{desk.desk_id}@{desk.started_at}"

    # Phase 1: the agent signs in on the device.
    otp = authflow.issue_otp(otp_store, transaction_id, rng, clock.now)
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
        channel = establish(desk.desk_id, device, tap_distance_cm, clock.now)
        log(PHASE_NFC, f"channel-open distance={tap_distance_cm}")
        summary, visa_id, image_bytes = tap_check(channel)
        log(PHASE_NFC, f"tap-check passport={summary.passport_no} visa={visa_id}")
    except (AuthError, NfcError, ValidationError) as exc:
        log(PHASE_NFC, f"nfc-failed {exc.code}")
        return lock_and_alert(channel, exc.code)

    # Phase 3: hand the airport cloud what the desk saw.
    digest = receive_desk_copy(airport_cloud, visa_id, image_bytes,
                               desk.checkpoint)
    log(PHASE_DESK_COPY, f"desk-copy-stored hash={digest[:16]}")

    # Phase 4: replica comparison.
    result = compare_visa(airport_cloud, visa_id, desk.checkpoint)
    log(PHASE_COMPARE, f"compare {result.value}")

    # Phase 5: outcome, stamping arrivals first.
    if result is not CompareResult.MATCH:
        return finish(Outcome.ISOLATE, f" compare={result.value}")
    if desk.checkpoint is Checkpoint.ARRIVAL:
        stamp = StampEntry(StampKind.ARRIVAL, desk.airport, clock.now)
        tap_stamp(channel, stamp)
        log(PHASE_STAMP, f"arrival-stamped at={stamp.stamped_at}")
    return finish(Outcome.PERMIT)
