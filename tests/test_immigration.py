"""Desk checks end to end: outcomes, transcripts, stamps, alerts."""

import random

import pytest

from cloudpass import authflow, immigration
from cloudpass.authflow import SessionState
from cloudpass.clouds import Checkpoint
from cloudpass.errors import AuthError, DeskError, NfcError, ValidationError
from cloudpass.immigration import (PHASE_AUTH, PHASE_COMPARE, PHASE_DESK_COPY,
                                   PHASE_NFC, PHASE_OUTCOME, PHASE_STAMP,
                                   PHASES, CheckTranscript, Outcome,
                                   TranscriptEvent, run_check)

from conftest import build_kit


def run(k, checkpoint=Checkpoint.DEPARTURE, airport_code="", **script_kw):
    desk = k.desk(checkpoint, airport_code)
    script = k.script(**script_kw)
    return run_check(desk, k.device, k.airport, script, k.clock, k.rng,
                     credentials=k.credentials, otp_store=k.otp_store)


def phases_of(transcript):
    return [e.phase for e in transcript.events]


# ---------------------------------------------------------------------------
# honest runs


def test_departure_permit_no_stamp():
    k = build_kit()
    transcript = run(k)
    assert transcript.outcome is Outcome.PERMIT
    assert k.device.passport.all_stamps() == []
    assert PHASE_STAMP not in phases_of(transcript)


def test_arrival_permit_stamps_at_phase_clock():
    k = build_kit()
    transcript = run(k, Checkpoint.ARRIVAL)
    assert transcript.outcome is Outcome.PERMIT
    stamps = k.device.passport.all_stamps()
    assert len(stamps) == 1
    stamp = stamps[0]
    assert stamp.kind.value == "ARRIVAL"
    assert stamp.airport == k.airport.airport
    stamp_events = [e for e in transcript.events if e.phase == PHASE_STAMP]
    assert len(stamp_events) == 1
    assert stamp_events[0].ts == stamp.stamped_at
    assert stamp.stamped_at == k.clock.now


def test_transcript_phase_order():
    k = build_kit()
    transcript = run(k, Checkpoint.ARRIVAL)
    order = {phase: i for i, phase in enumerate(PHASES)}
    indices = [order[p] for p in phases_of(transcript)]
    assert indices == sorted(indices)
    assert phases_of(transcript)[-1] == PHASE_OUTCOME
    assert phases_of(transcript).count(PHASE_OUTCOME) == 1


def test_transcript_timestamps_non_decreasing():
    k = build_kit()
    transcript = run(k)
    times = [e.ts for e in transcript.events]
    assert times == sorted(times)


def test_permit_implies_match_and_visa_visible():
    k = build_kit()
    transcript = run(k)
    details = " ".join(e.detail for e in transcript.events)
    assert "compare MATCH" in details
    assert k.device.session.state is SessionState.VISA_VISIBLE


def test_departure_then_arrival_two_desks():
    k = build_kit()
    assert run(k).outcome is Outcome.PERMIT
    k.clock.advance(3600)
    second = immigration.DeskCheck(Checkpoint.ARRIVAL, "BLR", "BLR-D2",
                                   k.clock.now)
    transcript = run_check(second, k.device, k.airport, k.script(), k.clock,
                           k.rng, credentials=k.credentials,
                           otp_store=k.otp_store)
    assert transcript.outcome is Outcome.PERMIT
    assert len(k.device.passport.all_stamps()) == 1


# ---------------------------------------------------------------------------
# isolation


def test_tampered_visa_isolates_with_mismatch():
    k = build_kit()
    image = k.device.visas[k.visa_id]
    flipped = bytearray(image.data)
    flipped[0] ^= 0xFF
    from cloudpass.model import VisaImage
    k.device.visas[k.visa_id] = VisaImage.of(bytes(flipped), image.media_type)
    transcript = run(k)
    assert transcript.outcome is Outcome.ISOLATE
    compare_events = [e for e in transcript.events if e.phase == PHASE_COMPARE]
    assert compare_events and "MISMATCH" in compare_events[0].detail
    assert not k.device.locked
    assert transcript.cause == (PHASE_COMPARE, "MISMATCH")


def test_unsynced_airport_isolates_not_found():
    k = build_kit(synced=False)
    transcript = run(k)
    assert transcript.outcome is Outcome.ISOLATE
    details = " ".join(e.detail for e in transcript.events)
    assert "NOT_FOUND" in details


def test_isolate_skips_arrival_stamp():
    k = build_kit(synced=False)
    transcript = run(k, Checkpoint.ARRIVAL)
    assert transcript.outcome is Outcome.ISOLATE
    assert k.device.passport.all_stamps() == []


# ---------------------------------------------------------------------------
# lock and alert


def test_image_failure_until_timeout_locks_and_alerts():
    k = build_kit()
    transcript = run(k, wrong_image_answer=True)
    assert transcript.outcome is Outcome.LOCK_AND_ALERT
    assert k.device.locked
    assert transcript.cause == (PHASE_NFC, "AUTH_NOT_COMPLETE")
    assert [e.detail for e in transcript.events if e.phase == PHASE_NFC][-2:] == [
        "lock-sent", "police-alerted reason=AUTH_NOT_COMPLETE"]


def test_wrong_time_script_locks():
    k = build_kit(offset_min=330)
    transcript = run(k, submit_utc_time=True)
    assert transcript.outcome is Outcome.LOCK_AND_ALERT
    assert k.device.locked


def test_a_tap_that_fails_but_not_on_a_lock_is_not_an_alert(monkeypatch):
    # lock_and_alert opens its own channel when the tap has none. A locked
    # device is alerted on; any other refusal there passes out of
    # run_check as raised, and nothing is locked.
    def out_of_range(device, distance_cm):
        raise NfcError("OUT_OF_RANGE", f"{distance_cm} cm")

    monkeypatch.setattr(immigration, "establish", out_of_range)
    k = build_kit()
    with pytest.raises(NfcError) as err:
        run(k)
    assert str(err.value) == "OUT_OF_RANGE: 5.0 cm"
    assert not k.device.locked


def test_lock_outcome_is_final_transcript_event():
    k = build_kit()
    transcript = run(k, wrong_image_answer=True)
    # The agent reopens the expired session once, then gives up.
    assert sum(e.detail.startswith("session-reopened")
               for e in transcript.events) == 1
    assert transcript.events[-1].phase == PHASE_OUTCOME
    assert transcript.events[-1].detail.startswith("LOCK_AND_ALERT")


def test_no_airport_cloud_is_misconfiguration():
    k = build_kit()
    desk = k.desk(Checkpoint.DEPARTURE)
    with pytest.raises(DeskError) as err:
        run_check(desk, k.device, None, k.script(), k.clock, k.rng,
                  credentials=k.credentials, otp_store=k.otp_store)
    assert err.value.code == "DESK_MISCONFIGURED"


# ---------------------------------------------------------------------------
# transcript validation


def _transcript(*entries, outcome=Outcome.PERMIT, cause=None):
    return CheckTranscript(tuple(TranscriptEvent(ts, phase, detail)
                                 for ts, (phase, detail) in enumerate(entries)),
                           outcome, cause)


_AUTH = (PHASE_AUTH, "credentials-ok")
_NFC = (PHASE_NFC, "otp-redeemed")
_PERMIT = (PHASE_OUTCOME, "PERMIT")
_LOCKED = (PHASE_OUTCOME, "LOCK_AND_ALERT cause=BAD_TIME")


def test_transcript_validate_accepts_protocol_order():
    _transcript(_AUTH, _AUTH, _NFC, (PHASE_COMPARE, "compare MATCH"),
                _PERMIT).validate()
    _transcript(_AUTH, _NFC, _LOCKED, outcome=Outcome.LOCK_AND_ALERT,
                cause=(PHASE_NFC, "BAD_TIME")).validate()


@pytest.mark.parametrize("entries,outcome,code", [
    ((_NFC, _AUTH, _PERMIT), Outcome.PERMIT, "PHASES_OUT_OF_ORDER"),
    # The outcome is the last phase, so one followed by anything else is
    # out of order before it is misplaced.
    ((_AUTH, _PERMIT, _NFC), Outcome.PERMIT, "PHASES_OUT_OF_ORDER"),
    ((), Outcome.PERMIT, "BAD_OUTCOME_EVENT"),
    ((_AUTH, _NFC), Outcome.PERMIT, "BAD_OUTCOME_EVENT"),
    ((_AUTH, _PERMIT, _PERMIT), Outcome.PERMIT, "BAD_OUTCOME_EVENT"),
    ((_AUTH, _PERMIT), Outcome.ISOLATE, "OUTCOME_DETAIL_MISMATCH"),
    ((_AUTH, (PHASE_OUTCOME, "ISOLATE compare=NOT_FOUND")), Outcome.PERMIT,
     "OUTCOME_DETAIL_MISMATCH"),
    ((("bogus", "x"), _PERMIT), Outcome.PERMIT, "UNKNOWN_PHASE"),
], ids=["out-of-order", "outcome-not-last", "empty", "no-outcome",
        "two-outcomes", "detail-names-other", "detail-names-isolate",
        "unknown-phase"])
def test_transcript_validate_rejects(entries, outcome, code):
    with pytest.raises(ValidationError) as err:
        _transcript(*entries, outcome=outcome).validate()
    assert err.value.code == code


@pytest.mark.parametrize("entry,outcome,cause,text", [
    (_LOCKED, Outcome.LOCK_AND_ALERT, None,
     "CAUSE_OUTCOME_MISMATCH: LOCK_AND_ALERT with cause None"),
    (_PERMIT, Outcome.PERMIT, (PHASE_NFC, "BAD_TIME"),
     "CAUSE_OUTCOME_MISMATCH: PERMIT with cause ('nfc', 'BAD_TIME')"),
    ((PHASE_OUTCOME, "ISOLATE compare=NOT_FOUND"), Outcome.ISOLATE, None,
     "CAUSE_OUTCOME_MISMATCH: ISOLATE with cause None"),
    # The line must be the rendering of the cause, not only name the outcome.
    (_LOCKED, Outcome.LOCK_AND_ALERT, (PHASE_NFC, "OTP_EXPIRED"),
     "OUTCOME_DETAIL_MISMATCH: LOCK_AND_ALERT cause=BAD_TIME"),
], ids=["lock-without-cause", "permit-with-cause", "isolate-without-cause",
        "line-names-other-cause"])
def test_transcript_cause_fits_outcome(entry, outcome, cause, text):
    with pytest.raises(ValidationError) as err:
        _transcript(_AUTH, entry, outcome=outcome, cause=cause).validate()
    assert str(err.value) == text


# ---------------------------------------------------------------------------
# retry semantics


def test_retry_after_isolate_gets_fresh_session():
    k = build_kit(synced=False)
    run(k)
    old_session = k.device.session
    session = authflow.open_session(k.device, k.clock.now, k.rng)
    assert session.state is SessionState.TIME_AUTH_PENDING
    assert session.session_id != old_session.session_id


def test_retry_after_lock_refused():
    k = build_kit()
    run(k, wrong_image_answer=True)
    with pytest.raises(AuthError) as err:
        authflow.open_session(k.device, k.clock.now, k.rng)
    assert err.value.code == "DEVICE_LOCKED"


def test_old_otp_dead_in_next_transaction():
    from cloudpass.authflow import redeem_otp
    k = build_kit()
    run(k)
    desk1_tx = f"BLR-D1@0"
    old = k.otp_store.get(desk1_tx)
    assert old is not None and old.used
    with pytest.raises(AuthError) as err:
        redeem_otp(k.otp_store, old.code, "BLR-D2@999")
    assert err.value.code in ("OTP_ALREADY_USED", "OTP_WRONG_TRANSACTION")


# ---------------------------------------------------------------------------
# replay and oversleep scripts


def test_replay_otp_rejected_then_fresh_succeeds():
    k = build_kit()
    run(k)
    stale = k.otp_store.get("BLR-D1@0").code
    k.clock.advance(3600)
    desk = immigration.DeskCheck(Checkpoint.DEPARTURE, "BLR", "BLR-D2",
                                 k.clock.now)
    transcript = run_check(desk, k.device, k.airport,
                           k.script(replay_otp=stale), k.clock, k.rng,
                           credentials=k.credentials, otp_store=k.otp_store)
    details = " ".join(e.detail for e in transcript.events)
    assert "otp-rejected" in details
    assert transcript.outcome is Outcome.PERMIT


def test_oversleep_expires_then_retry_permits():
    k = build_kit()
    transcript = run(k, oversleep_s=700)
    details = " ".join(e.detail for e in transcript.events)
    assert "SESSION_EXPIRED" in details or "session-opened" in details
    assert transcript.outcome is Outcome.PERMIT


# ---------------------------------------------------------------------------
# determinism


def test_identical_worlds_identical_transcripts():
    def transcript_bytes():
        k = build_kit(seed=5)
        k.rng = random.Random(123)
        t = run(k, Checkpoint.ARRIVAL)
        return repr([(e.ts, e.phase, e.detail) for e in t.events]
                    + [t.outcome.value])

    assert transcript_bytes() == transcript_bytes()
