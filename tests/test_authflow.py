"""Layered session auth: time gate, credentials, image challenge, OTPs."""

import math
import random

import pytest

from cloudpass import authflow
from cloudpass.authflow import (OtpStore, SessionState, issue_otp,
                                make_credential, normalize_answer,
                                open_session, redeem_otp, check_timeout,
                                begin_image_auth, verify_credentials,
                                verify_image_answer, verify_time_auth)
from cloudpass.errors import AuthError

from conftest import build_kit

UTC_0630 = 6 * 3600 + 30 * 60


def fresh(offset_min=330):
    return build_kit(offset_min=offset_min)


def open_at(k, now):
    return open_session(k.device, now, k.rng)


def to_credentials_pending(k, now):
    s = open_at(k, now)
    return verify_time_auth(k.device, k.device.displayed_time(now),
                            s.pending_captcha.text, now)


def to_passport_visible(k, now):
    s = to_credentials_pending(k, now)
    return verify_credentials(k.device, k.username, k.password,
                              k.credentials, now)


# ---------------------------------------------------------------------------
# open_session


def test_open_session_initial_state():
    k = fresh()
    s = open_at(k, 1000)
    assert s.state is SessionState.TIME_AUTH_PENDING
    assert s.activated_at == 1000
    assert s.pending_captcha is not None


def test_open_session_locked_device():
    k = fresh()
    k.device.locked = True
    with pytest.raises(AuthError) as err:
        open_at(k, 0)
    assert err.value.code == "DEVICE_LOCKED"


def test_open_session_requires_passport():
    k = fresh()
    k.device.passport = None
    with pytest.raises(AuthError) as err:
        open_at(k, 0)
    assert err.value.code == "NO_PASSPORT_INSTALLED"


def test_open_session_terminates_previous():
    k = fresh()
    first = open_at(k, 0)
    open_at(k, 10)
    assert check_timeout(first, 10).state is SessionState.TIME_AUTH_PENDING
    # the device-side record of the first session was replaced, not kept
    assert k.device.session.session_id != first.session_id


def test_captcha_golden_seed_7():
    # Pinned from one run; guards the captcha alphabet and draw order.
    k = fresh()
    k.rng = random.Random(7)
    s = open_at(k, 1000)
    assert s.session_id == "s-52e6b438"
    assert s.pending_captcha.text == "K3DEGZ"


def test_captcha_alphabet_excludes_lookalikes():
    k = fresh()
    for _ in range(30):
        s = open_at(k, 0)
        assert not set(s.pending_captcha.text) & set("01OIl")
        assert len(s.pending_captcha.text) == 6


def test_stale_snapshot_cannot_drive_the_device():
    # Reopening replaces the device's session; the first one's captcha
    # no longer signs anything in, and the second session survives.
    k = fresh(offset_min=0)
    first = open_at(k, 0)
    second = open_at(k, 0)
    assert first.pending_captcha.text != second.pending_captcha.text
    with pytest.raises(AuthError) as err:
        verify_time_auth(k.device, k.device.displayed_time(0),
                         first.pending_captcha.text, 0)
    assert err.value.code == "BAD_CAPTCHA"
    assert k.device.session == second
    s = verify_time_auth(k.device, k.device.displayed_time(0),
                         second.pending_captcha.text, 0)
    assert s.session_id == second.session_id
    assert s.state is SessionState.CREDENTIALS_PENDING


@pytest.mark.parametrize("operation", [
    lambda k: verify_time_auth(k.device, "12:00", "ABCDEF", 0),
    lambda k: verify_credentials(k.device, k.username, k.password,
                                 k.credentials, 0),
    lambda k: begin_image_auth(k.device, k.rng, 0),
    lambda k: verify_image_answer(k.device, k.answers[0], 0),
], ids=["time", "credentials", "image-prompt", "image-answer"])
def test_device_without_session_is_wrong_state(operation):
    k = fresh()
    with pytest.raises(AuthError) as err:
        operation(k)
    assert err.value.code == "WRONG_STATE"
    assert k.device.session is None


# ---------------------------------------------------------------------------
# time auth


def test_time_auth_displayed_time_passes():
    k = fresh(offset_min=330)
    assert k.device.displayed_time(UTC_0630) == "12:00"
    s = open_at(k, UTC_0630)
    s = verify_time_auth(k.device, "12:00", s.pending_captcha.text, UTC_0630)
    assert s.state is SessionState.CREDENTIALS_PENDING


def test_time_auth_utc_fails_on_offset_device():
    k = fresh(offset_min=330)
    s = open_at(k, UTC_0630)
    with pytest.raises(AuthError) as err:
        verify_time_auth(k.device, "06:30", s.pending_captcha.text, UTC_0630)
    assert err.value.code == "BAD_TIME"
    assert k.device.session.state is SessionState.TIME_AUTH_PENDING


@pytest.mark.parametrize("submitted,ok", [
    ("11:59", True), ("12:00", True), ("12:01", True),
    ("11:58", False), ("12:02", False),
])
def test_time_auth_one_minute_tolerance(submitted, ok):
    k = fresh(offset_min=330)
    s = open_at(k, UTC_0630)
    if ok:
        verify_time_auth(k.device, submitted, s.pending_captcha.text, UTC_0630)
    else:
        with pytest.raises(AuthError) as err:
            verify_time_auth(k.device, submitted, s.pending_captcha.text,
                             UTC_0630)
        assert err.value.code == "BAD_TIME"


def test_time_auth_midnight_wrap():
    k = fresh(offset_min=0)
    near_midnight = 23 * 3600 + 59 * 60 + 30
    assert k.device.displayed_time(near_midnight) == "23:59"
    s = open_at(k, near_midnight)
    s = verify_time_auth(k.device, "00:00", s.pending_captcha.text,
                         near_midnight)
    assert s.state is SessionState.CREDENTIALS_PENDING


def test_time_auth_rejects_malformed_time():
    k = fresh(offset_min=0)
    # "00:00" is the displayed time; only its trailing newline is wrong.
    for bad in ("24:00", "3:5", "12:60", "noon", "", "00:00\n"):
        s = open_at(k, 0)
        with pytest.raises(AuthError) as err:
            verify_time_auth(k.device, bad, s.pending_captcha.text, 0)
        assert err.value.code == "BAD_TIME"


def test_time_auth_captcha_checked_first():
    k = fresh(offset_min=0)
    s = open_at(k, 0)
    with pytest.raises(AuthError) as err:
        verify_time_auth(k.device, "definitely wrong", "WRONG!", 0)
    assert err.value.code == "BAD_CAPTCHA"


def test_captcha_case_sensitive():
    k = fresh(offset_min=0)
    s = open_at(k, 0)
    lowered = s.pending_captcha.text.lower()
    assert lowered != s.pending_captcha.text
    with pytest.raises(AuthError) as err:
        verify_time_auth(k.device, k.device.displayed_time(0), lowered, 0)
    assert err.value.code == "BAD_CAPTCHA"


# ---------------------------------------------------------------------------
# credentials


def test_credentials_correct_pair():
    k = fresh()
    s = to_passport_visible(k, 0)
    assert s.state is SessionState.PASSPORT_VISIBLE


def test_credentials_wrong_password_state_unchanged():
    k = fresh()
    s = to_credentials_pending(k, 0)
    with pytest.raises(AuthError) as err:
        verify_credentials(k.device, k.username, "nope", k.credentials, 0)
    assert err.value.code == "BAD_CREDENTIALS"
    assert k.device.session.state is SessionState.CREDENTIALS_PENDING


def test_credentials_unknown_user():
    k = fresh()
    s = to_credentials_pending(k, 0)
    with pytest.raises(AuthError) as err:
        verify_credentials(k.device, "bob", k.password, k.credentials, 0)
    assert err.value.code == "BAD_CREDENTIALS"


def test_credentials_in_wrong_state():
    k = fresh()
    s = open_at(k, 0)
    with pytest.raises(AuthError) as err:
        verify_credentials(k.device, k.username, k.password, k.credentials, 0)
    assert err.value.code == "WRONG_STATE"


def test_credential_hashes_are_salted():
    rng = random.Random(0)
    a = make_credential("u", "pw", rng)
    b = make_credential("u", "pw", rng)
    assert a.password_salt != b.password_salt
    assert a.password_hash != b.password_hash


# ---------------------------------------------------------------------------
# image auth


def test_image_prompt_index_in_range():
    k = fresh()
    s = to_passport_visible(k, 0)
    s, index = begin_image_auth(k.device, k.rng, 0)
    assert 0 <= index <= 9
    assert s.state is SessionState.IMAGE_AUTH_PENDING
    assert s.pending_image_index == index


def test_image_prompts_cover_all_indices_seeded():
    rng = random.Random(2024)
    seen = {rng.randrange(10) for _ in range(10_000)}
    assert seen == set(range(10))


def test_image_prompt_sequence_deterministic():
    def draw_sequence():
        k = fresh()
        k.rng = random.Random(99)
        out = []
        for _ in range(20):
            s = to_passport_visible(k, 0)
            _, index = begin_image_auth(k.device, k.rng, 0)
            out.append(index)
        return out

    assert draw_sequence() == draw_sequence()


def test_image_prompt_frequency_window():
    n = 10_000
    rng = random.Random(7)
    counts = [0] * 10
    for _ in range(n):
        counts[rng.randrange(10)] += 1
    low = n / 10 - 4 * math.sqrt(n)
    high = n / 10 + 4 * math.sqrt(n)
    assert all(low <= c <= high for c in counts)


def test_image_answer_normalization():
    assert normalize_answer("  Eiffel   Tower ") == "eiffel tower"
    k = fresh()
    k.answers = ("eiffel tower",) * 10
    images = tuple(authflow.make_auth_image(i, bytes([i]), "eiffel tower")
                   for i in range(10))
    k.device.auth_images = images
    s = to_passport_visible(k, 0)
    s, _ = begin_image_auth(k.device, k.rng, 0)
    s = verify_image_answer(k.device, "  Eiffel   Tower ", 0)
    assert s.state is SessionState.VISA_VISIBLE


def test_image_answer_wrong():
    k = fresh()
    s = to_passport_visible(k, 0)
    s, _ = begin_image_auth(k.device, k.rng, 0)
    with pytest.raises(AuthError) as err:
        verify_image_answer(k.device, "louvre", 0)
    assert err.value.code == "BAD_ANSWER"
    assert k.device.session.state is SessionState.IMAGE_AUTH_PENDING


def test_image_answer_after_601_seconds_expired():
    k = fresh()
    s = to_passport_visible(k, 0)
    s, index = begin_image_auth(k.device, k.rng, 0)
    with pytest.raises(AuthError) as err:
        verify_image_answer(k.device, k.answers[index], 601)
    assert err.value.code == "SESSION_EXPIRED"


# ---------------------------------------------------------------------------
# timeout wall


def test_timeout_599_unchanged():
    k = fresh()
    s = open_at(k, 0)
    assert check_timeout(s, 599).state is SessionState.TIME_AUTH_PENDING


def test_timeout_600_expired():
    k = fresh()
    s = open_at(k, 0)
    assert check_timeout(s, 600).state is SessionState.EXPIRED


def test_timeout_terminated_absorbing():
    from dataclasses import replace
    k = fresh()
    s = open_at(k, 0)
    terminated = replace(s, state=SessionState.TERMINATED,
                         pending_captcha=None)
    assert check_timeout(terminated, 10**6).state is SessionState.TERMINATED
    expired = check_timeout(s, 10**6)
    assert expired.state is SessionState.EXPIRED
    assert check_timeout(expired, 10**7).state is SessionState.EXPIRED


def test_timeout_does_not_reset_on_activity():
    k = fresh()
    s = open_at(k, 0)
    s = verify_time_auth(k.device, k.device.displayed_time(590),
                         s.pending_captcha.text, 590)
    with pytest.raises(AuthError) as err:
        verify_credentials(k.device, k.username, k.password,
                           k.credentials, 600)
    assert err.value.code == "SESSION_EXPIRED"


# ---------------------------------------------------------------------------
# OTPs


def test_otp_issue_redeem_once():
    store, rng = OtpStore(), random.Random(0)
    otp = issue_otp(store, "tx-1", rng, 0)
    assert len(otp.code) == 6 and otp.code.isdigit()
    redeem_otp(store, otp.code, "tx-1")
    with pytest.raises(AuthError) as err:
        redeem_otp(store, otp.code, "tx-1")
    assert err.value.code == "OTP_ALREADY_USED"


def test_otp_unknown_code():
    store = OtpStore()
    with pytest.raises(AuthError) as err:
        redeem_otp(store, "000000", "tx-1")
    assert err.value.code == "OTP_UNKNOWN"


def test_otp_wrong_transaction():
    store, rng = OtpStore(), random.Random(0)
    otp = issue_otp(store, "tx-a", rng, 0)
    with pytest.raises(AuthError) as err:
        redeem_otp(store, otp.code, "tx-b")
    assert err.value.code == "OTP_WRONG_TRANSACTION"


def test_otp_reissue_over_live_code_rejected():
    store, rng = OtpStore(), random.Random(0)
    issue_otp(store, "tx-1", rng, 0)
    with pytest.raises(AuthError) as err:
        issue_otp(store, "tx-1", rng, 5)
    assert err.value.code == "OTP_ALREADY_ISSUED"


def test_otp_reissue_after_use_allowed():
    store, rng = OtpStore(), random.Random(0)
    first = issue_otp(store, "tx-1", rng, 0)
    redeem_otp(store, first.code, "tx-1")
    second = issue_otp(store, "tx-1", rng, 10)
    assert second.code != first.code or second.issued_at == 10


# ---------------------------------------------------------------------------
# full walk


def test_full_session_walk_to_visa_visible():
    k = fresh()
    now = UTC_0630
    s = open_at(k, now)
    s = verify_time_auth(k.device, "12:00", s.pending_captcha.text, now)
    s = verify_credentials(k.device, k.username, k.password,
                           k.credentials, now)
    s, index = begin_image_auth(k.device, k.rng, now)
    s = verify_image_answer(k.device, k.answers[index], now)
    assert s.state is SessionState.VISA_VISIBLE
    assert k.device.session.state is SessionState.VISA_VISIBLE
