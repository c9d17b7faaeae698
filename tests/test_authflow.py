"""Layered session auth: time gate, credentials, image challenge, OTPs."""

import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudpass import authflow
from cloudpass.authflow import (OtpStore, SessionState, issue_otp,
                                make_credential, normalize_answer,
                                open_session, redeem_otp, check_timeout,
                                begin_image_auth, verify_credentials,
                                verify_image_answer, verify_time_auth)
from cloudpass.errors import AuthError, NfcError, ValidationError
from cloudpass.model import DeviceState, Session, content_hash
from cloudpass.nfc import establish, tap_check
from cloudpass.simnet.cli import main as cli_main

from conftest import build_kit, open_visa_session

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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


class _FailingRng(random.Random):
    def getrandbits(self, k):
        raise RuntimeError("no entropy")


def test_a_reopen_that_cannot_draw_still_ends_the_previous_session():
    k = fresh()
    previous = open_visa_session(k, 0)
    with pytest.raises(RuntimeError):
        open_session(k.device, 10, _FailingRng())
    assert k.device.session == Session(previous.session_id,
                                       SessionState.TERMINATED, 0)
    with pytest.raises(NfcError) as err:
        tap_check(establish(k.device, 5.0))
    assert err.value.code == "AUTH_NOT_COMPLETE"


def test_a_reopen_builds_only_the_new_session(monkeypatch):
    # The previous session ends by being replaced; no TERMINATED copy of
    # it is built only to be overwritten.
    built = []
    validate = Session.validate

    def counted(session):
        built.append(session.state)
        validate(session)

    monkeypatch.setattr(Session, "validate", counted)
    k = fresh()
    open_at(k, 0)
    assert built == [SessionState.TIME_AUTH_PENDING]
    open_at(k, 10)
    assert built == [SessionState.TIME_AUTH_PENDING] * 2


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
    from cloudpass.model import replace
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
    otp = issue_otp(store, "tx-1", rng)
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
    otp = issue_otp(store, "tx-a", rng)
    with pytest.raises(AuthError) as err:
        redeem_otp(store, otp.code, "tx-b")
    assert err.value.code == "OTP_WRONG_TRANSACTION"


def test_otp_reissue_over_live_code_rejected():
    store, rng = OtpStore(), random.Random(0)
    issue_otp(store, "tx-1", rng)
    with pytest.raises(AuthError) as err:
        issue_otp(store, "tx-1", rng)
    assert err.value.code == "OTP_ALREADY_ISSUED"


def test_otp_reissue_after_use_allowed():
    store, rng = OtpStore(), random.Random(0)
    first = issue_otp(store, "tx-1", rng)
    redeem_otp(store, first.code, "tx-1")
    second = issue_otp(store, "tx-1", rng)
    assert store.get("tx-1") is second and not second.used


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


# ---------------------------------------------------------------------------
# refused steps: their text, the gate and the answer memo


def test_bad_time_text_names_the_time_the_device_shows():
    k = fresh(offset_min=330)
    s = open_at(k, UTC_0630)
    with pytest.raises(AuthError) as err:
        verify_time_auth(k.device, "06:30", s.pending_captcha.text, UTC_0630)
    assert str(err.value) == "BAD_TIME: device shows 12:00"
    with pytest.raises(AuthError) as err:
        verify_time_auth(k.device, "noon", s.pending_captcha.text, UTC_0630)
    assert str(err.value) == "BAD_TIME: not a 24h HH:MM time: 'noon'"


def test_gate_passes_a_live_session_untouched(monkeypatch):
    k = fresh()
    s = to_credentials_pending(k, 0)

    def never(session, now):
        raise AssertionError("a live session needs no timeout check")

    monkeypatch.setattr(authflow, "check_timeout", never)
    assert authflow._gate(k.device, SessionState.CREDENTIALS_PENDING, 599) is s


@pytest.mark.parametrize("now,code", [
    (599, None), (600, "SESSION_EXPIRED"), (601, "SESSION_EXPIRED")])
def test_gate_wall_is_closed(now, code):
    k = fresh()
    s = to_credentials_pending(k, 0)
    if code is None:
        s = verify_credentials(k.device, k.username, k.password,
                               k.credentials, now)
        assert s.state is SessionState.PASSPORT_VISIBLE
        return
    with pytest.raises(AuthError) as err:
        verify_credentials(k.device, k.username, k.password, k.credentials, now)
    assert err.value.code == code
    assert k.device.session.state is SessionState.EXPIRED
    assert k.device.session.session_id == s.session_id


def test_gate_stores_the_refreshed_session_on_a_wrong_state():
    k = fresh()
    to_credentials_pending(k, 0)
    with pytest.raises(AuthError) as err:
        begin_image_auth(k.device, k.rng, 10)
    assert str(err.value) == ("WRONG_STATE: expected PASSPORT_VISIBLE, "
                              "got CREDENTIALS_PENDING")
    assert k.device.session.state is SessionState.CREDENTIALS_PENDING


def test_an_answer_utf8_cannot_hold_is_a_coded_refusal():
    authflow._kept_hash.cache_clear()
    with pytest.raises(ValidationError) as err:
        authflow.make_auth_image(0, bytes(48), "a\ud800")
    assert str(err.value) == "BAD_UTF8: surrogates not allowed"
    k = fresh()
    to_passport_visible(k, 0)
    begin_image_auth(k.device, k.rng, 0)
    with pytest.raises(AuthError) as err:
        verify_image_answer(k.device, "a\ud800", 0)
    assert str(err.value) == "BAD_ANSWER"
    assert k.device.session.state is SessionState.IMAGE_AUTH_PENDING
    assert authflow._kept_hash.cache_info().currsize == 0


def test_an_answer_of_a_str_subclass_is_hashed_afresh_and_not_kept():
    class Answer(str):
        pass

    # Enrolled "memory 1" answers picture 1; (hits, misses) after each.
    authflow._kept_hash.cache_clear()
    for answer, counts in [(Answer("  Memory   1 "), (0, 0)),
                           ("memory 1", (0, 1)), ("memory 1", (1, 1))]:
        _MEMO_DEVICE.session = Session("s", SessionState.IMAGE_AUTH_PENDING,
                                       0, pending_image_index=1)
        assert verify_image_answer(_MEMO_DEVICE, answer, 0).state is \
            SessionState.VISA_VISIBLE
        assert authflow._kept_hash.cache_info()[:2] == counts


def _fresh_answer_hash(answer):
    """The hash an enrolled picture keeps for ``answer``, computed afresh;
    None when UTF-8 cannot hold it."""
    try:
        return content_hash(normalize_answer(answer).encode("utf-8"))
    except UnicodeEncodeError:
        return None


# More distinct answers than the memo holds, variants that normalise to
# one text, and text UTF-8 cannot hold.
_WORDS = [f"memory {n}" for n in range(authflow._ANSWER_MEMO_SIZE + 16)]
_ANSWERS = st.one_of(
    st.sampled_from(_WORDS),
    st.sampled_from(_WORDS).map(lambda w: f"  {w.upper()} "),
    st.sampled_from(_WORDS).map(lambda w: w.replace(" ", "\t\n ")),
    st.sampled_from(["a\ud800", "\udfff", "caf\u00e9 \ud83d", "caf\u00e9"]),
    st.text(max_size=4))

# Enrolled with the first ten words; each answer is given a session anew.
_MEMO_DEVICE = DeviceState("d", 0, tuple(
    authflow.make_auth_image(i, bytes([i]), _WORDS[i]) for i in range(10)))


@given(st.lists(_ANSWERS, min_size=authflow._ANSWER_MEMO_SIZE + 1, max_size=160))
def test_answer_memo_equals_fresh_hashes_property(answers):
    # Every refusal and every hash equals a fresh computation, and the memo
    # never holds more than its bound, nor an answer UTF-8 cannot hold.
    memo = authflow._kept_hash
    memo.cache_clear()
    images = _MEMO_DEVICE.auth_images
    device = _MEMO_DEVICE
    for n, answer in enumerate(answers):
        expected = _fresh_answer_hash(answer)
        assert _memo_hash(answer) == expected
        index = n % 10
        device.session = Session("s", SessionState.IMAGE_AUTH_PENDING, 0,
                                 pending_image_index=index)
        if expected == images[index].answer_hash:
            verify_image_answer(device, answer, 0)
            assert device.session.state is SessionState.VISA_VISIBLE
        else:
            with pytest.raises(AuthError) as err:
                verify_image_answer(device, answer, 0)
            assert str(err.value) == "BAD_ANSWER"
        assert memo.cache_info().currsize <= authflow._ANSWER_MEMO_SIZE
    hits = memo.cache_info().hits
    assert all(_memo_hash(a) is None for a in answers
               if _fresh_answer_hash(a) is None)
    assert memo.cache_info().hits == hits


def _memo_hash(answer):
    """``answer``'s hash through the memo; None when UTF-8 cannot hold it."""
    try:
        return authflow._kept_hash(answer)
    except ValidationError:
        return None


def test_a_lockout_run_hashes_its_wrong_answer_once(tmp_path):
    # The stubborn traveler of lockout.cps repeats one wrong answer until
    # both sessions hit the wall; with the memo emptied first, the answer
    # is hashed once (one miss) and every later refusal is a hit.
    authflow._kept_hash.cache_clear()
    report = tmp_path / "report.jsonl"
    assert cli_main(["run", "--scenario", str(SCENARIOS / "lockout.cps"),
                     "--report", str(report)]) == 0
    refusals = report.read_text(encoding="utf-8").count("auth-rejected BAD_ANSWER")
    assert refusals > 10
    assert authflow._kept_hash.cache_info()[:2] == (refusals - 1, 1)
