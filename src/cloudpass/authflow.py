"""Layered sign-in for the passport app, plus one-time passwords.

Level 1 is a captcha plus the time shown on the device (which differs
from scenario UTC by the device's fixed clock offset), then username and
password. Level 2 is one of ten enrolled picture challenges. Only after
both levels does the visa page become visible to an NFC reader.

A session dies 600 seconds after activation no matter what happens in
between; activity never extends it. Expiry is checked before anything
else on every operation, and the boundary is closed: at exactly
``activated_at + 600`` the session is already expired.

The device holds its one current session. Sessions are immutable
snapshots: every operation takes the device, drives ``device.session``
and stores the replacement there before returning or raising, so a
snapshot kept from an earlier session drives nothing. A snapshot holds
only what its state awaits: the captcha, or the picture index. ``Session``,
``CaptchaChallenge`` and ``SessionState`` are records of ``model``, which
encodes a session inside its device; they are re-exported here.

A traveler who misses the picture challenge types the same answer until
the wall, so the picture check keeps the hash of each answer, given as
an exact ``str``, in an ``lru_cache`` under the memo rule of the
README's design notes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .errors import AuthError, ValidationError
from .model import (_CREDENTIALS_PENDING, _EXPIRED, _IMAGE_AUTH_PENDING,
                    _PASSPORT_VISIBLE, _TERMINATED, _TIME_AUTH_PENDING,
                    _VISA_VISIBLE, AUTH_IMAGE_COUNT, AuthImage,
                    CaptchaChallenge, DeviceState, Session, SessionState,
                    _check_text, clock_text, content_hash,
                    draw_below, draw_text, record)

__all__ = [
    "SESSION_TTL_S",
    "CAPTCHA_ALPHABET",
    "CAPTCHA_LENGTH",
    "OTP_DIGITS",
    "SessionState",
    "CaptchaChallenge",
    "Credential",
    "Session",
    "Otp",
    "OtpStore",
    "normalize_answer",
    "make_auth_image",
    "make_credential",
    "open_session",
    "check_timeout",
    "verify_time_auth",
    "verify_credentials",
    "begin_image_auth",
    "verify_image_answer",
    "issue_otp",
    "redeem_otp",
]

SESSION_TTL_S = 600

# No 0/O, 1/I/l lookalikes; challenges are typed back exactly as shown.
CAPTCHA_ALPHABET = "ABCDEFGHJKLMNPQRSTUVWXYZ23456789"
CAPTCHA_LENGTH = 6

OTP_DIGITS = 6

_TIME_RE = re.compile(r"([01][0-9]|2[0-3]):([0-5][0-9])")
_MINUTES_PER_DAY = 1440
_TIME_TOLERANCE_MIN = 1

# Answers the memo holds: a device has ten pictures, and a desk line a
# few devices.
_ANSWER_MEMO_SIZE = 64


@record
class Credential:
    """An enrolled user; the password is kept as a salted SHA-256."""

    username: str
    password_salt: bytes
    password_hash: str


@dataclass
class Otp:
    """Single-use code, keyed in the store by its transaction. ``used`` flips once."""

    code: str
    used: bool = False


class OtpStore:
    """Owns every live and spent OTP, keyed by transaction."""

    def __init__(self):
        self.by_transaction: dict[str, Otp] = {}

    def get(self, transaction_id: str) -> Otp | None:
        return self.by_transaction.get(transaction_id)


def normalize_answer(answer: str) -> str:
    """Lowercase, trim the ends, collapse internal whitespace runs."""
    return " ".join(answer.split()).lower()


def _hash_answer(answer: str) -> str:
    """SHA-256 of the normalized answer in UTF-8. Text that UTF-8 cannot
    hold is ``BAD_UTF8``."""
    text = normalize_answer(answer)
    _check_text(text)
    return content_hash(text.encode("utf-8"))


_kept_hash = lru_cache(maxsize=_ANSWER_MEMO_SIZE)(_hash_answer)


def make_auth_image(index: int, image_bytes: bytes, answer: str) -> AuthImage:
    return AuthImage(index, content_hash(image_bytes), _hash_answer(answer))


def _password_hash(salt: bytes, password: str) -> str:
    return hashlib.sha256(salt + password.encode("utf-8")).hexdigest()


def make_credential(username: str, password: str, rng) -> Credential:
    salt = rng.randbytes(16)
    return Credential(username, salt, _password_hash(salt, password))


def _password_matches(credential: Credential, password: str) -> bool:
    digest = _password_hash(credential.password_salt, password)
    return digest == credential.password_hash


# ---------------------------------------------------------------------------
# Session lifecycle


def open_session(device: DeviceState, now: int, rng) -> Session:
    """Start level 1. Terminates any session the device already had."""
    if device.locked:
        raise AuthError("DEVICE_LOCKED")
    if device.passport is None:
        raise AuthError("NO_PASSPORT_INSTALLED")
    try:
        session_id = f"s-{rng.getrandbits(32):08x}"
        captcha = CaptchaChallenge(
            f"c-{rng.getrandbits(32):08x}",
            draw_text(rng, CAPTCHA_ALPHABET, CAPTCHA_LENGTH),
            now)
        session = Session(session_id, _TIME_AUTH_PENDING,
                          activated_at=now, pending_captcha=captcha)
    except BaseException:
        # The new session replaces the old one; if it cannot be built,
        # the old one still ends.
        previous = device.session
        if previous is not None:
            device.session = Session(previous.session_id, _TERMINATED,
                                     previous.activated_at)
        raise
    device.session = session
    return session


def _past_wall(session: Session, now: int) -> bool:
    """The session wall, closed: at ``activated_at + SESSION_TTL_S`` the
    session is already over."""
    return now >= session.activated_at + SESSION_TTL_S


def check_timeout(session: Session, now: int) -> Session:
    """Expire a live session past its wall. EXPIRED and TERMINATED absorb."""
    state = session.state
    if state is _EXPIRED or state is _TERMINATED:
        return session
    if _past_wall(session, now):
        return Session(session.session_id, _EXPIRED,
                       session.activated_at)
    return session


def _gate(device: DeviceState, expected: SessionState, now: int) -> Session:
    """Expiry first, then the state precondition. A live session in the
    expected state is returned as it is; otherwise the refreshed snapshot
    is stored on the device and the step refused."""
    session = device.session
    if session is None:
        raise AuthError("WRONG_STATE", f"expected {expected.value}, got no session")
    if session.state is expected and not _past_wall(session, now):
        return session
    session = check_timeout(session, now)
    device.session = session
    state = session.state
    if state is _EXPIRED:
        raise AuthError("SESSION_EXPIRED")
    raise AuthError("WRONG_STATE", f"expected {expected.value}, got {state.value}")


def verify_time_auth(device: DeviceState, submitted_time: str,
                     captcha_answer: str, now: int) -> Session:
    """Level 1 step one: captcha text exactly, device-displayed time within
    one minute (24h clock, wrapping at midnight)."""
    session = _gate(device, _TIME_AUTH_PENDING, now)
    if captcha_answer != session.pending_captcha.text:
        raise AuthError("BAD_CAPTCHA")
    match = _TIME_RE.fullmatch(submitted_time)
    if not match:
        raise AuthError("BAD_TIME", f"not a 24h HH:MM time: {submitted_time!r}")
    submitted = int(match.group(1)) * 60 + int(match.group(2))
    shown = device.displayed_minutes(now)
    drift = abs(submitted - shown)
    if min(drift, _MINUTES_PER_DAY - drift) > _TIME_TOLERANCE_MIN:
        raise AuthError("BAD_TIME", f"device shows {clock_text(shown)}")
    session = Session(session.session_id, _CREDENTIALS_PENDING,
                      session.activated_at)
    device.session = session
    return session


def verify_credentials(device: DeviceState, username: str, password: str,
                       enrolled: Mapping[str, Credential], now: int) -> Session:
    """Level 1 step two: salted password check against the enrolled record."""
    session = _gate(device, _CREDENTIALS_PENDING, now)
    credential = enrolled.get(username)
    if credential is None or not _password_matches(credential, password):
        raise AuthError("BAD_CREDENTIALS")
    session = Session(session.session_id, _PASSPORT_VISIBLE,
                      session.activated_at)
    device.session = session
    return session


def begin_image_auth(device: DeviceState, rng, now: int) -> tuple[Session, int]:
    """Level 2: pick one of the ten enrolled pictures uniformly."""
    session = _gate(device, _PASSPORT_VISIBLE, now)
    index = draw_below(rng, AUTH_IMAGE_COUNT)
    session = Session(session.session_id, _IMAGE_AUTH_PENDING,
                      session.activated_at, pending_image_index=index)
    device.session = session
    return session, index


def verify_image_answer(device: DeviceState, answer: str, now: int) -> Session:
    """Compare the normalized answer hash for the prompted picture."""
    session = _gate(device, _IMAGE_AUTH_PENDING, now)
    expected = device.auth_images[session.pending_image_index]
    try:
        digest = (_kept_hash if answer.__class__ is str else _hash_answer)(answer)
    except ValidationError:     # no enrolled answer is text UTF-8 cannot hold
        digest = None
    if digest != expected.answer_hash:
        raise AuthError("BAD_ANSWER")
    session = Session(session.session_id, _VISA_VISIBLE,
                      session.activated_at)
    device.session = session
    return session


# ---------------------------------------------------------------------------
# One-time passwords


def issue_otp(store: OtpStore, transaction_id: str, rng) -> Otp:
    """Mint the single OTP for a transaction; reissue is a caller bug."""
    existing = store.get(transaction_id)
    if existing is not None and not existing.used:
        raise AuthError("OTP_ALREADY_ISSUED", transaction_id)
    otp = Otp(f"{draw_below(rng, 10 ** OTP_DIGITS):0{OTP_DIGITS}d}")
    store.by_transaction[transaction_id] = otp
    return otp


def redeem_otp(store: OtpStore, code: str, transaction_id: str) -> None:
    """Spend a code. Succeeds at most once per OTP; never revives a session."""
    otp = store.get(transaction_id)
    if otp is not None and otp.code == code:
        if otp.used:
            raise AuthError("OTP_ALREADY_USED")
        otp.used = True
        return
    if any(o.code == code for o in store.by_transaction.values()):
        raise AuthError("OTP_WRONG_TRANSACTION")
    raise AuthError("OTP_UNKNOWN")
