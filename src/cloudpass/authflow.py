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
snapshot kept from an earlier session drives nothing.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import AuthError
from .model import (AUTH_IMAGE_COUNT, AuthImage, DeviceState, content_hash,
                    fields_codec, register_codec)

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


class SessionState(Enum):
    TIME_AUTH_PENDING = "TIME_AUTH_PENDING"
    CREDENTIALS_PENDING = "CREDENTIALS_PENDING"
    PASSPORT_VISIBLE = "PASSPORT_VISIBLE"
    IMAGE_AUTH_PENDING = "IMAGE_AUTH_PENDING"
    VISA_VISIBLE = "VISA_VISIBLE"
    EXPIRED = "EXPIRED"
    TERMINATED = "TERMINATED"


@dataclass(frozen=True)
class CaptchaChallenge:
    challenge_id: str
    text: str
    issued_at: int


@dataclass(frozen=True)
class Credential:
    username: str
    password_salt: bytes
    password_hash: str


@dataclass(frozen=True)
class Session:
    session_id: str
    device_id: str
    state: SessionState
    activated_at: int
    pending_captcha: CaptchaChallenge | None = None
    pending_image_index: int | None = None


@dataclass
class Otp:
    """Single-use code bound to one desk transaction. ``used`` flips once."""

    code: str
    transaction_id: str
    issued_at: int
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
    return content_hash(normalize_answer(answer).encode("utf-8"))


def make_auth_image(index: int, image_bytes: bytes, answer: str) -> AuthImage:
    return AuthImage(index, content_hash(image_bytes), _hash_answer(answer))


def make_credential(username: str, password: str, rng) -> Credential:
    salt = rng.randbytes(16)
    return Credential(username, salt,
                      hashlib.sha256(salt + password.encode("utf-8")).hexdigest())


def _password_matches(credential: Credential, password: str) -> bool:
    digest = hashlib.sha256(credential.password_salt + password.encode("utf-8"))
    return digest.hexdigest() == credential.password_hash


# ---------------------------------------------------------------------------
# Session lifecycle


def open_session(device: DeviceState, now: int, rng) -> Session:
    """Start level 1. Terminates any session the device already had."""
    if device.locked:
        raise AuthError("DEVICE_LOCKED")
    if device.passport is None:
        raise AuthError("NO_PASSPORT_INSTALLED")
    previous = device.session
    if previous is not None:
        device.session = Session(previous.session_id, previous.device_id,
                                 SessionState.TERMINATED, previous.activated_at)
    session_id = f"s-{rng.getrandbits(32):08x}"
    captcha = CaptchaChallenge(
        f"c-{rng.getrandbits(32):08x}",
        "".join(rng.choice(CAPTCHA_ALPHABET) for _ in range(CAPTCHA_LENGTH)),
        now)
    session = Session(session_id, device.device_id, SessionState.TIME_AUTH_PENDING,
                      activated_at=now, pending_captcha=captcha)
    device.session = session
    return session


def check_timeout(session: Session, now: int) -> Session:
    """Expire a live session past its wall. EXPIRED and TERMINATED absorb."""
    if session.state in (SessionState.EXPIRED, SessionState.TERMINATED):
        return session
    if now >= session.activated_at + SESSION_TTL_S:
        return Session(session.session_id, session.device_id,
                       SessionState.EXPIRED, session.activated_at)
    return session


def _gate(device: DeviceState, expected: SessionState, now: int) -> Session:
    """Expiry first, then the state precondition. Failure raises; the
    refreshed snapshot is stored on the device either way."""
    if device.session is None:
        raise AuthError("WRONG_STATE", f"expected {expected.value}, got no session")
    session = check_timeout(device.session, now)
    device.session = session
    if session.state is SessionState.EXPIRED:
        raise AuthError("SESSION_EXPIRED")
    if session.state is not expected:
        raise AuthError("WRONG_STATE",
                        f"expected {expected.value}, got {session.state.value}")
    return session


def verify_time_auth(device: DeviceState, submitted_time: str,
                     captcha_answer: str, now: int) -> Session:
    """Level 1 step one: captcha text exactly, device-displayed time within
    one minute (24h clock, wrapping at midnight)."""
    session = _gate(device, SessionState.TIME_AUTH_PENDING, now)
    assert session.pending_captcha is not None
    if captcha_answer != session.pending_captcha.text:
        raise AuthError("BAD_CAPTCHA")
    match = _TIME_RE.fullmatch(submitted_time)
    if not match:
        raise AuthError("BAD_TIME", f"not a 24h HH:MM time: {submitted_time!r}")
    submitted = int(match.group(1)) * 60 + int(match.group(2))
    shown = device.displayed_minutes(now)
    drift = abs(submitted - shown)
    if min(drift, _MINUTES_PER_DAY - drift) > _TIME_TOLERANCE_MIN:
        raise AuthError("BAD_TIME", f"device shows {device.displayed_time(now)}")
    session = Session(session.session_id, session.device_id,
                      SessionState.CREDENTIALS_PENDING, session.activated_at,
                      None, session.pending_image_index)
    device.session = session
    return session


def verify_credentials(device: DeviceState, username: str, password: str,
                       enrolled: Mapping[str, Credential], now: int) -> Session:
    """Level 1 step two: salted password check against the enrolled record."""
    session = _gate(device, SessionState.CREDENTIALS_PENDING, now)
    credential = enrolled.get(username)
    if credential is None or not _password_matches(credential, password):
        raise AuthError("BAD_CREDENTIALS")
    session = Session(session.session_id, session.device_id,
                      SessionState.PASSPORT_VISIBLE, session.activated_at,
                      session.pending_captcha, session.pending_image_index)
    device.session = session
    return session


def begin_image_auth(device: DeviceState, rng, now: int) -> tuple[Session, int]:
    """Level 2: pick one of the ten enrolled pictures uniformly."""
    session = _gate(device, SessionState.PASSPORT_VISIBLE, now)
    index = rng.randrange(AUTH_IMAGE_COUNT)
    session = Session(session.session_id, session.device_id,
                      SessionState.IMAGE_AUTH_PENDING, session.activated_at,
                      session.pending_captcha, index)
    device.session = session
    return session, index


def verify_image_answer(device: DeviceState, answer: str, now: int) -> Session:
    """Compare the normalized answer hash for the prompted picture."""
    session = _gate(device, SessionState.IMAGE_AUTH_PENDING, now)
    assert session.pending_image_index is not None
    expected = device.auth_images[session.pending_image_index]
    if _hash_answer(answer) != expected.answer_hash:
        raise AuthError("BAD_ANSWER")
    session = Session(session.session_id, session.device_id,
                      SessionState.VISA_VISIBLE, session.activated_at,
                      session.pending_captcha)
    device.session = session
    return session


# ---------------------------------------------------------------------------
# One-time passwords


def issue_otp(store: OtpStore, transaction_id: str, rng, now: int) -> Otp:
    """Mint the single OTP for a transaction; reissue is a caller bug."""
    existing = store.get(transaction_id)
    if existing is not None and not existing.used:
        raise AuthError("OTP_ALREADY_ISSUED", transaction_id)
    otp = Otp(f"{rng.randrange(10 ** OTP_DIGITS):0{OTP_DIGITS}d}",
              transaction_id, now)
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


# ---------------------------------------------------------------------------
# Canonical encoding (device state embeds its session snapshot)


register_codec(CaptchaChallenge, 0x21, *fields_codec(CaptchaChallenge))
register_codec(Session, 0x22, *fields_codec(Session))
