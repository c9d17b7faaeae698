"""Simulated short-range link between a desk reader and a device.

The reader asks and the device answers: one request frame, then exactly
one reply frame, as in the reader-initiated half-duplex block exchange
of ISO/IEC 14443-4 and the NFC Forum Digital Protocol (the RF layer is
not simulated). Frames are the only way from the reader to the device:
``tap_check``, ``tap_stamp`` and ``send_lock`` encode a request and hand
it to ``answer``, the device's half, which alone reads the device's
session, passport and visas and sets its lock.

Frames are length-prefixed: one type tag byte, a 4-byte big-endian body
length, then the body. A request or reply body is a canonical record
encoding or empty. A refusal travels back as an ERROR frame whose body
is the device's refusal text in UTF-8, ``CODE`` or ``CODE: detail``,
and the reader raises it as NfcError with that same code and text.

A channel only comes into existence when the device is 0 to 15 cm away
(both ends inclusive) and unlocked; nothing outside that range ever
yields a channel object.

Tap semantics: a check requires the device session to have reached
VISA_VISIBLE, a stamp requires a prior successful check on the same
channel, and a lock command is idempotent and absorbing. The device
presents, and stamps, its lowest page that holds a visa, and takes a
stamp only while its session shows that visa. If the device
is locked through this channel, later taps report DEVICE_LOCKED; if it
went dark for any other reason mid-exchange, the channel is just stale.
The channel holds its device: a tap or a lock reaches no other.

A check tap repeats the same work at every desk until the traveler's
documents change, so each half keeps what it built, in a memo
(Michie, "'Memo' functions and machine learning", Nature 1968). The
rule for both: keyed by exact value, bounded, refusals never kept. The
device keeps the canonical body of its presentation under every value
the body is built from (the passport's seven summary fields, the shown
page's visa id and the visa image record) and wraps it in a new frame
on every reply. The reader keeps the presentation decoded from a body
and hands it out again only for a byte-identical body; it finds the
entry by the body's last 64 bytes (the image hash), so a lookup hashes
64 bytes, not the whole body. Each memo holds at most ``_MEMO_SIZE``
entries and drops its oldest when full. A serialise or decode that
refuses raises before anything is kept, so the next tap tries it again.
A hit returns the very value a fresh call would: records are immutable,
and the codec is a pure function of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import CloudPassError, NfcError
from .model import (_VISA_VISIBLE, DeviceState, StampEntry, VisaPresentation,
                    add_stamp, canonical_deserialize, canonical_serialize,
                    summarize)

__all__ = [
    "MAX_RANGE_CM",
    "FrameType",
    "NfcChannel",
    "encode_frame",
    "decode_frame",
    "answer",
    "establish",
    "tap_check",
    "tap_stamp",
    "send_lock",
]

MAX_RANGE_CM = 15.0

_HEADER_LEN = 5
# Entries each tap memo holds: a desk line of travelers, not a country.
_MEMO_SIZE = 16


class FrameType(IntEnum):
    CHECK_REQ = 0x01
    CHECK_RESP = 0x02
    STAMP_REQ = 0x03
    ACK = 0x04
    LOCK_CMD = 0x05
    ERROR = 0x7F


_FRAME_TYPES = {member.value: member for member in FrameType}


def encode_frame(frame_type: FrameType, body: bytes = b"") -> bytes:
    return bytes([frame_type]) + len(body).to_bytes(4, "big") + body


def decode_frame(data: bytes) -> tuple[FrameType, bytes]:
    """Parse exactly one frame; rejects unknown tags and bad lengths."""
    if len(data) < _HEADER_LEN:
        raise NfcError("TRUNCATED_FRAME", f"{len(data)} bytes")
    frame_type = _FRAME_TYPES.get(data[0])
    if frame_type is None:
        raise NfcError("UNKNOWN_FRAME_TYPE", f"{data[0]:#x}")
    length = int.from_bytes(data[1:5], "big")
    if len(data) != _HEADER_LEN + length:
        raise NfcError("BAD_FRAME_LENGTH",
                       f"declared {length}, got {len(data) - _HEADER_LEN}")
    return frame_type, data[5:]


# ---------------------------------------------------------------------------
# The device's half


def answer(device: DeviceState, request: bytes) -> bytes:
    """Answer one request frame with exactly one reply frame. Never
    raises: a refusal is the reply, as an ERROR frame."""
    try:
        frame_type, body = decode_frame(request)
        if frame_type is FrameType.STAMP_REQ:
            stamp = canonical_deserialize(body, StampEntry)
            passport, page, _ = _shown_visa(device)
            device.passport = add_stamp(passport, page.page_no, stamp)
            return encode_frame(FrameType.ACK)
        # The other two requests carry no body.
        if body or frame_type not in (FrameType.CHECK_REQ, FrameType.LOCK_CMD):
            raise NfcError("BAD_REQUEST", f"{frame_type.name} {len(body)} bytes")
        if frame_type is FrameType.LOCK_CMD:
            device.locked = True
            return encode_frame(FrameType.ACK)
        return encode_frame(FrameType.CHECK_RESP,
                            _presentation_body(*_shown_visa(device)))
    except CloudPassError as exc:
        return encode_frame(FrameType.ERROR, str(exc).encode())


_BODIES: dict[tuple, bytes] = {}


def _presentation_body(passport, page, image) -> bytes:
    """The canonical body of what the device shows, kept by every value
    it is built from. A float date equals an int one but does not
    encode, and bytearray image bytes cannot be hashed: such a body is
    built afresh every time."""
    issued, expires = passport.issue_date, passport.expiry_date
    exact = (type(issued) is int and type(expires) is int
             and type(image.data) is bytes)
    key = (passport.passport_no, passport.holder_name, passport.nationality,
           passport.issuing_authority, issued, expires, passport.status,
           page.visa_id, image)
    body = _BODIES.get(key) if exact else None
    if body is None:
        body = canonical_serialize(
            VisaPresentation(summarize(passport), page.visa_id, image))
        if exact:
            _keep(_BODIES, key, body)
    return body


def _keep(memo: dict, key, value) -> None:
    """Store ``value`` under ``key``, first dropping the oldest entry
    when ``memo`` is full."""
    if len(memo) >= _MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value


def _shown_visa(device: DeviceState):
    """The passport, its lowest page holding a visa, and that visa's
    image: what the device shows a reader, and the page it stamps, once
    the session has made the visa visible."""
    session = device.session
    if session is None or session.state is not _VISA_VISIBLE:
        raise NfcError("AUTH_NOT_COMPLETE")
    passport = device.passport
    if passport is None:
        raise NfcError("NO_PASSPORT_INSTALLED")
    page = next((p for p in passport.pages if p.visa_id is not None), None)
    if page is None:
        raise NfcError("NO_VISA_PLACED")
    image = device.visas.get(page.visa_id)
    if image is None:
        raise NfcError("VISA_NOT_ON_DEVICE", page.visa_id)
    return passport, page, image


# ---------------------------------------------------------------------------
# The reader's half


@dataclass
class NfcChannel:
    """A desk reader's link to one device within NFC range."""

    device: DeviceState
    distance_cm: float
    checked_visa_id: str | None = None
    lock_sent: bool = False

    def __post_init__(self):
        if not 0.0 <= self.distance_cm <= MAX_RANGE_CM:
            raise NfcError("OUT_OF_RANGE",
                           f"{self.distance_cm} cm not in [0.0, {MAX_RANGE_CM}] cm")


def establish(device: DeviceState, distance_cm: float) -> NfcChannel:
    """Bring the device into the field. Inclusive at 0.0 and 15.0 cm."""
    channel = NfcChannel(device, distance_cm)
    if device.locked:
        raise NfcError("DEVICE_LOCKED")
    return channel


def _guard_live(channel: NfcChannel) -> None:
    if channel.device.locked:
        # Locked over this channel: the reader knows why. Locked any other
        # way mid-exchange: the device just went dark.
        raise NfcError("DEVICE_LOCKED" if channel.lock_sent else "CHANNEL_STALE")


def _exchange(channel: NfcChannel, request: bytes, reply: FrameType) -> bytes:
    """Send one request frame and return the body of its ``reply`` frame.
    An ERROR reply is raised with the device's own code and text."""
    frame_type, body = decode_frame(answer(channel.device, request))
    if frame_type is FrameType.ERROR:
        raise NfcError(*body.decode(errors="backslashreplace").split(": ", 1))
    if frame_type is not reply:
        raise NfcError("UNEXPECTED_FRAME", frame_type.name)
    return body


def tap_check(channel: NfcChannel):
    """Desk reads the presented visa page.

    Returns ``(summary, visa_id, image)``; the decoded ``VisaImage``
    checked its bytes against its hash when it was built. The device
    picks the page: the one the traveler placed their visa on, not the
    reader.
    """
    _guard_live(channel)
    body = _exchange(channel, encode_frame(FrameType.CHECK_REQ), FrameType.CHECK_RESP)
    presented = _presentation(body)
    channel.checked_visa_id = presented.visa_id
    return presented.passport, presented.visa_id, presented.image


_PRESENTATIONS: dict[bytes, tuple[bytes, VisaPresentation]] = {}


def _presentation(body: bytes) -> VisaPresentation:
    """``body`` decoded, kept under its last 64 bytes with the body
    itself, which a later body must equal byte for byte."""
    fingerprint = body[-64:]
    kept = _PRESENTATIONS.get(fingerprint)
    if kept is not None and kept[0] == body:
        return kept[1]
    presented = canonical_deserialize(body, VisaPresentation)
    _keep(_PRESENTATIONS, fingerprint, (body, presented))
    return presented


def tap_stamp(channel: NfcChannel, stamp: StampEntry) -> None:
    """Write a border stamp onto the page that was just checked."""
    _guard_live(channel)
    if channel.checked_visa_id is None:
        raise NfcError("NO_PRIOR_CHECK")
    request = encode_frame(FrameType.STAMP_REQ, canonical_serialize(stamp))
    _exchange(channel, request, FrameType.ACK)


def send_lock(channel: NfcChannel) -> None:
    """Lock the channel's device. Idempotent; a locked device stays locked."""
    _exchange(channel, encode_frame(FrameType.LOCK_CMD), FrameType.ACK)
    channel.lock_sent = True
