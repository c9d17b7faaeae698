"""Simulated short-range link between a desk reader and a device.

Frames are length-prefixed: one type tag byte, a 4-byte big-endian body
length, then the body, which is always a canonical record encoding (or
empty). A channel only comes into existence when the device is inside
the 15 cm range and unlocked; the range check is inclusive at exactly
15.0 and nothing beyond it ever yields a channel object.

Tap semantics: a check requires the device session to have reached
VISA_VISIBLE, a stamp requires a prior successful check on the same
channel, and a lock command is idempotent and absorbing. If the device
is locked through this channel, later taps report DEVICE_LOCKED; if it
went dark for any other reason mid-exchange, the channel is just stale.
The channel holds its device: a tap or a lock reaches no other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .authflow import SessionState
from .errors import NfcError
from .model import (DeviceState, StampEntry, VisaPresentation, add_stamp,
                    canonical_deserialize, canonical_serialize, summarize)

__all__ = [
    "MAX_RANGE_CM",
    "FrameType",
    "Frame",
    "NfcChannel",
    "encode_frame",
    "decode_frame",
    "establish",
    "tap_check",
    "tap_stamp",
    "send_lock",
]

MAX_RANGE_CM = 15.0

_HEADER_LEN = 5


class FrameType(IntEnum):
    CHECK_REQ = 0x01
    CHECK_RESP = 0x02
    STAMP_REQ = 0x03
    STAMP_ACK = 0x04
    LOCK_CMD = 0x05
    ERROR = 0x7F


@dataclass(frozen=True)
class Frame:
    type_tag: FrameType
    body: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "body", bytes(self.body))

    @property
    def length(self) -> int:
        return len(self.body)


def encode_frame(frame: Frame) -> bytes:
    return bytes([frame.type_tag]) + frame.length.to_bytes(4, "big") + frame.body


def decode_frame(data: bytes) -> Frame:
    """Parse exactly one frame; rejects unknown tags and bad lengths."""
    if len(data) < _HEADER_LEN:
        raise NfcError("TRUNCATED_FRAME", f"{len(data)} bytes")
    tag = data[0]
    try:
        frame_type = FrameType(tag)
    except ValueError:
        raise NfcError("UNKNOWN_FRAME_TYPE", f"{tag:#x}") from None
    length = int.from_bytes(data[1:5], "big")
    if len(data) != _HEADER_LEN + length:
        raise NfcError("BAD_FRAME_LENGTH",
                       f"declared {length}, got {len(data) - _HEADER_LEN}")
    return Frame(frame_type, data[5:])


@dataclass
class NfcChannel:
    reader_id: str
    device: DeviceState
    distance_cm: float
    established_at: int
    checked_visa_id: str | None = None
    lock_sent: bool = False

    def __post_init__(self):
        if self.distance_cm > MAX_RANGE_CM:
            raise NfcError("OUT_OF_RANGE",
                           f"{self.distance_cm} cm > {MAX_RANGE_CM} cm")


def establish(reader_id: str, device: DeviceState, distance_cm: float,
              now: int) -> NfcChannel:
    """Bring the device into the field. Inclusive at exactly 15.0 cm."""
    channel = NfcChannel(reader_id, device, distance_cm, now)
    if device.locked:
        raise NfcError("DEVICE_LOCKED")
    return channel


def _guard_live(channel: NfcChannel) -> DeviceState:
    if channel.device.locked:
        # Locked over this channel: the reader knows why. Locked any other
        # way mid-exchange: the device just went dark.
        raise NfcError("DEVICE_LOCKED" if channel.lock_sent else "CHANNEL_STALE")
    return channel.device


def tap_check(channel: NfcChannel):
    """Desk reads the presented visa page.

    Returns ``(summary, visa_id, image_bytes)``. The device picks the
    page: the one the traveler placed their visa on, not the reader.
    """
    device = _guard_live(channel)
    session = device.session
    if session is None or session.state is not SessionState.VISA_VISIBLE:
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

    request = decode_frame(encode_frame(Frame(FrameType.CHECK_REQ)))
    assert request.type_tag is FrameType.CHECK_REQ
    body = canonical_serialize(VisaPresentation(summarize(passport),
                                                page.visa_id, image))
    response = decode_frame(encode_frame(Frame(FrameType.CHECK_RESP, body)))
    presented = canonical_deserialize(response.body)
    channel.checked_visa_id = presented.visa_id
    return presented.passport, presented.visa_id, presented.image.data


def tap_stamp(channel: NfcChannel, stamp: StampEntry) -> Frame:
    """Write a border stamp onto the page that was just checked."""
    device = _guard_live(channel)
    if channel.checked_visa_id is None:
        raise NfcError("NO_PRIOR_CHECK")
    passport = device.passport
    page = next(p for p in passport.pages
                if p.visa_id == channel.checked_visa_id)
    request = decode_frame(encode_frame(Frame(FrameType.STAMP_REQ,
                                              canonical_serialize(stamp))))
    device.passport = add_stamp(passport, page.page_no,
                                canonical_deserialize(request.body))
    return decode_frame(encode_frame(Frame(FrameType.STAMP_ACK)))


def send_lock(channel: NfcChannel) -> Frame:
    """Lock the channel's device. Idempotent; a locked device stays locked."""
    command = decode_frame(encode_frame(Frame(FrameType.LOCK_CMD)))
    channel.device.locked = True
    channel.lock_sent = True
    return command
