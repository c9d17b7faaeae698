"""Short-range frames: proximity gate, check/stamp taps, remote lock, and
the device's and the reader's half of each exchange."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudpass import nfc
from cloudpass.errors import CloudPassError, NfcError
from cloudpass.model import (StampEntry, StampKind, canonical_deserialize,
                             canonical_serialize)
from cloudpass.nfc import (MAX_RANGE_CM, FrameType, NfcChannel, answer,
                           decode_frame, encode_frame, establish, send_lock,
                           tap_check, tap_stamp)

from conftest import build_kit, open_visa_session


def ready_kit():
    k = build_kit()
    open_visa_session(k)
    return k


# ---------------------------------------------------------------------------
# frames


def test_frame_layout():
    raw = encode_frame(FrameType.CHECK_REQ, b"abc")
    assert raw == b"\x01\x00\x00\x00\x03abc"
    assert decode_frame(raw) == (FrameType.CHECK_REQ, b"abc")


def test_frame_empty_body():
    raw = encode_frame(FrameType.ACK, b"")
    assert raw == b"\x04\x00\x00\x00\x00"


def test_frame_truncated_rejected():
    # shorter than the 5-byte header: truncated; header intact but body
    # short of the declared length: length mismatch
    with pytest.raises(NfcError) as err:
        decode_frame(b"\x01\x00\x00")
    assert err.value.code == "TRUNCATED_FRAME"
    raw = encode_frame(FrameType.CHECK_REQ, b"abcdef")
    with pytest.raises(NfcError) as err:
        decode_frame(raw[:-2])
    assert err.value.code == "BAD_FRAME_LENGTH"


def test_frame_unknown_type_rejected():
    with pytest.raises(NfcError) as err:
        decode_frame(b"\x09\x00\x00\x00\x00")
    assert err.value.code == "UNKNOWN_FRAME_TYPE"


def test_frame_length_mismatch_rejected():
    with pytest.raises(NfcError) as err:
        decode_frame(b"\x01\x00\x00\x00\x01ab")
    assert err.value.code == "BAD_FRAME_LENGTH"


def test_frame_every_tag_byte():
    # answer and the reader's _exchange compare frame types with ``is``,
    # so a known tag must decode to the member itself; the enum call is
    # the reference for which bytes are known.
    known = 0
    for tag in range(256):
        raw = bytes([tag]) + b"\x00\x00\x00\x00"
        try:
            member = FrameType(tag)
        except ValueError:
            with pytest.raises(NfcError) as err:
                decode_frame(raw)
            assert str(err.value) == f"UNKNOWN_FRAME_TYPE: {tag:#x}"
            continue
        known += 1
        frame_type, body = decode_frame(raw)
        assert frame_type is member
        assert body == b""
    assert known == len(FrameType) == 6


@given(st.sampled_from(list(FrameType)), st.binary(max_size=200))
def test_frame_round_trip_property(frame_type, body):
    assert decode_frame(encode_frame(frame_type, body)) == (frame_type, body)


# ---------------------------------------------------------------------------
# proximity gate


def test_establish_at_boundary():
    k = ready_kit()
    channel = establish(k.device, 15.0)
    assert channel.distance_cm == MAX_RANGE_CM


def test_establish_at_zero():
    k = ready_kit()
    assert establish(k.device, 0.0) is not None


@pytest.mark.parametrize("distance", [15.1, 16.0, 115.0, float("nan"),
                                      float("-inf"), -0.1])
def test_establish_beyond_range(distance):
    k = ready_kit()
    with pytest.raises(NfcError) as err:
        establish(k.device, distance)
    assert err.value.code == "OUT_OF_RANGE"


def test_establish_locked_device():
    k = ready_kit()
    k.device.locked = True
    with pytest.raises(NfcError) as err:
        establish(k.device, 5.0)
    assert err.value.code == "DEVICE_LOCKED"


def test_establish_out_of_range_refused_before_locked():
    k = ready_kit()
    k.device.locked = True
    with pytest.raises(NfcError) as err:
        establish(k.device, 15.1)
    assert err.value.code == "OUT_OF_RANGE"


def test_channel_never_exists_out_of_range():
    with pytest.raises(NfcError):
        NfcChannel("dev", 15.2)


# ---------------------------------------------------------------------------
# tap_check


def test_tap_check_returns_presented_visa():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    summary, visa_id, image = tap_check(channel)
    assert summary.passport_no == k.passport_no
    assert visa_id == k.visa_id
    assert image == k.device.visas[k.visa_id]
    assert channel.checked_visa_id == k.visa_id


def test_tap_check_requires_visa_visible():
    k = build_kit()  # no session at all
    channel = establish(k.device, 5.0)
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == "AUTH_NOT_COMPLETE"


def test_tap_check_requires_placed_visa():
    k = build_kit(visa_page=3)
    open_visa_session(k)
    # strip the visa placement by reinstalling a fresh passport
    from cloudpass.model import new_passport
    k.device.passport = new_passport(k.passport_no, k.username, "IN", "IN",
                                     0, 10**9)
    channel = establish(k.device, 5.0)
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == "NO_VISA_PLACED"


@pytest.mark.parametrize("remove,code", [
    (lambda k: setattr(k.device, "passport", None), "NO_PASSPORT_INSTALLED"),
    (lambda k: k.device.visas.clear(), "VISA_NOT_ON_DEVICE"),
], ids=["no-passport", "visa-missing"])
def test_tap_check_refuses_what_the_device_lacks(remove, code):
    k = ready_kit()
    channel = establish(k.device, 5.0)
    remove(k)
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == code


def test_tap_check_locked_before_any_lock_frame():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    k.device.locked = True  # exogenous lock mid-exchange
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == "CHANNEL_STALE"


# ---------------------------------------------------------------------------
# tap_stamp


def test_tap_stamp_after_check():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    tap_check(channel)
    tap_stamp(channel, StampEntry(StampKind.ARRIVAL, "JFK", 7200))
    stamps = k.device.passport.page(k.visa_page).stamps
    assert StampEntry(StampKind.ARRIVAL, "JFK", 7200) in stamps


def test_tap_stamp_without_check():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    with pytest.raises(NfcError) as err:
        tap_stamp(channel, StampEntry(StampKind.ARRIVAL, "JFK", 0))
    assert err.value.code == "NO_PRIOR_CHECK"


def test_tap_stamp_out_of_order_rejected():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    tap_check(channel)
    tap_stamp(channel, StampEntry(StampKind.DEPARTURE, "BLR", 100))
    with pytest.raises(NfcError) as err:
        tap_stamp(channel, StampEntry(StampKind.ARRIVAL, "JFK", 50))
    assert err.value.code == "STAMP_OUT_OF_ORDER"


# ---------------------------------------------------------------------------
# lock


def test_send_lock_idempotent():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    send_lock(channel)
    assert k.device.locked
    send_lock(channel)
    assert k.device.locked


def test_lock_reaches_only_the_channels_device():
    alice, bob = ready_kit(), ready_kit()
    channel = establish(alice.device, 5.0)
    assert channel.device is alice.device
    send_lock(channel)
    assert alice.device.locked
    assert not bob.device.locked


def test_tap_check_after_lock_is_device_locked():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    send_lock(channel)
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == "DEVICE_LOCKED"


def test_lock_blocks_new_channels():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    send_lock(channel)
    with pytest.raises(NfcError) as err:
        establish(k.device, 5.0)
    assert err.value.code == "DEVICE_LOCKED"


# ---------------------------------------------------------------------------
# the device's half: one request frame in, one reply frame out

_READY_DEVICE = canonical_serialize(ready_kit().device)


def _well_formed_write(request: bytes) -> bool:
    """A LOCK_CMD with no body, or a STAMP_REQ whose body is a stamp."""
    try:
        frame_type, body = decode_frame(request)
        if frame_type is FrameType.LOCK_CMD:
            return not body
        return (frame_type is FrameType.STAMP_REQ
                and type(canonical_deserialize(body)) is StampEntry)
    except CloudPassError:
        return False


_STAMPS = st.builds(StampEntry, st.sampled_from(StampKind), st.just("JFK"),
                    st.integers(0, 10**9))


@given(st.one_of(
    st.binary(max_size=64),
    st.builds(encode_frame, st.sampled_from(FrameType), st.binary(max_size=64)),
    st.builds(encode_frame, st.sampled_from(FrameType)),
    st.builds(lambda s: encode_frame(FrameType.STAMP_REQ, canonical_serialize(s)),
              _STAMPS)))
def test_answer_replies_with_one_frame_to_any_request(request):
    device = canonical_deserialize(_READY_DEVICE)
    reply_type, body = decode_frame(answer(device, request))
    assert reply_type in (FrameType.CHECK_RESP, FrameType.ACK, FrameType.ERROR)
    if reply_type is FrameType.ERROR:
        assert re.fullmatch(r"[A-Z][A-Z0-9_]*(: .+)?", body.decode(), re.S)
    if not _well_formed_write(request):
        assert canonical_serialize(device) == _READY_DEVICE


@pytest.mark.parametrize("request_frame,code", [
    (b"\x01\x00", "TRUNCATED_FRAME"),
    (encode_frame(FrameType.CHECK_RESP), "BAD_REQUEST"),
    (encode_frame(FrameType.ERROR, b"AUTH_NOT_COMPLETE"), "BAD_REQUEST"),
    (encode_frame(FrameType.CHECK_REQ, b"V1"), "BAD_REQUEST"),
    (encode_frame(FrameType.LOCK_CMD, b"\x00"), "BAD_REQUEST"),
    (encode_frame(FrameType.STAMP_REQ, b""), "TRUNCATED_ENCODING"),
    (encode_frame(FrameType.STAMP_REQ,
                  canonical_serialize(ready_kit().device.passport)),
     "WRONG_RECORD_TYPE"),
], ids=["truncated", "reply-as-request", "error-as-request", "check-body",
        "lock-body", "stamp-empty", "stamp-not-a-stamp"])
def test_answer_refuses_with_an_error_frame(request_frame, code):
    device = canonical_deserialize(_READY_DEVICE)
    reply_type, body = decode_frame(answer(device, request_frame))
    assert reply_type is FrameType.ERROR
    assert body.decode().split(": ")[0] == code
    assert canonical_serialize(device) == _READY_DEVICE


def test_device_stamps_only_a_visa_it_shows():
    k = ready_kit()
    channel = establish(k.device, 5.0)
    tap_check(channel)
    k.device.session = None
    with pytest.raises(NfcError) as err:
        tap_stamp(channel, StampEntry(StampKind.ARRIVAL, "JFK", 7200))
    assert err.value.code == "AUTH_NOT_COMPLETE"
    assert not k.device.passport.page(k.visa_page).stamps


# ---------------------------------------------------------------------------
# the reader's half against a scripted device


def _checked_channel():
    channel = establish(ready_kit().device, 5.0)
    channel.checked_visa_id = "V1"
    return channel


_TAPS = {
    "check": tap_check,
    "stamp": lambda c: tap_stamp(c, StampEntry(StampKind.ARRIVAL, "JFK", 0)),
    "lock": send_lock,
}


@pytest.mark.parametrize("tap", _TAPS.values(), ids=_TAPS.keys())
def test_reader_raises_the_devices_error_text(monkeypatch, tap):
    monkeypatch.setattr(nfc, "answer", lambda device, request: encode_frame(
        FrameType.ERROR, b"VISA_NOT_ON_DEVICE: V1"))
    with pytest.raises(NfcError) as err:
        tap(_checked_channel())
    assert err.value.code == "VISA_NOT_ON_DEVICE"
    assert str(err.value) == "VISA_NOT_ON_DEVICE: V1"


@pytest.mark.parametrize("tap", _TAPS.values(), ids=_TAPS.keys())
@pytest.mark.parametrize("reply,code", [
    (b"\x02\x00\x00", "TRUNCATED_FRAME"),
    (b"\x09\x00\x00\x00\x00", "UNKNOWN_FRAME_TYPE"),
    (encode_frame(FrameType.CHECK_REQ), "UNEXPECTED_FRAME"),
], ids=["truncated", "unknown-type", "request-as-reply"])
def test_reader_refuses_a_malformed_reply(monkeypatch, tap, reply, code):
    monkeypatch.setattr(nfc, "answer", lambda device, request: reply)
    with pytest.raises(NfcError) as err:
        tap(_checked_channel())
    assert err.value.code == code

