"""Short-range frames: proximity gate, check/stamp taps, remote lock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudpass.errors import NfcError, ValidationError
from cloudpass.model import StampEntry, StampKind, content_hash
from cloudpass.nfc import (MAX_RANGE_CM, Frame, FrameType, NfcChannel,
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
    frame = Frame(FrameType.CHECK_REQ, b"abc")
    raw = encode_frame(frame)
    assert raw == b"\x01\x00\x00\x00\x03abc"
    assert decode_frame(raw) == frame


def test_frame_empty_body():
    raw = encode_frame(Frame(FrameType.STAMP_ACK, b""))
    assert raw == b"\x04\x00\x00\x00\x00"


def test_frame_truncated_rejected():
    # shorter than the 5-byte header: truncated; header intact but body
    # short of the declared length: length mismatch
    with pytest.raises(NfcError) as err:
        decode_frame(b"\x01\x00\x00")
    assert err.value.code == "TRUNCATED_FRAME"
    raw = encode_frame(Frame(FrameType.CHECK_REQ, b"abcdef"))
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


@given(st.sampled_from(list(FrameType)), st.binary(max_size=200))
def test_frame_round_trip_property(frame_type, body):
    frame = Frame(frame_type, body)
    assert decode_frame(encode_frame(frame)) == frame


# ---------------------------------------------------------------------------
# proximity gate


def test_establish_at_boundary():
    k = ready_kit()
    channel = establish("reader-1", k.device, 15.0, k.clock.now)
    assert channel.distance_cm == MAX_RANGE_CM


def test_establish_at_zero():
    k = ready_kit()
    assert establish("reader-1", k.device, 0.0, 0) is not None


@pytest.mark.parametrize("distance", [15.1, 16.0, 115.0])
def test_establish_beyond_range(distance):
    k = ready_kit()
    with pytest.raises(NfcError) as err:
        establish("reader-1", k.device, distance, 0)
    assert err.value.code == "OUT_OF_RANGE"


def test_establish_locked_device():
    k = ready_kit()
    k.device.locked = True
    with pytest.raises(NfcError) as err:
        establish("reader-1", k.device, 5.0, 0)
    assert err.value.code == "DEVICE_LOCKED"


def test_establish_out_of_range_refused_before_locked():
    k = ready_kit()
    k.device.locked = True
    with pytest.raises(NfcError) as err:
        establish("reader-1", k.device, 15.1, 0)
    assert err.value.code == "OUT_OF_RANGE"


def test_channel_never_exists_out_of_range():
    with pytest.raises(NfcError):
        NfcChannel("reader-1", "dev", 15.2, 0)


# ---------------------------------------------------------------------------
# tap_check


def test_tap_check_returns_presented_visa():
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, k.clock.now)
    summary, visa_id, image_bytes = tap_check(channel)
    assert summary.passport_no == k.passport_no
    assert visa_id == k.visa_id
    assert content_hash(image_bytes) == k.device.visas[k.visa_id].content_hash
    assert channel.checked_visa_id == k.visa_id


def test_tap_check_requires_visa_visible():
    k = build_kit()  # no session at all
    channel = establish("reader-1", k.device, 5.0, 0)
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
    channel = establish("reader-1", k.device, 5.0, 0)
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == "NO_VISA_PLACED"


@pytest.mark.parametrize("remove,code", [
    (lambda k: setattr(k.device, "passport", None), "NO_PASSPORT_INSTALLED"),
    (lambda k: k.device.visas.clear(), "VISA_NOT_ON_DEVICE"),
], ids=["no-passport", "visa-missing"])
def test_tap_check_refuses_what_the_device_lacks(remove, code):
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, 0)
    remove(k)
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == code


def test_tap_check_locked_before_any_lock_frame():
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, 0)
    k.device.locked = True  # exogenous lock mid-exchange
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == "CHANNEL_STALE"


# ---------------------------------------------------------------------------
# tap_stamp


def test_tap_stamp_after_check():
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, 0)
    tap_check(channel)
    ack = tap_stamp(channel, StampEntry(StampKind.ARRIVAL, "JFK", 7200))
    assert ack.type_tag is FrameType.STAMP_ACK
    stamps = k.device.passport.page(k.visa_page).stamps
    assert StampEntry(StampKind.ARRIVAL, "JFK", 7200) in stamps


def test_tap_stamp_without_check():
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, 0)
    with pytest.raises(NfcError) as err:
        tap_stamp(channel, StampEntry(StampKind.ARRIVAL, "JFK", 0))
    assert err.value.code == "NO_PRIOR_CHECK"


def test_tap_stamp_out_of_order_rejected():
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, 0)
    tap_check(channel)
    tap_stamp(channel, StampEntry(StampKind.DEPARTURE, "BLR", 100))
    with pytest.raises(ValidationError) as err:
        tap_stamp(channel, StampEntry(StampKind.ARRIVAL, "JFK", 50))
    assert err.value.code == "STAMP_OUT_OF_ORDER"


# ---------------------------------------------------------------------------
# lock


def test_send_lock_idempotent():
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, 0)
    first = send_lock(channel)
    assert first.type_tag is FrameType.LOCK_CMD
    assert k.device.locked
    second = send_lock(channel)
    assert second.type_tag is FrameType.LOCK_CMD
    assert k.device.locked


def test_lock_reaches_only_the_channels_device():
    alice, bob = ready_kit(), ready_kit()
    channel = establish("reader-1", alice.device, 5.0, 0)
    assert channel.device is alice.device
    send_lock(channel)
    assert alice.device.locked
    assert not bob.device.locked


def test_tap_check_after_lock_is_device_locked():
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, 0)
    send_lock(channel)
    with pytest.raises(NfcError) as err:
        tap_check(channel)
    assert err.value.code == "DEVICE_LOCKED"


def test_lock_blocks_new_channels():
    k = ready_kit()
    channel = establish("reader-1", k.device, 5.0, 0)
    send_lock(channel)
    with pytest.raises(NfcError) as err:
        establish("reader-2", k.device, 5.0, 0)
    assert err.value.code == "DEVICE_LOCKED"
