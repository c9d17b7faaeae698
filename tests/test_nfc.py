"""Short-range frames: proximity gate, check/stamp taps, remote lock, and
the device's and the reader's half of each exchange."""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudpass import nfc
from cloudpass.errors import CloudPassError, NfcError
from cloudpass.model import (DeviceState, StampEntry, StampKind, VisaImage,
                             VisaPresentation, canonical_deserialize,
                             canonical_serialize, new_passport, place_visa,
                             replace, summarize)
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



# ---------------------------------------------------------------------------
# the tap memos: a kept body or presentation is the one a fresh codec
# call gives, for every device, in any order


_IMAGES = tuple(VisaImage.of(random.Random(n).randbytes(4096)) for n in range(20))
_READY = canonical_deserialize(_READY_DEVICE)


def _device(passport_no="P1", holder="alice", visa_id="V1", image=0, issued=0):
    """A device showing ``visa_id`` on page 1, with ``_IMAGES[image]`` or
    with ``image`` itself when it is a ``VisaImage``."""
    device = DeviceState(_READY.device_id, _READY.clock_offset_min,
                         _READY.auth_images, session=_READY.session)
    if not isinstance(image, VisaImage):
        image = _IMAGES[image]
    device.visas = {visa_id: image}
    passport = new_passport(passport_no, holder, "IN", "IN", issued, 10**9)
    device.passport = place_visa(passport, visa_id, 1, device.visas)
    return device


def _fresh_body(device) -> bytes:
    (visa_id, image), = device.visas.items()
    return canonical_serialize(
        VisaPresentation(summarize(device.passport), visa_id, image))


def _tap_both_halves(device) -> bytes:
    """Tap ``device`` through its half and through the reader's; check
    each against a fresh codec call and return the reply body."""
    body = _fresh_body(device)
    assert answer(device, encode_frame(FrameType.CHECK_REQ)) == encode_frame(
        FrameType.CHECK_RESP, body)
    assert VisaPresentation(*tap_check(establish(device, 5.0))) == \
        canonical_deserialize(body, VisaPresentation)
    assert len(nfc._BODIES) <= nfc._MEMO_SIZE
    assert len(nfc._PRESENTATIONS) <= nfc._MEMO_SIZE
    return body


# Few values a field, so devices that differ in one field only are common.
_SPECS = st.tuples(st.sampled_from(("P1", "P2")),
                   st.sampled_from(("alice", "bob", "carol")),
                   st.sampled_from(("V1", "V2")),
                   st.integers(0, len(_IMAGES) - 1), st.integers(0, 3))


@given(st.lists(_SPECS, min_size=nfc._MEMO_SIZE + 1,
                max_size=2 * nfc._MEMO_SIZE, unique=True), st.randoms())
def test_memoised_taps_equal_fresh_codec_calls(specs, rnd):
    # More distinct devices than a memo holds, each tapped twice in a
    # random interleaving, so kept entries are both hit and evicted.
    devices = [_device(*spec) for spec in specs]
    order = devices * 2
    rnd.shuffle(order)
    for device in order:
        _tap_both_halves(device)


def test_same_passport_number_different_holders_get_their_own_bytes():
    alice, bob = _device(holder="alice"), _device(holder="bob")
    for device, holder in [(alice, "alice"), (bob, "bob")] * 2:
        body = _tap_both_halves(device)
        assert canonical_deserialize(body).passport.holder_name == holder


def test_a_new_image_on_the_same_page_is_presented():
    # As a tampered visa is: same passport, page and visa id.
    device = _device(image=0)
    _tap_both_halves(device)
    device.visas = {"V1": _IMAGES[1]}
    assert tap_check(establish(device, 5.0))[2] == _IMAGES[1]


def test_the_memos_never_grow_past_their_bound():
    for n in range(3 * nfc._MEMO_SIZE):
        image = VisaImage.of(n.to_bytes(4, "big") * 1024)
        _tap_both_halves(_device(passport_no=f"P{n}", image=image))
    assert len(nfc._BODIES) == len(nfc._PRESENTATIONS) == nfc._MEMO_SIZE


def test_a_refused_body_is_refused_again_after_its_valid_twin(monkeypatch):
    # The twin differs in one image byte, not in the hash that ends the
    # body, so both share the reader's lookup key.
    device = _device()
    body = _tap_both_halves(device)
    i = body.index(_IMAGES[0].data) + 7
    twin = body[:i] + bytes([body[i] ^ 0xFF]) + body[i + 1:]
    for sent, code in [(body, None), (twin, "HASH_MISMATCH"),
                       (twin, "HASH_MISMATCH"), (body, None)]:
        reply = encode_frame(FrameType.CHECK_RESP, sent)
        monkeypatch.setattr(nfc, "answer",
                            lambda device, request, reply=reply: reply)
        if code is None:
            assert tap_check(establish(device, 5.0))[2] == _IMAGES[0]
            continue
        with pytest.raises(CloudPassError) as err:
            tap_check(establish(device, 5.0))
        assert err.value.code == code


def test_a_refused_encoding_is_tried_again():
    device = _device()
    passport = device.passport
    device.passport = replace(passport, holder_name="b\ud800b")
    for _ in range(2):
        reply_type, body = decode_frame(answer(device, encode_frame(FrameType.CHECK_REQ)))
        assert (reply_type, body.split(b":")[0]) == (FrameType.ERROR, b"BAD_UTF8")
    device.passport = passport
    _tap_both_halves(device)


def _float_date(device):
    device.passport = replace(device.passport, issue_date=0.0)


def _bytearray_image(device):
    image = _IMAGES[0]
    device.visas = {"V1": VisaImage(bytearray(image.data), image.media_type,
                                    image.content_hash)}


@pytest.mark.parametrize("change,reply_type", [
    (_float_date, FrameType.ERROR), (_bytearray_image, FrameType.CHECK_RESP),
], ids=["float-date", "bytearray-image"])
def test_a_value_equal_to_a_kept_one_but_of_another_type_is_encoded_afresh(
        change, reply_type):
    # 0.0 == 0, and the codec writes only an int; bytearray bytes equal
    # bytes but cannot be hashed. Either gives the reply a fresh encode
    # gives, a refusal for the date and the body for the image.
    device = _device()
    _tap_both_halves(device)
    change(device)
    try:
        expected = encode_frame(FrameType.CHECK_RESP, _fresh_body(device))
    except CloudPassError as exc:
        expected = encode_frame(FrameType.ERROR, str(exc).encode())
    assert answer(device, encode_frame(FrameType.CHECK_REQ)) == expected
    assert decode_frame(expected)[0] is reply_type
