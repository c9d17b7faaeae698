"""Value layer: identifiers, passports, stamps, and the canonical codec."""

import random
import re
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudpass import model
from cloudpass.errors import ValidationError
from cloudpass.model import (DeviceState, IdKind, PageContent, Passport,
                             PassportPage, PassportStatus, PassportSummary,
                             StampEntry, StampKind, TrackingId, VisaImage,
                             VisaPresentation, VisaRecord, VisaStatus,
                             add_stamp, canonical_deserialize,
                             canonical_serialize, content_hash,
                             new_passport, new_tracking_id, place_visa,
                             summarize)

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


# ---------------------------------------------------------------------------
# content_hash


def test_hash_of_empty_bytes():
    assert content_hash(b"") == EMPTY_SHA256


def test_hash_deterministic():
    assert content_hash(b"payload") == content_hash(b"payload")


def test_hash_bit_flip_changes_digest():
    data = bytes(range(32))
    flipped = bytes([data[0] ^ 0x01]) + data[1:]
    assert content_hash(data) != content_hash(flipped)


# ---------------------------------------------------------------------------
# tracking ids


def test_tracking_id_seed_42_golden():
    rng = random.Random(42)
    t = new_tracking_id(IdKind.PASSPORT_APPLICATION, rng, set())
    assert t.value == "HBRPOIG8F1CB"


def test_tracking_id_format():
    rng = random.Random(1)
    for _ in range(50):
        t = new_tracking_id(IdKind.VISA_APPLICATION, rng, set())
        assert re.fullmatch(r"[A-Z0-9]{12}", t.value)


def test_tracking_ids_distinct_within_authority():
    rng = random.Random(3)
    issued = set()
    seen = []
    for _ in range(100):
        t = new_tracking_id(IdKind.PASSPORT_APPLICATION, rng, issued)
        issued.add(t.value)
        seen.append(t.value)
    assert len(set(seen)) == 100


def test_tracking_id_retries_on_collision():
    rng = random.Random(42)
    first = new_tracking_id(IdKind.PASSPORT_APPLICATION, rng, set())
    rng = random.Random(42)
    second = new_tracking_id(IdKind.PASSPORT_APPLICATION, rng, {first.value})
    assert second.value != first.value


def test_tracking_id_bad_format_rejected():
    with pytest.raises(ValidationError):
        TrackingId("short", IdKind.PASSPORT_APPLICATION)
    with pytest.raises(ValidationError):
        TrackingId("abcdefgh1234", IdKind.PASSPORT_APPLICATION)


# ---------------------------------------------------------------------------
# passports and pages


def _passport() -> Passport:
    return new_passport("P1234567", "alice", "IN", "IN", 0, 10**9)


def test_new_passport_shape():
    p = _passport()
    assert len(p.pages) == model.PASSPORT_PAGE_COUNT
    assert [pg.page_no for pg in p.pages] == list(range(1, 33))
    assert all(pg.content is PageContent.EMPTY for pg in p.pages)
    assert p.status is PassportStatus.ACTIVE
    assert p.bound_device is None


def test_new_passports_share_blank_pages():
    a = _passport()
    b = new_passport("P7654321", "bob", "US", "US", 0, 10**9)
    assert all(x is y for x, y in zip(a.pages, b.pages, strict=True))
    a_bytes, b_bytes = canonical_serialize(a), canonical_serialize(b)
    changed = place_visa(a, "V1", 3, {"V1"})
    changed = add_stamp(changed, 4, StampEntry(StampKind.ARRIVAL, "JFK", 100))
    assert changed.page(3).visa_id == "V1" and changed.page(4).stamps
    assert canonical_serialize(a) == a_bytes
    assert canonical_serialize(b) == b_bytes
    assert all(pg.content is PageContent.EMPTY for pg in a.pages + b.pages)
    assert canonical_serialize(_passport()) == a_bytes


def test_passport_refuses_tampered_shared_pages():
    p = _passport()
    for pages in (p.pages[:4] + p.pages[5:], p.pages + p.pages[-1:],
                  (p.pages[1], p.pages[0]) + p.pages[2:]):
        with pytest.raises(ValidationError) as err:
            Passport(p.passport_no, p.holder_name, p.nationality,
                     p.issuing_authority, p.issue_date, p.expiry_date, pages,
                     None, PassportStatus.ACTIVE)
        assert err.value.code == "PAGES_NOT_CONTIGUOUS"


def test_place_visa_on_page_3():
    p = place_visa(_passport(), "V1", 3, {"V1"})
    assert p.page(3).content is PageContent.VISA_SLOT
    assert p.page(3).visa_id == "V1"


def test_place_visa_twice_page_occupied():
    p = place_visa(_passport(), "V1", 3, {"V1", "V2"})
    with pytest.raises(ValidationError) as err:
        place_visa(p, "V2", 3, {"V1", "V2"})
    assert err.value.code == "PAGE_OCCUPIED"


def test_place_same_visa_twice_rejected():
    p = place_visa(_passport(), "V1", 3, {"V1"})
    with pytest.raises(ValidationError) as err:
        place_visa(p, "V1", 5, {"V1"})
    assert err.value.code == "ALREADY_PLACED"


def test_place_visa_no_such_page():
    with pytest.raises(ValidationError) as err:
        place_visa(_passport(), "V1", 99, {"V1"})
    assert err.value.code == "NO_SUCH_PAGE"


def test_place_visa_not_downloaded():
    with pytest.raises(ValidationError) as err:
        place_visa(_passport(), "V1", 3, set())
    assert err.value.code == "VISA_NOT_DOWNLOADED"


def test_stamps_monotonic_within_page():
    p = place_visa(_passport(), "V1", 3, {"V1"})
    p = add_stamp(p, 3, StampEntry(StampKind.DEPARTURE, "BLR", 100))
    p = add_stamp(p, 3, StampEntry(StampKind.ARRIVAL, "JFK", 100))
    with pytest.raises(ValidationError) as err:
        add_stamp(p, 3, StampEntry(StampKind.ARRIVAL, "JFK", 50))
    assert err.value.code == "STAMP_OUT_OF_ORDER"


def test_stamps_monotonic_across_pages():
    p = place_visa(_passport(), "V1", 3, {"V1", "V2"})
    p = place_visa(p, "V2", 5, {"V1", "V2"})
    p = add_stamp(p, 3, StampEntry(StampKind.DEPARTURE, "BLR", 100))
    with pytest.raises(ValidationError) as err:
        add_stamp(p, 5, StampEntry(StampKind.ARRIVAL, "JFK", 50))
    assert err.value.code == "STAMP_OUT_OF_ORDER"
    p = add_stamp(p, 5, StampEntry(StampKind.ARRIVAL, "JFK", 100))
    assert len(p.all_stamps()) == 2


def test_stamp_refused_before_latest_on_another_page():
    p = place_visa(_passport(), "V1", 3, {"V1", "V2"})
    p = place_visa(p, "V2", 5, {"V1", "V2"})
    p = add_stamp(p, 3, StampEntry(StampKind.DEPARTURE, "BLR", 100))
    p = add_stamp(p, 5, StampEntry(StampKind.ARRIVAL, "JFK", 300))
    with pytest.raises(ValidationError) as err:
        add_stamp(p, 3, StampEntry(StampKind.DEPARTURE, "JFK", 200))
    assert err.value.code == "STAMP_OUT_OF_ORDER"
    p = add_stamp(p, 3, StampEntry(StampKind.DEPARTURE, "JFK", 300))
    assert [s.stamped_at for s in p.page(3).stamps] == [100, 300]


def test_stamp_airport_format():
    with pytest.raises(ValidationError):
        StampEntry(StampKind.ARRIVAL, "jfk", 0)
    with pytest.raises(ValidationError):
        StampEntry(StampKind.ARRIVAL, "JFKX", 0)


def test_duplicate_visa_slot_rejected():
    pages = list(_passport().pages)
    pages[2] = PassportPage(3, "V1")
    pages[4] = PassportPage(5, "V1")
    with pytest.raises(ValidationError):
        Passport("P1234567", "alice", "IN", "IN", 0, 10**9, tuple(pages),
                 None, PassportStatus.ACTIVE)


def test_summarize_carries_identity_not_pages():
    p = place_visa(_passport(), "V1", 3, {"V1"})
    p = add_stamp(p, 3, StampEntry(StampKind.ARRIVAL, "JFK", 7200))
    s = summarize(p)
    assert s.passport_no == "P1234567"
    assert s.holder_name == "alice"
    assert s.status is PassportStatus.ACTIVE
    assert not hasattr(s, "pages")


@pytest.mark.parametrize("issue,expiry", [
    (2, model.I64_MAX + 2),
    (model.I64_MIN - 1, 0),
], ids=["expiry-past-i64", "issue-before-i64"])
def test_passport_dates_must_fit_i64(issue, expiry):
    with pytest.raises(ValidationError) as err:
        new_passport("P1234567", "alice", "IN", "IN", issue, expiry)
    assert err.value.code == "DATE_OUT_OF_RANGE"
    new_passport("P1234567", "alice", "IN", "IN", model.I64_MIN, model.I64_MAX)


# ---------------------------------------------------------------------------
# visa images


def test_visa_image_hash_contract():
    img = VisaImage.of(b"pixels", "image/png")
    assert img.content_hash == content_hash(b"pixels")


def test_visa_image_hash_mismatch_rejected():
    with pytest.raises(ValidationError) as err:
        VisaImage(b"pixels", "image/png", content_hash(b"other"))
    assert err.value.code == "HASH_MISMATCH"


# ---------------------------------------------------------------------------
# device state


def _images():
    return tuple(model.AuthImage(i, content_hash(bytes([i])),
                                 content_hash(bytes([i, i])))
                 for i in range(10))


def test_device_requires_ten_images_in_order():
    DeviceState("d1", 0, _images())
    with pytest.raises(ValidationError):
        DeviceState("d1", 0, _images()[:9])
    shuffled = _images()[1:] + _images()[:1]
    with pytest.raises(ValidationError):
        DeviceState("d1", 0, shuffled)


def test_device_offset_bounds():
    DeviceState("d1", 1440, _images())
    DeviceState("d1", -1440, _images())
    with pytest.raises(ValidationError):
        DeviceState("d1", 1441, _images())


def test_displayed_time_offset_and_wrap():
    dev = DeviceState("d1", 330, _images())
    utc_0630 = 6 * 3600 + 30 * 60
    assert dev.displayed_time(utc_0630) == "12:00"
    late = DeviceState("d2", 90, _images())
    assert late.displayed_time(23 * 3600) == "00:30"
    behind = DeviceState("d3", -60, _images())
    assert behind.displayed_time(0) == "23:00"


# ---------------------------------------------------------------------------
# canonical codec


def test_stamp_entry_golden_bytes():
    entry = StampEntry(StampKind.ARRIVAL, "JFK", 7200)
    body = (struct.pack(">I", 7) + b"ARRIVAL"
            + struct.pack(">I", 3) + b"JFK"
            + struct.pack(">q", 7200))
    assert canonical_serialize(entry) == struct.pack(">BI", 0x02, len(body)) + body


def test_tracking_id_golden_bytes():
    t = TrackingId("ABCDEF123456", IdKind.VISA_APPLICATION)
    body = (struct.pack(">I", 12) + b"ABCDEF123456"
            + struct.pack(">I", 16) + b"VISA_APPLICATION")
    assert canonical_serialize(t) == struct.pack(">BI", 0x01, len(body)) + body


def test_serialize_deterministic():
    p = place_visa(_passport(), "V1", 3, {"V1"})
    assert canonical_serialize(p) == canonical_serialize(p)


def test_serialize_field_sensitivity():
    a = StampEntry(StampKind.ARRIVAL, "JFK", 7200)
    b = StampEntry(StampKind.ARRIVAL, "JFK", 7201)
    assert canonical_serialize(a) != canonical_serialize(b)


def test_round_trip_passport_with_content():
    p = place_visa(_passport(), "V1", 3, {"V1"})
    p = add_stamp(p, 3, StampEntry(StampKind.ARRIVAL, "JFK", 7200))
    assert canonical_deserialize(canonical_serialize(p)) == p


def test_round_trip_visa_record_and_presentation():
    img = VisaImage.of(b"\x89PNG...", "image/png")
    rec = VisaRecord("V1", "P1234567", "IN", "US", 0, 86400,
                     img.content_hash, VisaStatus.ISSUED)
    assert canonical_deserialize(canonical_serialize(rec)) == rec
    pres = VisaPresentation(summarize(_passport()), "V1", img)
    assert canonical_deserialize(canonical_serialize(pres)) == pres


def test_round_trip_summary():
    s = summarize(_passport())
    assert canonical_deserialize(canonical_serialize(s)) == s


@pytest.mark.parametrize("valid_from,valid_to", [
    (2, model.I64_MAX + 2),
    (model.I64_MIN - 1, 0),
], ids=["to-past-i64", "from-before-i64"])
def test_visa_record_dates_must_fit_i64(valid_from, valid_to):
    digest = content_hash(b"pixels")
    with pytest.raises(ValidationError) as err:
        VisaRecord("V1", "P1234567", "IN", "US", valid_from, valid_to, digest,
                   VisaStatus.ISSUED)
    assert err.value.code == "DATE_OUT_OF_RANGE"


def test_serialize_out_of_range_int_is_validation_error():
    entry = StampEntry(StampKind.ARRIVAL, "JFK", model.I64_MAX + 1)
    with pytest.raises(ValidationError) as err:
        canonical_serialize(entry)
    assert err.value.code == "I64_OUT_OF_RANGE"


def test_deserialize_nested_wrong_type_rejected():
    # A presentation's body starts with its passport summary record; byte 5
    # is that nested record's tag. Point it at a different type.
    pres = VisaPresentation(summarize(_passport()), "V1",
                            VisaImage.of(b"x", "image/png"))
    raw = bytearray(canonical_serialize(pres))
    raw[5] = 0x02
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(bytes(raw))
    assert err.value.code == "WRONG_RECORD_TYPE"


def test_deserialize_trailing_bytes_rejected():
    raw = canonical_serialize(StampEntry(StampKind.ARRIVAL, "JFK", 0))
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(raw + b"\x00")
    assert err.value.code == "TRAILING_BYTES"


def test_deserialize_truncated_rejected():
    raw = canonical_serialize(StampEntry(StampKind.ARRIVAL, "JFK", 0))
    with pytest.raises(ValidationError):
        canonical_deserialize(raw[:-1])


def test_deserialize_unknown_tag_rejected():
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(b"\xee\x00\x00\x00\x00")
    assert err.value.code == "UNKNOWN_TAG"


def _unchecked(cls, **fields):
    """A record made without running its constructor's check: what a
    decoder can be handed, since the writer does not check records."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


_SUMMARY = dict(passport_no="P1234567", holder_name="alice", nationality="IN",
                issuing_authority="IN", issue_date=0, expiry_date=10**9,
                status=PassportStatus.ACTIVE)


@pytest.mark.parametrize("field,code", [("passport_no", "EMPTY_PASSPORT_NO"),
                                        ("holder_name", "EMPTY_HOLDER_NAME")])
def test_summary_refuses_empty_identity_when_built_and_decoded(field, code):
    fields = {**_SUMMARY, field: ""}
    with pytest.raises(ValidationError) as err:
        PassportSummary(**fields)
    assert err.value.code == code
    summary = _unchecked(PassportSummary, **fields)
    presentation = _unchecked(VisaPresentation, passport=summary, visa_id="V1",
                              image=VisaImage.of(b"x"))
    for record in (summary, presentation):
        with pytest.raises(ValidationError) as err:
            canonical_deserialize(canonical_serialize(record))
        assert err.value.code == code


# ``$`` also matches before a final newline, so each format is checked
# with a trailing newline, both when built and when decoded (the writer
# checks nothing, so the decoder is the route in from outside).
@pytest.mark.parametrize("cls,fields,code", [
    (TrackingId, dict(value="ABCDEF123456\n", kind=IdKind.PASSPORT_APPLICATION),
     "BAD_TRACKING_FORMAT"),
    (StampEntry, dict(kind=StampKind.ARRIVAL, airport="JFK\n", stamped_at=0),
     "BAD_AIRPORT_CODE"),
    (VisaRecord, dict(visa_id="V1", passport_no="P1", issuing_country="IN\n",
                      destination_country="US", valid_from=0, valid_to=1,
                      image_hash=EMPTY_SHA256, status=VisaStatus.ISSUED),
     "BAD_COUNTRY_CODE"),
    (model.AuthImage, dict(index=0, image_hash=EMPTY_SHA256 + "\n",
                           answer_hash=EMPTY_SHA256),
     "BAD_HASH_FORMAT"),
], ids=["tracking", "airport", "country", "hex64"])
def test_formats_refuse_trailing_newline_when_built_and_decoded(cls, fields, code):
    with pytest.raises(ValidationError) as err:
        cls(**fields)
    assert err.value.code == code
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(canonical_serialize(_unchecked(cls, **fields)))
    assert err.value.code == code


def test_presentation_refuses_empty_visa_id_when_built_and_decoded():
    summary, image = PassportSummary(**_SUMMARY), VisaImage.of(b"x")
    with pytest.raises(ValidationError) as err:
        VisaPresentation(summary, "", image)
    assert err.value.code == "EMPTY_VISA_ID"
    presentation = _unchecked(VisaPresentation, passport=summary, visa_id="",
                              image=image)
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(canonical_serialize(presentation))
    assert err.value.code == "EMPTY_VISA_ID"


def _visa_not_downloaded(device):
    device.passport = place_visa(_passport(), "V1", 3, {"V1"})


def _nine_auth_images(device):
    device.auth_images = device.auth_images[:9]


@pytest.mark.parametrize("break_device,code", [
    (_visa_not_downloaded, "VISA_NOT_DOWNLOADED"),
    (_nine_auth_images, "BAD_AUTH_IMAGE_SET"),
], ids=["visa-not-downloaded", "nine-auth-images"])
def test_serialize_refuses_invalid_device(break_device, code):
    device = DeviceState("d1", 0, _images())
    break_device(device)
    with pytest.raises(ValidationError) as err:
        canonical_serialize(device)
    assert err.value.code == code


def test_device_session_must_be_a_session():
    device = DeviceState("d1", 0, _images())
    device.session = StampEntry(StampKind.ARRIVAL, "JFK", 0)
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(canonical_serialize(device))
    assert err.value.code == "WRONG_RECORD_TYPE"


@pytest.mark.parametrize("second", [b"V0", b"V1"], ids=["unsorted", "repeated"])
def test_device_visa_keys_must_strictly_increase(second):
    # Two length-2 keys: rename the second, so the map holds V1 then V0
    # (unsorted) or V1 twice (repeated). Neither is an encoder's output.
    device = DeviceState("d1", 0, _images())
    device.visas = {"V1": VisaImage.of(b"one"), "V2": VisaImage.of(b"two")}
    raw = canonical_serialize(device)
    key = struct.pack(">I", 2)
    assert raw.count(key + b"V2") == 1
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(raw.replace(key + b"V2", key + second))
    assert err.value.code == "MAP_KEYS_NOT_SORTED"


@pytest.mark.parametrize("field", [b"ABCDEF123456", b"VISA_APPLICATION"],
                         ids=["str", "enum-name"])
def test_invalid_utf8_is_validation_error(field):
    raw = canonical_serialize(TrackingId("ABCDEF123456", IdKind.VISA_APPLICATION))
    bad = b"\xff" + field[1:]
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(raw.replace(field, bad))
    assert err.value.code == "BAD_UTF8"


def test_register_codec_duplicate_tag_rejected():
    class Doomed:
        pass

    with pytest.raises(ValueError):
        model.register_codec(Doomed, 0x01, lambda w, x: None, lambda r: Doomed())


_stamps = st.builds(
    StampEntry,
    kind=st.sampled_from(list(StampKind)),
    airport=st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=3,
                    max_size=3),
    stamped_at=st.integers(min_value=0, max_value=2**40))


@given(_stamps)
def test_stamp_round_trip_property(entry):
    assert canonical_deserialize(canonical_serialize(entry)) == entry


@given(st.binary(min_size=0, max_size=64),
       st.sampled_from(["image/png", "image/jpeg"]))
def test_visa_image_round_trip_property(data, media):
    img = VisaImage.of(data, media)
    assert canonical_deserialize(canonical_serialize(img)) == img


@given(_stamps, _stamps)
def test_distinct_stamps_distinct_bytes(a, b):
    if a != b:
        assert canonical_serialize(a) != canonical_serialize(b)
