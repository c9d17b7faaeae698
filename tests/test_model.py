"""Value layer: identifiers, passports, stamps, and the canonical codec."""

import copy
import pickle
import random
import re
import struct
from dataclasses import FrozenInstanceError
from enum import Enum

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cloudpass import model
from cloudpass.errors import ValidationError
from cloudpass.model import (CaptchaChallenge, DeviceState, IdKind,
                             PageContent, Passport, PassportPage,
                             PassportStatus, PassportSummary, Session,
                             SessionState, StampEntry, StampKind,
                             TrackingId, VisaImage,
                             VisaPresentation, VisaRecord, VisaStatus,
                             add_stamp, canonical_deserialize,
                             canonical_serialize, content_hash,
                             new_passport, new_tracking_id, place_visa,
                             replace, summarize)

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
# random draws: the stdlib's choice and randrange are the reference


_SIXTY_FOUR = model.TRACKING_ALPHABET + "abcdefghijklmnopqrstuvwxyz+/"


@given(st.integers(0, 2**64), st.integers(1, 64), st.integers(0, 40))
@example(42, 36, 12)   # a tracking id
@example(7, 32, 6)     # a captcha
@example(1, 1, 5)
@example(2**64, 64, 40)
def test_draw_text_matches_choice(seed, size, length):
    alphabet = _SIXTY_FOUR[:size]
    ours, reference = random.Random(seed), random.Random(seed)
    drawn = model.draw_text(ours, alphabet, length)
    assert drawn == "".join(reference.choice(alphabet) for _ in range(length))
    assert ours.getstate() == reference.getstate()


@given(st.integers(0, 2**64), st.integers(1, 2**64))
@example(3, 10)          # an auth image index
@example(3, 10**6)       # an OTP
@example(5, 1)
@example(5, 2**32)
@example(5, 2**32 + 1)
@example(5, 2**64)
def test_draw_below_matches_randrange(seed, n):
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert model.draw_below(ours, n) == reference.randrange(n)
    assert ours.getstate() == reference.getstate()


def test_draws_refuse_an_empty_range():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        model.draw_below(rng, 0)
    with pytest.raises(ValueError):
        model.draw_text(rng, "", 3)
    assert rng.getstate() == random.Random(0).getstate()


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


def test_only_the_shared_blank_pages_skip_the_page_walk(monkeypatch):
    # The blank pages were walked once, at import; every other tuple of
    # pages is walked when its passport is built.
    walked = []
    walk = model._check_pages
    monkeypatch.setattr(model, "_check_pages",
                        lambda pages: walked.append(pages) or walk(pages))
    p = _passport()
    bound = replace(p, bound_device="phone")
    assert p.pages is bound.pages is model._BLANK_PAGES and walked == []
    decoded = canonical_deserialize(canonical_serialize(bound))
    assert decoded == bound and walked == [decoded.pages]
    assert decoded.pages is not model._BLANK_PAGES


def _decode_with(passport: Passport, old: bytes, new: bytes) -> Passport:
    """Decode ``passport``'s bytes with the one occurrence of ``old``
    replaced by ``new``, of the same length."""
    data = canonical_serialize(passport)
    assert data.count(old) == 1 and len(old) == len(new)
    return canonical_deserialize(data.replace(old, new))


def test_a_decoded_passport_gets_the_full_page_walk():
    p = _passport()
    with pytest.raises(ValidationError) as err:
        _decode_with(p, canonical_serialize(PassportPage(2)),
                     canonical_serialize(PassportPage(3)))
    assert str(err.value) == "PAGES_NOT_CONTIGUOUS: page numbers [1, 3, 3, 4, 5]..."
    two = place_visa(place_visa(p, "VA", 3, {"VA"}), "VB", 4, {"VB"})
    with pytest.raises(ValidationError) as err:
        _decode_with(two, b"VB", b"VA")
    assert str(err.value) == "DUPLICATE_VISA_SLOT: ['VA', 'VA']"


def test_an_empty_device_id_is_refused_on_the_blank_pages():
    p = _passport()
    assert p.pages is model._BLANK_PAGES
    with pytest.raises(ValidationError) as err:
        Passport(p.passport_no, p.holder_name, p.nationality,
                 p.issuing_authority, p.issue_date, p.expiry_date,
                 model._BLANK_PAGES, "", PassportStatus.ACTIVE)
    assert str(err.value) == "EMPTY_DEVICE_ID"


def test_place_visa_on_page_3():
    p = place_visa(_passport(), "V1", 3, {"V1"})
    assert p.page(3).content is PageContent.VISA_SLOT
    assert p.page(3).visa_id == "V1"


def test_place_visa_twice_page_occupied():
    p = place_visa(_passport(), "V1", 3, {"V1", "V2"})
    with pytest.raises(ValidationError) as err:
        place_visa(p, "V2", 3, {"V1", "V2"})
    assert err.value.code == "PAGE_OCCUPIED"


def test_a_decoded_page_of_stamps_alone_takes_no_visa():
    # A passport's pages may hold stamps outside a visa slot; one read back
    # from its bytes says so, and a visa cannot be placed over them.
    stamped = model._with_page(_passport(), PassportPage(
        4, None, (StampEntry(StampKind.ARRIVAL, "BLR", 100),)))
    decoded = canonical_deserialize(canonical_serialize(stamped), Passport)
    assert decoded.page(4).content is PageContent.STAMPS
    with pytest.raises(ValidationError) as err:
        place_visa(decoded, "V1", 4, {"V1"})
    assert str(err.value) == "PAGE_OCCUPIED: page 4 is STAMPS"


def test_a_record_with_no_codec_is_refused():
    @model.record
    class Unregistered:
        n: int

    with pytest.raises(ValidationError) as err:
        canonical_serialize(Unregistered(1))
    assert str(err.value) == "NO_CODEC: Unregistered"


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


def test_summary_refuses_expiry_not_after_issue_when_built_and_decoded():
    # A summary keeps its passport's rules: it arrives from the device.
    fields = {**_SUMMARY, "issue_date": 100, "expiry_date": 5}
    with pytest.raises(ValidationError) as err:
        PassportSummary(**fields)
    assert err.value.code == "EXPIRY_NOT_AFTER_ISSUE"
    summary = _unchecked(PassportSummary, **fields)
    presentation = _unchecked(VisaPresentation, passport=summary, visa_id="V1",
                              image=VisaImage.of(b"x"))
    for record in (summary, presentation):
        with pytest.raises(ValidationError) as err:
            canonical_deserialize(canonical_serialize(record))
        assert err.value.code == "EXPIRY_NOT_AFTER_ISSUE"


# ``$`` also matches before a final newline, so each format is checked
# with a trailing newline, both when built and when decoded (the writer
# checks nothing, so the decoder is the route in from outside). A tracking
# id has no codec, so it is only built.
@pytest.mark.parametrize("cls,fields,code", [
    (TrackingId, dict(value="ABCDEF123456\n", kind=IdKind.PASSPORT_APPLICATION),
     "BAD_TRACKING_FORMAT"),
    (StampEntry, dict(kind=StampKind.ARRIVAL, airport="JFK\n", stamped_at=0),
     "BAD_AIRPORT_CODE"),
    (PassportSummary, {**_SUMMARY, "nationality": "IN\n"}, "BAD_COUNTRY_CODE"),
    (model.AuthImage, dict(index=0, image_hash=EMPTY_SHA256 + "\n",
                           answer_hash=EMPTY_SHA256),
     "BAD_HASH_FORMAT"),
], ids=["tracking", "airport", "country", "hex64"])
def test_formats_refuse_trailing_newline_when_built_and_decoded(cls, fields, code):
    with pytest.raises(ValidationError) as err:
        cls(**fields)
    assert err.value.code == code
    if cls is TrackingId:
        return
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


@pytest.mark.parametrize("fields,code", [
    (dict(challenge_id="", text="ABCDEF", issued_at=0), "EMPTY_CHALLENGE_ID"),
    (dict(challenge_id="c-1", text="", issued_at=0), "EMPTY_CAPTCHA_TEXT"),
    (dict(challenge_id="c-1", text="ABCDEF", issued_at=-5), "NEGATIVE_TIMESTAMP"),
], ids=["challenge-id", "text", "issued-at"])
def test_captcha_refuses_bad_fields_when_decoded(fields, code):
    """A captcha decoded alone or inside its session meets the checks of
    one built in code."""
    captcha = _unchecked(CaptchaChallenge, **fields)
    session = _unchecked(Session, session_id="s-1",
                         state=SessionState.TIME_AUTH_PENDING, activated_at=0,
                         pending_captcha=captcha, pending_image_index=None)
    for record in (captcha, session):
        with pytest.raises(ValidationError) as err:
            canonical_deserialize(canonical_serialize(record))
        assert err.value.code == code


# One failing input per check a record makes, with the exact text the
# CLI prints after ``line L: ``.
_VISA = VisaRecord("V1", "P1234567", "IN", "US", 0, 10, EMPTY_SHA256,
                   VisaStatus.ISSUED)
_STAMP = StampEntry(StampKind.ARRIVAL, "JFK", 10)
_AUTH = model.AuthImage(0, EMPTY_SHA256, EMPTY_SHA256)
_CAPTCHA = CaptchaChallenge("c-1", "ABCDEF", 0)


def _device_with_placed_visa():
    DeviceState("d1", 0, _images(),
                passport=place_visa(_passport(), "V1", 3, {"V1"}))


_REFUSALS = [
    ("tracking-format", lambda: TrackingId("short", IdKind.VISA_APPLICATION),
     "BAD_TRACKING_FORMAT: tracking id must be 12 chars of A-Z0-9, got 'short'"),
    ("tracking-kind", lambda: TrackingId("ABCDEF123456", "VISA_APPLICATION"),
     "BAD_TRACKING_KIND: 'VISA_APPLICATION'"),
    ("stamp-kind", lambda: StampEntry("ARRIVAL", "JFK", 0),
     "BAD_STAMP_KIND: 'ARRIVAL'"),
    ("stamp-airport", lambda: StampEntry(StampKind.ARRIVAL, "jfk", 0),
     "BAD_AIRPORT_CODE: airport must be 3 uppercase letters, got 'jfk'"),
    ("stamp-time", lambda: StampEntry(StampKind.ARRIVAL, "JFK", -1),
     "NEGATIVE_TIMESTAMP: -1"),
    ("page-number", lambda: PassportPage(0), "BAD_PAGE_NUMBER: 0"),
    ("page-visa-id", lambda: PassportPage(1, ""), "EMPTY_VISA_ID"),
    ("page-stamps", lambda: PassportPage(4, None, (_STAMP, replace(_STAMP, stamped_at=9))),
     "STAMP_OUT_OF_ORDER: page 4 stamps must be non-decreasing"),
    ("passport-no", lambda: replace(_passport(), passport_no=""), "EMPTY_PASSPORT_NO"),
    ("passport-holder", lambda: replace(_passport(), holder_name=""),
     "EMPTY_HOLDER_NAME"),
    ("passport-nationality", lambda: replace(_passport(), nationality="in"),
     "BAD_COUNTRY_CODE: 'in'"),
    ("passport-authority", lambda: replace(_passport(), issuing_authority="INDIA"),
     "BAD_COUNTRY_CODE: 'INDIA'"),
    ("passport-expiry", lambda: replace(_passport(), issue_date=5, expiry_date=5),
     "EXPIRY_NOT_AFTER_ISSUE: issue 5 expiry 5"),
    ("passport-dates", lambda: replace(_passport(), expiry_date=model.I64_MAX + 1),
     f"DATE_OUT_OF_RANGE: issue 0 expiry {model.I64_MAX + 1} must fit i64"),
    ("passport-pages", lambda: replace(_passport(), pages=_passport().pages[::-1]),
     "PAGES_NOT_CONTIGUOUS: page numbers [32, 31, 30, 29, 28]..."),
    ("passport-slots", lambda: replace(_passport(), pages=(
        PassportPage(1, "V1"), PassportPage(2), PassportPage(3, "V1"))),
     "DUPLICATE_VISA_SLOT: ['V1', 'V1']"),
    ("passport-device", lambda: replace(_passport(), bound_device=""),
     "EMPTY_DEVICE_ID"),
    ("passport-status", lambda: replace(_passport(), status="ACTIVE"),
     "BAD_STATUS: 'ACTIVE'"),
    ("image-media-type", lambda: VisaImage(b"", "", EMPTY_SHA256), "EMPTY_MEDIA_TYPE"),
    ("image-hash-format", lambda: VisaImage(b"", "image/png", EMPTY_SHA256.upper()),
     f"BAD_HASH_FORMAT: {EMPTY_SHA256.upper()!r}"),
    ("image-hash", lambda: VisaImage(b"x", "image/png", EMPTY_SHA256),
     "HASH_MISMATCH: stored hash does not match image bytes"),
    ("visa-id", lambda: replace(_VISA, visa_id=""), "EMPTY_VISA_ID"),
    ("visa-passport-no", lambda: replace(_VISA, passport_no=""), "EMPTY_PASSPORT_NO"),
    ("visa-issuer", lambda: replace(_VISA, issuing_country="I"),
     "BAD_COUNTRY_CODE: 'I'"),
    ("visa-destination", lambda: replace(_VISA, destination_country="us"),
     "BAD_COUNTRY_CODE: 'us'"),
    ("visa-window", lambda: replace(_VISA, valid_from=10),
     "VISA_WINDOW_EMPTY: from 10 to 10"),
    ("visa-dates", lambda: replace(_VISA, valid_from=model.I64_MIN - 1),
     f"DATE_OUT_OF_RANGE: from {model.I64_MIN - 1} to 10 must fit i64"),
    ("visa-hash-format", lambda: replace(_VISA, image_hash="00"),
     "BAD_HASH_FORMAT: '00'"),
    ("visa-status", lambda: replace(_VISA, status=None), "BAD_STATUS: None"),
    ("auth-index", lambda: replace(_AUTH, index=10), "BAD_IMAGE_INDEX: 10"),
    ("auth-image-hash", lambda: replace(_AUTH, image_hash=""), "BAD_HASH_FORMAT: ''"),
    ("auth-answer-hash", lambda: replace(_AUTH, answer_hash="x"),
     "BAD_HASH_FORMAT: 'x'"),
    ("captcha-id", lambda: replace(_CAPTCHA, challenge_id=""), "EMPTY_CHALLENGE_ID"),
    ("captcha-text", lambda: replace(_CAPTCHA, text=""), "EMPTY_CAPTCHA_TEXT"),
    ("captcha-time", lambda: replace(_CAPTCHA, issued_at=-5),
     "NEGATIVE_TIMESTAMP: -5"),
    ("session-state", lambda: Session("s-1", "VISA_VISIBLE", 0),
     "BAD_SESSION_STATE: 'VISA_VISIBLE'"),
    ("session-no-captcha", lambda: Session("s-1", SessionState.TIME_AUTH_PENDING, 0),
     "PENDING_CAPTCHA_MISMATCH: TIME_AUTH_PENDING without a captcha"),
    ("session-stray-captcha", lambda: Session(
        "s-1", SessionState.CREDENTIALS_PENDING, 0, pending_captcha=_CAPTCHA),
     "PENDING_CAPTCHA_MISMATCH: CREDENTIALS_PENDING with a captcha"),
    ("session-no-index", lambda: Session("s-1", SessionState.IMAGE_AUTH_PENDING, 0),
     "PENDING_IMAGE_MISMATCH: IMAGE_AUTH_PENDING without a picture index"),
    ("session-stray-index", lambda: Session(
        "s-1", SessionState.VISA_VISIBLE, 0, pending_image_index=0),
     "PENDING_IMAGE_MISMATCH: VISA_VISIBLE with a picture index"),
    ("session-index-low", lambda: Session(
        "s-1", SessionState.IMAGE_AUTH_PENDING, 0, pending_image_index=-1),
     "BAD_IMAGE_INDEX: -1"),
    ("session-index-high", lambda: Session(
        "s-1", SessionState.IMAGE_AUTH_PENDING, 0, pending_image_index=10),
     "BAD_IMAGE_INDEX: 10"),
    ("device-id", lambda: DeviceState("", 0, _images()), "EMPTY_DEVICE_ID"),
    ("device-offset", lambda: DeviceState("d1", -1441, _images()),
     "BAD_CLOCK_OFFSET: -1441"),
    ("device-image-count", lambda: DeviceState("d1", 0, _images()[:9]),
     "BAD_AUTH_IMAGE_SET: need exactly 10 images, got 9"),
    ("device-image-order", lambda: DeviceState("d1", 0, _images()[::-1]),
     "BAD_AUTH_IMAGE_SET: indices must be 0..9 in order, "
     "got [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]"),
    ("device-visa", _device_with_placed_visa,
     "VISA_NOT_DOWNLOADED: page 3 references 'V1'"),
    ("summary-passport-no", lambda: PassportSummary(**{**_SUMMARY, "passport_no": ""}),
     "EMPTY_PASSPORT_NO"),
    ("summary-holder", lambda: PassportSummary(**{**_SUMMARY, "holder_name": ""}),
     "EMPTY_HOLDER_NAME"),
    ("summary-status", lambda: PassportSummary(**{**_SUMMARY, "status": "ACTIVE"}),
     "BAD_STATUS: 'ACTIVE'"),
    ("presentation-visa-id", lambda: VisaPresentation(
        PassportSummary(**_SUMMARY), "", VisaImage.of(b"x")), "EMPTY_VISA_ID"),
]


@pytest.mark.parametrize("build,text", [case[1:] for case in _REFUSALS],
                         ids=[case[0] for case in _REFUSALS])
def test_record_refusal_text(build, text):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == text
    assert err.value.code == text.split(":", 1)[0]


# ---------------------------------------------------------------------------
# What every record built by ``model.record`` keeps of a frozen dataclass


def test_record_refuses_assignment_and_deletion():
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'airport'"):
        _STAMP.airport = "BLR"
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'airport'"):
        del _STAMP.airport
    with pytest.raises(FrozenInstanceError):
        _STAMP.extra = 1
    assert _STAMP.airport == "JFK"


def test_record_equals_only_its_own_class():
    @model.record
    class Here:
        a: int
        b: str

    @model.record
    class There:
        a: int
        b: str

    assert Here(1, "x") == Here(1, "x")
    assert Here(1, "x") != There(1, "x")
    assert Here(1, "x") != (1, "x")


def test_equal_records_hash_equal():
    twin = StampEntry(StampKind.ARRIVAL, "JFK", 10)
    assert twin == _STAMP and twin is not _STAMP
    assert hash(twin) == hash(_STAMP) == hash((StampKind.ARRIVAL, "JFK", 10))
    assert len({_passport(), _passport()}) == 1


def test_record_repr_is_the_dataclass_text():
    assert repr(_STAMP) == ("StampEntry(kind=<StampKind.ARRIVAL: 'ARRIVAL'>, "
                            "airport='JFK', stamped_at=10)")
    session = Session("s-1", SessionState.TIME_AUTH_PENDING, 0,
                      pending_captcha=_CAPTCHA)
    assert repr(session) == (
        "Session(session_id='s-1', state=<SessionState.TIME_AUTH_PENDING: "
        "'TIME_AUTH_PENDING'>, activated_at=0, pending_captcha=CaptchaChallenge("
        "challenge_id='c-1', text='ABCDEF', issued_at=0), pending_image_index=None)")


@pytest.mark.parametrize("copy_of", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])
def test_record_copies_through_its_constructor(copy_of):
    passport = place_visa(_passport(), "V1", 3, {"V1"})
    assert copy_of(passport) == passport
    assert copy_of(_CAPTCHA) == _CAPTCHA
    bad = _unchecked(StampEntry, kind=StampKind.ARRIVAL, airport="jfk", stamped_at=0)
    with pytest.raises(ValidationError) as err:
        copy_of(bad)
    assert err.value.code == "BAD_AIRPORT_CODE"


def test_replace_builds_through_the_constructor():
    later = replace(_STAMP, stamped_at=11)
    assert later == StampEntry(StampKind.ARRIVAL, "JFK", 11)
    assert _STAMP.stamped_at == 10
    with pytest.raises(ValidationError) as err:
        replace(_STAMP, stamped_at=-1)
    assert err.value.code == "NEGATIVE_TIMESTAMP"
    with pytest.raises(TypeError):
        replace(_STAMP, gate="B7")


@model.record
class _Counted:
    """A record with ``validate`` and no ``__post_init__``; module level,
    so pickle finds it."""

    n: int

    def validate(self) -> None:
        if not self.n >= 0:
            raise ValidationError("NEGATIVE_COUNT", str(self.n))


@pytest.mark.parametrize("make", [
    lambda: _Counted(-1),
    lambda: replace(_Counted(1), n=-1),
    lambda: copy.copy(_unchecked(_Counted, n=-1)),
    lambda: copy.deepcopy(_unchecked(_Counted, n=-1)),
    lambda: pickle.loads(pickle.dumps(_unchecked(_Counted, n=-1))),
], ids=["built", "replace", "copy", "deepcopy", "pickle"])
def test_record_runs_validate_without_post_init(make):
    assert not hasattr(_Counted, "__post_init__")
    assert _Counted(2).n == 2
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == "NEGATIVE_COUNT: -1"


def test_record_normalises_before_it_validates():
    calls = []

    @model.record
    class Both:
        a: tuple

        def __post_init__(self):
            calls.append("post_init")
            object.__setattr__(self, "a", tuple(self.a))

        def validate(self) -> None:
            calls.append(("validate", self.a))

    assert Both([1]).a == (1,)
    assert calls == ["post_init", ("validate", (1,))]


def test_a_patched_page_validate_runs_once_for_each_page_built(monkeypatch):
    # The benchmark counts model.page_validate by patching the class, so
    # the generated __init__ must reach validate through the instance.
    pages = []
    check = PassportPage.validate
    monkeypatch.setattr(PassportPage, "validate",
                        lambda page: pages.append(page.page_no) or check(page))
    passport = place_visa(_passport(), "V1", 3, {"V1"})
    add_stamp(passport, 3, _STAMP)
    canonical_deserialize(canonical_serialize(passport))
    assert pages == [3, 3, *range(1, model.PASSPORT_PAGE_COUNT + 1)]


@pytest.mark.parametrize("state,captcha,index,code", [
    (SessionState.IMAGE_AUTH_PENDING, None, -1, "BAD_IMAGE_INDEX"),
    (SessionState.IMAGE_AUTH_PENDING, None, 99, "BAD_IMAGE_INDEX"),
    (SessionState.TIME_AUTH_PENDING, None, None, "PENDING_CAPTCHA_MISMATCH"),
], ids=["index-minus-one", "index-99", "time-auth-without-captcha"])
def test_device_decode_refuses_session_it_cannot_drive(state, captcha, index, code):
    """A session decoded inside its device meets the same checks as one
    built in code: no picture index outside the enrolled ten, and no time
    check without its captcha."""
    device = DeviceState("d1", 0, _images())
    device.session = _unchecked(Session, session_id="s-1", state=state,
                                activated_at=0, pending_captcha=captcha,
                                pending_image_index=index)
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(canonical_serialize(device))
    assert err.value.code == code


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


@pytest.mark.parametrize("field", [b"JFK", b"ARRIVAL"], ids=["str", "enum-name"])
def test_invalid_utf8_is_validation_error(field):
    raw = canonical_serialize(StampEntry(StampKind.ARRIVAL, "JFK", 0))
    bad = b"\xff" + field[1:]
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(raw.replace(field, bad))
    assert err.value.code == "BAD_UTF8"


@pytest.mark.parametrize("name", ["LOCKED", "EXPIRED"])
def test_passport_status_name_without_member_is_refused(name):
    # The device holds the lock, so a passport is only ever ACTIVE; a
    # status name with no member is refused like any other unknown name.
    passport = _passport()
    object.__setattr__(passport, "status", Enum("PassportStatus", [name])[name])
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(canonical_serialize(passport))
    assert err.value.code == "BAD_ENUM_NAME"


def test_writer_refuses_text_utf8_cannot_encode():
    # A lone surrogate is a valid str but has no UTF-8 form. Only the
    # writer checks the text of a device id.
    device = DeviceState("d\udc80", 0, _images())
    with pytest.raises(ValidationError) as err:
        canonical_serialize(device)
    assert err.value.code == "BAD_UTF8"


@pytest.mark.parametrize("build", [
    lambda text: PassportSummary(**{**_SUMMARY, "passport_no": text}),
    lambda text: PassportSummary(**{**_SUMMARY, "holder_name": text}),
    lambda text: new_passport(text, "alice", "IN", "IN", 0, 10**9),
    lambda text: new_passport("P1", text, "IN", "IN", 0, 10**9),
    lambda text: replace(_VISA, passport_no=text),
    lambda text: VisaImage.of(b"x", text),
    lambda text: VisaPresentation(PassportSummary(**_SUMMARY), text,
                                  VisaImage.of(b"x")),
], ids=["summary-passport-no", "summary-holder", "passport-no", "passport-holder",
        "visa-passport-no", "image-media-type", "presentation-visa-id"])
def test_records_refuse_text_utf8_cannot_encode_when_built(build):
    with pytest.raises(ValidationError) as err:
        build("\udc80lice")
    assert str(err.value) == "BAD_UTF8: surrogates not allowed"


_PENDING = SessionState.CREDENTIALS_PENDING
_AWAITING_IMAGE = SessionState.IMAGE_AUTH_PENDING
_UTF8 = "BAD_UTF8: surrogates not allowed"


@pytest.mark.parametrize("build,text", [
    (lambda: Session("s", _PENDING, 2**63), "I64_OUT_OF_RANGE: 9223372036854775808"),
    (lambda: Session("s", _PENDING, model.I64_MIN - 1),
     "I64_OUT_OF_RANGE: -9223372036854775809"),
    (lambda: Session("s", _PENDING, 1.0), "I64_OUT_OF_RANGE: 1.0"),
    (lambda: Session("s", _PENDING, True), "I64_OUT_OF_RANGE: True"),
    (lambda: Session("s\ud800", _PENDING, 0), _UTF8),
    (lambda: Session("s", _AWAITING_IMAGE, 0, pending_image_index=1.0),
     "I64_OUT_OF_RANGE: 1.0"),
    (lambda: CaptchaChallenge("c", "x", 2**63), "I64_OUT_OF_RANGE: 9223372036854775808"),
    (lambda: CaptchaChallenge("c", "x", 0.0), "I64_OUT_OF_RANGE: 0.0"),
    (lambda: CaptchaChallenge("c\ud800", "x", 0), _UTF8),
    (lambda: CaptchaChallenge("c", "x\ud800", 0), _UTF8),
    (lambda: model.AuthImage(1.5, EMPTY_SHA256, EMPTY_SHA256), "I64_OUT_OF_RANGE: 1.5"),
    (lambda: model.AuthImage(True, EMPTY_SHA256, EMPTY_SHA256), "I64_OUT_OF_RANGE: True"),
], ids=["session-above-i64", "session-below-i64", "session-float", "session-bool",
        "session-id-surrogate", "session-float-index", "captcha-above-i64",
        "captcha-float", "captcha-id-surrogate", "captcha-text-surrogate",
        "image-float-index", "image-bool-index"])
def test_auth_records_refuse_what_the_writer_refuses_when_built(build, text):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == text


@pytest.mark.parametrize("build,text", [
    (lambda: Session("s\ud800", "X", 2**63), "BAD_SESSION_STATE: 'X'"),
    (lambda: Session("s", _AWAITING_IMAGE, 0, pending_image_index=11.5),
     "BAD_IMAGE_INDEX: 11.5"),
    (lambda: CaptchaChallenge("", "x\ud800", 2**63), "EMPTY_CHALLENGE_ID"),
    (lambda: CaptchaChallenge("c\ud800", "x", -1.5), "NEGATIVE_TIMESTAMP: -1.5"),
    (lambda: model.AuthImage(10.5, EMPTY_SHA256, EMPTY_SHA256), "BAD_IMAGE_INDEX: 10.5"),
], ids=["session-state", "session-index", "captcha-id", "captcha-time", "image-index"])
def test_auth_record_rules_added_after_the_existing_ones(build, text):
    # A value that breaks an existing rule and a new one gets the
    # existing refusal, as before the new rules.
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == text


@pytest.mark.parametrize("issue,expiry", [
    (0.0, 10**9), (0, 1e9), (False, 10**9),
], ids=["float-issue", "float-expiry", "bool-issue"])
def test_passport_dates_must_be_ints(issue, expiry):
    # The writer packs an int alone: any other date is refused when built.
    dates = dict(issue_date=issue, expiry_date=expiry)
    for build in (lambda: replace(_passport(), **dates),
                  lambda: PassportSummary(**{**_SUMMARY, **dates})):
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.code == "DATE_OUT_OF_RANGE"


@pytest.mark.parametrize("buffer", [bytearray, memoryview])
def test_visa_image_holds_bytes_given_any_buffer(buffer):
    data = bytearray(b"image")
    for image in (VisaImage(buffer(data), "image/png", content_hash(data)),
                  VisaImage.of(buffer(data))):
        assert type(image.data) is bytes
        assert image == VisaImage.of(b"image")
        assert hash(image) == hash(VisaImage.of(b"image"))
    data[0] = 0
    assert image.data == b"image"
    with pytest.raises(TypeError):
        VisaImage(5, "image/png", content_hash(bytes(5)))


def test_register_codec_duplicate_tag_rejected():
    class Doomed:
        pass

    with pytest.raises(ValueError):
        model.register_codec(Doomed, 0x02)


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


# Values of every type a field may be handed by mistake: text with lone
# surrogates, floats, bools, ints outside i64 and mutable bytes.
_TEXTS = st.one_of(st.text(max_size=6),
                   st.lists(st.sampled_from("P1-é\ud800\udc80"), max_size=4).map("".join))
_COUNTRIES = st.one_of(st.sampled_from(["IN", "US", "GBR"]), _TEXTS)
_DATES = st.one_of(st.integers(-5, 5), st.integers(), st.sampled_from(
    [model.I64_MIN - 1, model.I64_MAX, model.I64_MAX + 1]), st.floats(), st.booleans())
_SUMMARY_FIELDS = st.tuples(_TEXTS, _TEXTS, _COUNTRIES, _COUNTRIES, _DATES, _DATES,
                            st.sampled_from([PassportStatus.ACTIVE, "ACTIVE"]))


@st.composite
def _image_fields(draw):
    data = draw(st.binary(max_size=16))
    digest = draw(st.sampled_from([content_hash(data), EMPTY_SHA256, "00"]))
    if draw(st.booleans()):
        data = bytearray(data)
    return data, draw(st.one_of(st.just("image/png"), _TEXTS)), digest


def _built(build, *fields):
    """The record ``build(*fields)`` makes, or None when it is refused."""
    try:
        return build(*fields)
    except ValidationError:
        return None


@given(_SUMMARY_FIELDS, _image_fields(), _TEXTS)
@example(("P1", "alice", "IN", "IN", 0.0, 10**9, PassportStatus.ACTIVE),
         (b"x", "image/png", content_hash(b"x")), "V1")
@example(("P1", "b\ud800b", "IN", "IN", 0, 10**9, PassportStatus.ACTIVE),
         (bytearray(b"x"), "image/png", content_hash(b"x")), "V\ud800")
def test_built_records_round_trip_property(summary_fields, image_fields, visa_id):
    # A record either refuses its fields when built or encodes and
    # decodes back to itself: the writer never refuses a built record.
    summary = _built(PassportSummary, *summary_fields)
    passport = _built(new_passport, *summary_fields[:6])
    image = _built(VisaImage, *image_fields)
    presentation = None
    if summary is not None and image is not None:
        presentation = _built(VisaPresentation, summary, visa_id, image)
    for record in (summary, passport, image, presentation):
        if record is not None:
            assert canonical_deserialize(canonical_serialize(record)) == record


_INDICES = st.one_of(st.integers(-1, 11), st.floats(), st.booleans())
_HASHES = st.sampled_from([EMPTY_SHA256, "00"])


@given(_TEXTS, _TEXTS, _DATES, _TEXTS, st.sampled_from(SessionState), _DATES,
       st.booleans(), st.one_of(st.none(), _INDICES), _INDICES, _HASHES)
@example("c", "x", 2**63, "s", SessionState.TIME_AUTH_PENDING, 0, True, None,
         1.5, EMPTY_SHA256)
@example("c", "x", 0, "s\ud800", SessionState.CREDENTIALS_PENDING, 2**63, False,
         None, 0, EMPTY_SHA256)
def test_built_auth_records_round_trip_property(challenge_id, text, issued_at,
                                                 session_id, state, activated_at,
                                                 with_captcha, index,
                                                 image_index, image_hash):
    # The records a device holds for sign-in either refuse their fields
    # when built or encode and decode back to themselves.
    captcha = _built(CaptchaChallenge, challenge_id, text, issued_at)
    session = _built(Session, session_id, state, activated_at,
                     captcha if with_captcha else None, index)
    image = _built(model.AuthImage, image_index, image_hash, image_hash)
    for record in (captcha, session, image):
        if record is not None:
            assert canonical_deserialize(canonical_serialize(record)) == record


@given(_stamps, _stamps)
def test_distinct_stamps_distinct_bytes(a, b):
    if a != b:
        assert canonical_serialize(a) != canonical_serialize(b)
